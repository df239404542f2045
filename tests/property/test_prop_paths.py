"""Property-based tests of the path engine against a networkx oracle.

networkx provides an independent shortest-path implementation; we build
the product graph (data graph x NFA, its moves from the definitional
oracle's :class:`~repro.fuzz.oracle.Product`) explicitly as an
nx.DiGraph and compare reachability and shortest distances with
PathFinder's results on randomly generated graphs and regexes.
"""

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.fuzz.oracle import Product
from repro.lang import ast
from repro.model.builder import GraphBuilder
from repro.paths.automaton import compile_regex
from repro.paths.product import PathFinder

NODES = ["a", "b", "c", "d", "e"]
LABELS = ["k", "l"]


@st.composite
def graphs(draw):
    builder = GraphBuilder()
    for node in NODES:
        builder.add_node(node, labels=["N"])
    count = draw(st.integers(0, 8))
    for index in range(count):
        src = draw(st.sampled_from(NODES))
        dst = draw(st.sampled_from(NODES))
        label = draw(st.sampled_from(LABELS))
        builder.add_edge(src, dst, edge_id=f"edge{index}", labels=[label])
    return builder.build()


@st.composite
def regexes(draw, depth=2):
    if depth == 0:
        return draw(
            st.one_of(
                st.sampled_from(LABELS).map(ast.RLabel),
                st.sampled_from(LABELS).map(
                    lambda l: ast.RLabel(l, inverse=True)
                ),
                st.just(ast.RAnyEdge()),
            )
        )
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(regexes(depth=0))
    if kind == 1:
        return ast.RStar(draw(regexes(depth=depth - 1)))
    if kind == 2:
        return ast.ROpt(draw(regexes(depth=depth - 1)))
    if kind == 3:
        items = draw(st.lists(regexes(depth=depth - 1), min_size=2, max_size=2))
        return ast.RConcat(tuple(items))
    items = draw(st.lists(regexes(depth=depth - 1), min_size=2, max_size=2))
    return ast.RAlt(tuple(items))


def product_digraph(graph, nfa):
    """The product graph as an nx.DiGraph with hop-count weights."""
    product = nx.DiGraph()
    for node in graph.nodes:
        for state in range(nfa.state_count):
            product.add_node((node, state))
    moves = Product(graph, nfa).moves
    for node in graph.nodes:
        for state in range(nfa.state_count):
            for delta, _, nxt_node, nxt_state in moves(node, state):
                current = product.get_edge_data(
                    (node, state), (nxt_node, nxt_state)
                )
                if current is None or current["weight"] > delta:
                    product.add_edge(
                        (node, state), (nxt_node, nxt_state), weight=delta
                    )
    return product


@given(graphs(), regexes())
@settings(max_examples=60, deadline=None)
def test_reachability_matches_networkx(graph, regex):
    nfa = compile_regex(regex)
    finder = PathFinder(graph, nfa)
    product = product_digraph(graph, nfa)
    for source in sorted(graph.nodes, key=str):
        expected = set()
        lengths = nx.single_source_dijkstra_path_length(
            product, (source, nfa.start)
        )
        for (node, state), _ in lengths.items():
            if nfa.is_accepting(state):
                expected.add(node)
        assert finder.reachable_from(source) == expected


@given(graphs(), regexes())
@settings(max_examples=60, deadline=None)
def test_shortest_costs_match_networkx(graph, regex):
    nfa = compile_regex(regex)
    finder = PathFinder(graph, nfa)
    product = product_digraph(graph, nfa)
    for source in sorted(graph.nodes, key=str):
        walks = finder.shortest_multi([source])[source]
        lengths = nx.single_source_dijkstra_path_length(
            product, (source, nfa.start)
        )
        best = {}
        for (node, state), distance in lengths.items():
            if nfa.is_accepting(state):
                if node not in best or distance < best[node]:
                    best[node] = distance
        assert {n: w.cost for n, w in walks.items()} == best


@given(graphs(), regexes())
@settings(max_examples=60, deadline=None)
def test_walks_are_wellformed_and_conforming(graph, regex):
    nfa = compile_regex(regex)
    finder = PathFinder(graph, nfa)
    product = Product(graph, nfa)
    for source in sorted(graph.nodes, key=str):
        for target, walk in finder.shortest_multi([source])[source].items():
            sequence = walk.sequence
            assert sequence[0] == source and sequence[-1] == target
            assert len(sequence) % 2 == 1
            # verify graph-level adjacency of the walk
            for i in range(1, len(sequence), 2):
                edge = sequence[i]
                src, dst = graph.endpoints(edge)
                assert {src, dst} >= {sequence[i - 1], sequence[i + 1]} or (
                    src == sequence[i - 1] and dst == sequence[i + 1]
                ) or (src == sequence[i + 1] and dst == sequence[i - 1])
            # verify NFA acceptance by simulating the walk
            states = {nfa.start}
            position = 0
            # breadth simulation over (index into walk, state)
            frontier = {(0, nfa.start)}
            seen = set(frontier)
            accepted = False
            while frontier:
                new_frontier = set()
                for index, state in frontier:
                    node = sequence[2 * index]
                    if 2 * index == len(sequence) - 1 and nfa.is_accepting(state):
                        accepted = True
                    for delta, ext, nxt_node, nxt_state in product.moves(
                        node, state
                    ):
                        if ext:
                            if (
                                2 * index + 2 < len(sequence) + 1
                                and 2 * index + 1 < len(sequence)
                                and sequence[2 * index + 1] == ext[0]
                                and sequence[2 * index + 2] == ext[1]
                            ):
                                item = (index + 1, nxt_state)
                                if item not in seen:
                                    seen.add(item)
                                    new_frontier.add(item)
                        else:
                            item = (index, nxt_state)
                            if item not in seen:
                                seen.add(item)
                                new_frontier.add(item)
                frontier = new_frontier
            # re-check acceptance including final-state node arcs
            assert accepted or any(
                2 * i == len(sequence) - 1 and nfa.is_accepting(s)
                for i, s in seen
            )


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_k_shortest_is_sorted_and_distinct(graph):
    nfa = compile_regex(ast.RStar(ast.RAnyEdge()))
    finder = PathFinder(graph, nfa)
    for source in sorted(graph.nodes, key=str):
        for target in sorted(graph.nodes, key=str):
            walks = finder.k_shortest(source, target, 4)
            costs = [w.cost for w in walks]
            assert costs == sorted(costs)
            assert len({w.sequence for w in walks}) == len(walks)
            if walks:
                best = finder.shortest(source, target)
                assert best is not None and best.cost == costs[0]
