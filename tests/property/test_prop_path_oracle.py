"""Property tests: batched path execution vs. the row-at-a-time oracle.

PR 2 established the pattern for node/edge atoms
(``test_prop_match_oracle.py``); this file extends it to path atoms. The
batched engine (parent-pointer frontier, BFS fast path, columnar
``PathAtom`` expansion) must produce the *identical* binding table — same
rows, same order, same columns, same walk sequences, same costs — as the
row-at-a-time reference executor across ``SHORTEST``, ``k SHORTEST``,
``ALL`` and reachability modes. A second group locks in the
deterministic lexicographic tie-break across the three search
implementations (naive Dijkstra, parent-pointer Dijkstra, level-ranked
BFS).
"""

from hypothesis import given, settings, strategies as st

from repro.catalog import Catalog
from repro.config import NAIVE_CONFIG, ExecutionConfig
from repro.eval.context import EvalContext
from repro.eval.match import evaluate_block
from repro.lang import ast
from repro.model.builder import GraphBuilder
from repro.paths.automaton import compile_regex
from repro.paths.product import PathFinder

NODES = ["a", "b", "c", "d", "e"]
NODE_LABELS = ["X", "Y"]
EDGE_LABELS = ["k", "l"]


@st.composite
def graphs(draw):
    builder = GraphBuilder()
    for node in NODES:
        builder.add_node(
            node, labels=draw(st.sets(st.sampled_from(NODE_LABELS)))
        )
    count = draw(st.integers(0, 8))
    for index in range(count):
        builder.add_edge(
            draw(st.sampled_from(NODES)),
            draw(st.sampled_from(NODES)),
            edge_id=f"e{index}",
            labels=[draw(st.sampled_from(EDGE_LABELS))],
        )
    return builder.build()


@st.composite
def regexes(draw, depth=2):
    if depth == 0:
        return draw(
            st.one_of(
                st.sampled_from(EDGE_LABELS).map(ast.RLabel),
                st.sampled_from(EDGE_LABELS).map(
                    lambda l: ast.RLabel(l, inverse=True)
                ),
                st.just(ast.RAnyEdge()),
                st.sampled_from(NODE_LABELS).map(ast.RNodeTest),
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


@st.composite
def path_elements(draw):
    """A random computed-path pattern across all four modes."""
    mode = draw(st.sampled_from(["shortest", "k", "reach", "all"]))
    regex = draw(regexes())
    direction = draw(st.sampled_from([ast.OUT, ast.IN]))
    if mode == "reach":
        return ast.PathPatternElem(
            var=None, direction=direction, mode="reach", regex=regex
        )
    if mode == "all":
        return ast.PathPatternElem(
            var="p", direction=direction, mode="all", regex=regex
        )
    count = 1 if mode == "shortest" else draw(st.integers(2, 3))
    cost_var = draw(st.sampled_from([None, "c"]))
    return ast.PathPatternElem(
        var="p",
        direction=direction,
        mode="shortest",
        count=count,
        regex=regex,
        cost_var=cost_var,
    )


@st.composite
def path_chains(draw):
    """``(n0 [:L])  -/<path>/->  (n1 [:L])`` with optional labels."""
    elements = []
    for var in ("n0", "n1"):
        labels = draw(
            st.sampled_from([(), (("X",),), (("Y",),)])
        )
        elements.insert(
            len(elements), ast.NodePattern(var=var, labels=labels)
        )
    chain = [elements[0], draw(path_elements()), elements[1]]
    return ast.Chain(tuple(chain))


def _tables(graph, chain):
    catalog = Catalog()
    catalog.register_graph("g", graph, default=True)
    block = ast.MatchBlock((ast.PatternLocation(chain, "g"),), None)
    columnar_ctx = EvalContext(catalog)
    reference_ctx = EvalContext(
        catalog, config=ExecutionConfig(executor="reference")
    )
    return (
        evaluate_block(block, columnar_ctx),
        evaluate_block(block, reference_ctx),
    )


@given(graphs(), path_chains())
@settings(max_examples=120, deadline=None)
def test_batched_paths_match_reference_exactly(graph, chain):
    """Batched vs. row-at-a-time path execution: identical tables.

    Row order included — walk values compare by sequence *and* cost, so
    any divergence in tie-breaking, cost bookkeeping or lazy
    reconstruction shows up here.
    """
    columnar, reference = _tables(graph, chain)
    assert columnar.columns == reference.columns
    assert list(columnar.rows) == list(reference.rows)


@given(graphs(), path_chains())
@settings(max_examples=40, deadline=None)
def test_batched_paths_under_naive_planner(graph, chain):
    """Planner choice must not leak into path results (join semantics)."""
    catalog = Catalog()
    catalog.register_graph("g", graph, default=True)
    block = ast.MatchBlock((ast.PatternLocation(chain, "g"),), None)
    batched_ctx = EvalContext(catalog)
    naive_ctx = EvalContext(catalog, config=NAIVE_CONFIG)
    assert set(evaluate_block(block, batched_ctx)) == set(
        evaluate_block(block, naive_ctx)
    )


# ---------------------------------------------------------------------------
# Determinism of the lexicographic tie-break
# ---------------------------------------------------------------------------

@given(graphs(), regexes())
@settings(max_examples=80, deadline=None)
def test_all_three_engines_settle_identically(graph, regex):
    """naive / parent-pointer Dijkstra / ranked BFS: same walks, same order.

    The parent-pointer reconstruction and the BFS rank ordering must
    realize exactly the reference's full-sequence lexicographic
    tie-break — down to the settle order of the results dict.
    """
    nfa = compile_regex(regex)
    naive = PathFinder(graph, nfa, naive=True)
    batched = PathFinder(graph, nfa)
    dijkstra = PathFinder(graph, nfa, bfs=False)
    assert batched.strategy == "bfs"
    assert dijkstra.strategy == "dijkstra"
    for source in sorted(graph.nodes, key=str):
        reference = list(naive.shortest_from(source).items())
        assert list(batched.shortest_from(source).items()) == reference
        assert list(dijkstra.shortest_from(source).items()) == reference
        assert naive.reachable_from(source) == batched.reachable_from(source)


@given(graphs(), regexes())
@settings(max_examples=40, deadline=None)
def test_k_shortest_engines_agree(graph, regex):
    nfa = compile_regex(regex)
    naive = PathFinder(graph, nfa, naive=True)
    batched = PathFinder(graph, nfa)
    for source in sorted(graph.nodes, key=str):
        for target in sorted(graph.nodes, key=str):
            assert naive.k_shortest(source, target, 3) == batched.k_shortest(
                source, target, 3
            )


@given(graphs(), regexes())
@settings(max_examples=40, deadline=None)
def test_shortest_multi_agrees_with_single_source(graph, regex):
    """The batched multi-source entry point vs. one search per source."""
    nfa = compile_regex(regex)
    batched = PathFinder(graph, nfa)
    naive = PathFinder(graph, nfa, naive=True)
    sources = sorted(graph.nodes, key=str)
    multi = batched.shortest_multi(sources)
    for source in sources:
        assert multi[source] == naive.shortest_from(source)


def test_tie_break_prefers_lexicographic_walk():
    """Two equal-cost walks: the smaller identifier sequence wins in all
    engines (Appendix A footnote 4)."""
    builder = GraphBuilder()
    for node in ("s", "m1", "m2", "t"):
        builder.add_node(node)
    # Two cost-2 walks s -> t; the walk through edge "a1" sorts first.
    builder.add_edge("s", "m1", edge_id="a1", labels=["k"])
    builder.add_edge("m1", "t", edge_id="a2", labels=["k"])
    builder.add_edge("s", "m2", edge_id="b1", labels=["k"])
    builder.add_edge("m2", "t", edge_id="b2", labels=["k"])
    graph = builder.build()
    nfa = compile_regex(ast.RStar(ast.RLabel("k")))
    expected = ("s", "a1", "m1", "a2", "t")
    for finder in (
        PathFinder(graph, nfa),
        PathFinder(graph, nfa, bfs=False),
        PathFinder(graph, nfa, naive=True),
    ):
        walk = finder.shortest("s", "t")
        assert walk is not None and walk.sequence == expected


# ---------------------------------------------------------------------------
# Multi-target scans vs. the per-target reference engine
# ---------------------------------------------------------------------------

#: Automata with duplicate runs of one graph walk (``k|k``) and node-test
#: arcs, mixed into the random regexes: the cases where distinct-prefix
#: budgets and zero-cost moves matter.
DUPLICATE_RUNS = [
    ast.RStar(ast.RAlt((ast.RLabel("k"), ast.RLabel("k")))),
    ast.RConcat(
        (
            ast.RNodeTest("X"),
            ast.RPlus(
                ast.RAlt(
                    (ast.RLabel("k"), ast.RConcat((ast.RNodeTest("Y"), ast.RLabel("k"))))
                )
            ),
        )
    ),
]
multi_regexes = st.one_of(regexes(), st.sampled_from(DUPLICATE_RUNS))


def _target_sets(data, nodes, source):
    """None, a subset, the subset plus a node absent from the graph, {s}."""
    subset = data.draw(st.sets(st.sampled_from(nodes)))
    return None, subset, subset | {"zz"}, {source}


def _projection_oracle(finder, nfa, source, target):
    """ALL projection by fixpoints over the reference expansion."""
    start = (source, nfa.start)
    moves = {}
    forward, stack = {start}, [start]
    while stack:
        pair = stack.pop()
        moves[pair] = [(ext, (n, q)) for _, ext, n, q in finder._expand(*pair)]
        for _, after in moves[pair]:
            if after not in forward:
                forward.add(after)
                stack.append(after)
    core = {p for p in forward if p[0] == target and nfa.is_accepting(p[1])}
    grown = True
    while grown:
        grown = False
        for pair in forward - core:
            if any(after in core for _, after in moves[pair]):
                core.add(pair)
                grown = True
    nodes, edges = ({source} if start in core else set()), set()
    for pair in core:
        for ext, after in moves[pair]:
            if after in core:
                nodes.update((pair[0], after[0], *ext[1::2]))
                edges.update(ext[0::2])
    return frozenset(nodes), frozenset(edges)


@given(graphs(), multi_regexes, st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_k_shortest_multi_matches_per_target_reference(graph, regex, k, data):
    """One scan per source == the reference engine's scan per target."""
    nfa = compile_regex(regex)
    batched = PathFinder(graph, nfa)
    naive = PathFinder(graph, nfa, naive=True)
    nodes = sorted(graph.nodes, key=str)
    for source in nodes:
        for targets in _target_sets(data, nodes, source):
            expected = {
                target: naive.k_shortest(source, target, k)
                for target in (nodes if targets is None else targets)
            }
            assert batched.k_shortest_multi(source, targets, k) == {
                target: walks for target, walks in expected.items() if walks
            }


@given(graphs(), multi_regexes, st.data())
@settings(max_examples=60, deadline=None)
def test_all_paths_multi_matches_per_target_reference(graph, regex, data):
    """One forward pass per source == a projection per target."""
    nfa = compile_regex(regex)
    batched = PathFinder(graph, nfa)
    naive = PathFinder(graph, nfa, naive=True)
    nodes = sorted(graph.nodes, key=str)
    for source in nodes:
        for targets in _target_sets(data, nodes, source):
            expected = {}
            for target in nodes if targets is None else targets:
                projection = _projection_oracle(naive, nfa, source, target)
                assert naive.all_paths_projection(source, target) == projection
                if projection[0]:
                    expected[target] = projection
            assert batched.all_paths_multi(source, targets) == expected
