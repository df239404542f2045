"""Property tests: batched path execution vs. the definitional oracle.

``test_prop_match_oracle.py`` checks node/edge atoms; this file checks
path atoms. The engine (parent-pointer frontier, BFS fast path, columnar
``PathAtom`` expansion) must produce the binding set of the oracle
(:mod:`repro.fuzz.oracle`: whole walks in a heap, walk enumeration on
the product graph) — same walk sequences, same costs — across
``SHORTEST``, ``k SHORTEST``, ``ALL`` and reachability modes, in the
same row order on every run. A second group locks in the deterministic
lexicographic tie-break across the three search implementations (the
oracle's whole-walk heap, parent-pointer Dijkstra, level-ranked BFS).
"""

from collections import Counter

from atom_orders import check_block_orders
from hypothesis import given, settings, strategies as st

from repro.algebra.binding import Binding, BindingTable
from repro.catalog import Catalog
from repro.eval.context import EvalContext
from repro.eval.expressions import ExpressionEvaluator
from repro.eval.match import PathAtom, evaluate_block
from repro.fuzz import oracle
from repro.lang import ast
from repro.model.builder import GraphBuilder
from repro.paths.automaton import compile_regex, reverse_regex
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


def _block(graph, chain):
    catalog = Catalog()
    catalog.register_graph("g", graph, default=True)
    return catalog, ast.MatchBlock((ast.PatternLocation(chain, "g"),), None)


def _tables(graph, chain):
    """(engine table, its rerun, oracle table) for *chain* over *graph*."""
    catalog, block = _block(graph, chain)
    return (
        evaluate_block(block, EvalContext(catalog)),
        evaluate_block(block, EvalContext(catalog)),
        evaluate_block(block, oracle.OracleContext(catalog)),
    )


def _product(graph, regex):
    return oracle.Product(graph, compile_regex(regex))


@given(graphs(), path_chains())
@settings(max_examples=120, deadline=None)
def test_batched_paths_match_the_oracle(graph, chain):
    """Batched path execution vs. walk enumeration: one binding set.

    Walk values compare by sequence *and* cost, so any divergence in
    tie-breaking, cost bookkeeping or lazy reconstruction shows up here;
    the engine's row order is the same on every run.
    """
    engine, again, expected = _tables(graph, chain)
    assert set(engine.columns) == set(expected.columns)
    assert set(engine) == set(expected)
    assert list(engine.rows) == list(again.rows)


@given(graphs(), path_chains())
@settings(max_examples=40, deadline=None)
def test_batched_paths_in_every_allowed_order(graph, chain):
    """Atom order must not leak into path results (join semantics)."""
    catalog, block = _block(graph, chain)
    assert check_block_orders(block, EvalContext(catalog)) == 6


# ---------------------------------------------------------------------------
# Determinism of the lexicographic tie-break
# ---------------------------------------------------------------------------

@given(graphs(), regexes())
@settings(max_examples=80, deadline=None)
def test_all_three_engines_settle_identically(graph, regex):
    """oracle / parent-pointer Dijkstra / ranked BFS: same walks, same order.

    The parent-pointer reconstruction and the BFS rank ordering must
    realize exactly the oracle's full-sequence lexicographic tie-break —
    down to the settle order of the results dict.
    """
    nfa = compile_regex(regex)
    product = _product(graph, regex)
    batched = PathFinder(graph, nfa)
    dijkstra = PathFinder(graph, nfa, bfs=False)
    assert batched._bfs and not dijkstra._bfs
    for source in sorted(graph.nodes, key=str):
        expected = list(oracle.shortest_walks(product, source).items())
        assert list(batched.shortest_from(source).items()) == expected
        assert list(dijkstra.shortest_from(source).items()) == expected
        assert batched.reachable_from(source) == oracle.reachable(product, source)


@given(graphs(), regexes())
@settings(max_examples=40, deadline=None)
def test_k_shortest_engines_agree(graph, regex):
    product = _product(graph, regex)
    batched = PathFinder(graph, compile_regex(regex))
    for source in sorted(graph.nodes, key=str):
        expected = oracle.k_shortest_walks(product, source, 3)
        for target in sorted(graph.nodes, key=str):
            assert batched.k_shortest(source, target, 3) == expected.get(target, [])


@given(graphs(), regexes())
@settings(max_examples=40, deadline=None)
def test_shortest_multi_agrees_with_single_source(graph, regex):
    """The batched multi-source entry point vs. one search per source."""
    batched = PathFinder(graph, compile_regex(regex))
    product = _product(graph, regex)
    sources = sorted(graph.nodes, key=str)
    multi = batched.shortest_multi(sources)
    for source in sources:
        assert multi[source] == oracle.shortest_walks(product, source)


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
    regex = ast.RStar(ast.RLabel("k"))
    nfa = compile_regex(regex)
    expected = ("s", "a1", "m1", "a2", "t")
    for finder in (PathFinder(graph, nfa), PathFinder(graph, nfa, bfs=False)):
        walk = finder.shortest("s", "t")
        assert walk is not None and walk.sequence == expected
    assert oracle.shortest_walks(_product(graph, regex), "s")["t"].sequence == expected


# ---------------------------------------------------------------------------
# Multi-target scans vs. the oracle
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


def _projection_fixpoint(product, source, target):
    """ALL projection by fixpoints over the oracle's product moves."""
    nfa = product.nfa
    start = (source, nfa.start)
    moves = {}
    forward, stack = {start}, [start]
    while stack:
        pair = stack.pop()
        moves[pair] = [(ext, (n, q)) for _, ext, n, q in product.moves(*pair)]
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
def test_k_shortest_multi_matches_the_oracle(graph, regex, k, data):
    """One scan per source, for any stop set == the oracle's walks."""
    batched = PathFinder(graph, compile_regex(regex))
    product = _product(graph, regex)
    nodes = sorted(graph.nodes, key=str)
    for source in nodes:
        found = oracle.k_shortest_walks(product, source, k)
        for targets in _target_sets(data, nodes, source):
            assert batched.k_shortest_multi(source, targets, k) == {
                target: walks for target, walks in found.items()
                if targets is None or target in targets
            }


@given(graphs(), multi_regexes, st.data())
@settings(max_examples=60, deadline=None)
def test_all_paths_multi_matches_the_oracle(graph, regex, data):
    """One forward pass per source == a projection per target."""
    batched = PathFinder(graph, compile_regex(regex))
    product = _product(graph, regex)
    nodes = sorted(graph.nodes, key=str)
    for source in nodes:
        found = oracle.all_paths(product, source)
        for targets in _target_sets(data, nodes, source):
            expected = {}
            for target in nodes if targets is None else targets:
                projection = _projection_fixpoint(product, source, target)
                if projection[0]:
                    expected[target] = projection
            if targets is None:
                assert found == expected
            assert batched.all_paths_multi(source, targets) == expected


# ---------------------------------------------------------------------------
# Backward search from a bound target
# ---------------------------------------------------------------------------

@st.composite
def reversible_regexes(draw):
    """Random and duplicate-run regexes, some under ``+`` or ``{m,n}``."""
    regex = draw(multi_regexes)
    wrap = draw(st.integers(0, 2))
    if wrap == 1:
        return ast.RPlus(regex)
    if wrap == 2:
        low = draw(st.integers(0, 2))
        high = draw(st.one_of(st.none(), st.integers(low, low + 2)))
        return ast.RRepeat(regex, low, high)
    return regex


@given(graphs(), reversible_regexes())
@settings(max_examples=80, deadline=None)
def test_backward_reach_inverts_forward_reach(graph, regex):
    """The reversed regex, searched from t, reaches exactly the sources
    whose forward search (engine and oracle alike) reaches t — t itself
    included iff a zero-length or cyclic walk conforms — and the
    cheapest walks cost the same both ways."""
    reverse = reverse_regex(regex)
    assert reverse_regex(reverse) == regex
    forward = PathFinder(graph, compile_regex(regex))
    backward = PathFinder(graph, compile_regex(reverse))
    product = _product(graph, regex)
    nodes = sorted(graph.nodes, key=str)
    reach = {source: oracle.reachable(product, source) for source in nodes}
    for source in nodes:
        assert forward.reachable_from(source) == reach[source]
    for target in nodes:
        sources = {source for source in nodes if target in reach[source]}
        assert backward.reachable_from(target) == sources
        walks = backward.shortest_from(target)
        assert set(walks) == sources
        for source in sources:
            walk = walks[source]
            assert (walk.source, walk.target) == (target, source)
            assert walk.cost == oracle.shortest_walks(product, source)[target].cost


@given(graphs(), path_elements(), st.lists(st.sampled_from(NODES + ["zz"]), max_size=3))
@settings(max_examples=80, deadline=None)
def test_target_bound_rows_match_the_oracle(graph, element, targets):
    """A path atom over rows that bind only its target (the backward
    branch, for every mode) binds what the oracle's syntax-order scan
    of all sources binds, row for row."""
    catalog = Catalog()
    catalog.register_graph("g", graph, default=True)
    atom = PathAtom(element, "n0", "n1")
    seed = BindingTable((atom.to_var,), [Binding({atom.to_var: t}) for t in targets])
    ctx = EvalContext(catalog)
    engine = atom.extend(seed, graph, ExpressionEvaluator(ctx), ctx, {})
    chain = ast.Chain((ast.NodePattern(var="n0"), element, ast.NodePattern(var="n1")))
    block = ast.MatchBlock((ast.PatternLocation(chain, "g"),), None)
    expected = evaluate_block(block, oracle.OracleContext(catalog), seed=seed)
    assert Counter(engine) == Counter(expected)
