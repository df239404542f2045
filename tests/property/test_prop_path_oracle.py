"""Property tests: batched path execution vs. the definitional oracle.

``test_prop_match_oracle.py`` checks node/edge atoms; this file checks
path atoms. The engine (parent-pointer frontier, ranked and keyed
k-scans, columnar ``PathAtom`` expansion) must produce the binding set of the oracle
(:mod:`repro.fuzz.oracle`: whole walks in a heap, walk enumeration on
the product graph) — same walk sequences, same costs — across
``SHORTEST``, ``k SHORTEST``, ``ALL`` and reachability modes, in the
same row order on every run. A second group locks in the deterministic
lexicographic tie-break across the three search implementations (the
oracle's whole-walk heap, the keyed scan, the level-ranked scan), and a
third runs the keyed scan under PATH-view costs. The last group checks
the walk-free best-cost frontier that SHORTEST runs for a walk no part of
the statement reads: its costs are the oracle's, and a statement that
never reads ``p`` returns the rows of the one that reads it.
"""

from collections import Counter

from atom_orders import check_block_orders
import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.binding import Binding, BindingTable
from repro import GCoreEngine
from repro.catalog import Catalog
from repro.eval.context import EvalContext
from repro.eval.match import PathAtom, evaluate_block
from repro.fuzz import oracle
from repro.lang import ast
from repro.lang.pretty import pretty_chain
from repro.model.builder import GraphBuilder
from repro.paths.automaton import compile_regex, reverse_regex
from repro.paths.product import PathFinder, ViewSegment

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
def regexes(draw, depth=2, views=()):
    """Random regexes over the edge and node labels and the *views*."""
    if depth == 0:
        return draw(
            st.one_of(
                st.sampled_from(EDGE_LABELS).map(ast.RLabel),
                st.sampled_from(EDGE_LABELS).map(
                    lambda l: ast.RLabel(l, inverse=True)
                ),
                st.just(ast.RAnyEdge()),
                st.sampled_from(NODE_LABELS).map(ast.RNodeTest),
                *([st.sampled_from(views).map(ast.RView)] * 2 if views else []),
            )
        )
    kind = draw(st.integers(0, 4))
    inner = regexes(depth=depth - 1, views=views)
    if kind == 0:
        return draw(regexes(depth=0, views=views))
    if kind == 1:
        return ast.RStar(draw(inner))
    if kind == 2:
        return ast.ROpt(draw(inner))
    if kind == 3:
        return ast.RConcat(tuple(draw(st.lists(inner, min_size=2, max_size=2))))
    return ast.RAlt(tuple(draw(st.lists(inner, min_size=2, max_size=2))))


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
    """oracle / keyed scan / ranked scan at k = 1: same walks, same order.

    The parent-pointer reconstruction and the level rank ordering must
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
        assert list(batched.shortest_multi([source])[source].items()) == expected
        assert list(dijkstra.shortest_multi([source])[source].items()) == expected
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


#: ``((k k)|(k k)...)*``: every walk of length 2i has branches**i runs
#: (``duplicate_run_setup`` in tests/paths/test_kshortest.py); and
#: ``(k (X|X))*``, whose two zero-cost node tests re-enter one level
#: twice with one walk.
BRANCHES = [
    ast.RStar(ast.RAlt(tuple(
        ast.RConcat((ast.RLabel("k"), ast.RLabel("k"))) for _ in range(branches)
    )))
    for branches in (2, 3)
] + [ast.RStar(ast.RConcat((
    ast.RLabel("k"), ast.RAlt((ast.RNodeTest("X"), ast.RNodeTest("X")))
)))]


@given(
    graphs(),
    st.one_of(reversible_regexes(), st.sampled_from(BRANCHES)),
    st.integers(1, 4),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_ranked_k_scan_equals_the_keyed_scan(graph, regex, k, data):
    """Unit-cost k SHORTEST ranks walks level by level; the keyed scan
    (``bfs=False``) compares whole walk keys. Both give the oracle's
    walks — node tests, duplicate runs, ``{m,n}`` and the zero-length
    walk of a source to itself (``{source}`` is one of the stop sets)."""
    nfa = compile_regex(regex)
    ranked, keyed = PathFinder(graph, nfa), PathFinder(graph, nfa, bfs=False)
    assert ranked._bfs and not keyed._bfs
    product = _product(graph, regex)
    nodes = sorted(graph.nodes, key=str)
    for source in nodes:
        found = oracle.k_shortest_walks(product, source, k)
        for targets in _target_sets(data, nodes, source):
            expected = {
                target: walks for target, walks in found.items()
                if targets is None or target in targets
            }
            assert ranked.k_shortest_multi(source, targets, k) == expected
            assert keyed.k_shortest_multi(source, targets, k) == expected


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
        walks = backward.shortest_multi([target])[target]
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
    engine = atom.extend(seed, graph, ctx, {})
    chain = ast.Chain((ast.NodePattern(var="n0"), element, ast.NodePattern(var="n1")))
    block = ast.MatchBlock((ast.PatternLocation(chain, "g"),), None)
    expected = evaluate_block(block, oracle.OracleContext(catalog), seed=seed)
    assert Counter(engine) == Counter(expected)


# ---------------------------------------------------------------------------
# The keyed scan under PATH-view costs
# ---------------------------------------------------------------------------

VIEWS = ("v", "w")


@st.composite
def view_indexes(draw, graph):
    """Segments of views ``v`` and ``w``: walks of 0-2 edges along *graph*,
    costs from a small set so that equal-cost walks tie, and one walk may
    be a segment of both views, or its own edges, at another cost."""
    out = {}
    for edge in sorted(graph.edges, key=str):
        out.setdefault(graph.endpoints(edge)[0], []).append(edge)
    views = {}
    for view in VIEWS:
        segments = {}
        for node in NODES:
            for _ in range(draw(st.integers(0, 2))):
                sequence = (node,)
                for _ in range(draw(st.integers(0, 2))):
                    if not out.get(sequence[-1]):
                        break
                    edge = draw(st.sampled_from(out[sequence[-1]]))
                    sequence += (edge, graph.endpoints(edge)[1])
                cost = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
                segments.setdefault(node, []).append(
                    ViewSegment(sequence[-1], cost, sequence)
                )
        views[view] = {node: tuple(found) for node, found in segments.items()}
    return views


#: Edges and both views under one star: a walk's edges and a segment
#: spanning them reach one product state at two costs.
VIEW_STARS = [
    ast.RStar(ast.RAlt((ast.RAnyEdge(), ast.RView("v")))),
    ast.RStar(ast.RAlt((ast.RLabel("k"), ast.RView("v"), ast.RView("w")))),
]


@given(
    graphs(),
    st.one_of(regexes(views=VIEWS), st.sampled_from(VIEW_STARS)),
    st.integers(1, 3),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_keyed_scan_under_view_costs_matches_the_oracle(graph, regex, k, data):
    """Non-unit costs run the keyed scan, whose pushes a state's k
    cheapest distinct pushes prune: k SHORTEST and SHORTEST still give
    the oracle's walks for every stop set."""
    regex = ast.RConcat((regex, ast.ROpt(ast.RView("v"))))
    nfa = compile_regex(regex)
    views = data.draw(view_indexes(graph))
    finder = PathFinder(graph, nfa, views)
    assert not finder._bfs
    product = oracle.Product(graph, nfa, views)
    nodes = sorted(graph.nodes, key=str)
    shortest = finder.shortest_multi(nodes)
    for source in nodes:
        found = oracle.k_shortest_walks(product, source, k)
        for targets in _target_sets(data, nodes, source):
            assert finder.k_shortest_multi(source, targets, k) == {
                target: walks for target, walks in found.items()
                if targets is None or target in targets
            }
        assert shortest[source] == oracle.shortest_walks(product, source)


K, V = ast.RLabel("k"), ast.RView("v")


@pytest.mark.parametrize(
    "regex, walks",
    [
        (ast.RStar(ast.RAlt((K, V))), [("a", "ab", "b", "ba", "a", "ab", "b")]),
        (ast.RAlt((K, ast.RConcat((K, K)), ast.RConcat((V, ast.RStar(ast.RLabel("l")))))), []),
    ],
    ids=["one-state", "two-accepting-states"],
)
def test_one_walk_at_two_costs_counts_once(regex, walks):
    """View ``v``'s one segment is the edge ``ab`` at cost 3, so the walk
    ``a ab b`` reaches ``b`` at cost 1 and again at cost 3, with
    ``a ac c cb b`` (cost 2) popped in between: into one product state
    (``(:k|~v)*``) or into two accepting ones. Either way the second
    arrival is the same walk, not a third one."""
    builder = GraphBuilder()
    for node in "abc":
        builder.add_node(node)
    for edge in ("ab", "ac", "cb", "ba"):
        builder.add_edge(edge[0], edge[1], edge_id=edge, labels=["k"])
    graph = builder.build()
    views = {"v": {"a": (ViewSegment("b", 3.0, ("a", "ab", "b")),)}}
    nfa = compile_regex(regex)
    expected = oracle.k_shortest_walks(oracle.Product(graph, nfa, views), "a", 3)
    assert [walk.sequence for walk in expected["b"]] == [
        ("a", "ab", "b"), ("a", "ac", "c", "cb", "b"), *walks,
    ]
    assert PathFinder(graph, nfa, views).k_shortest_multi("a", None, 3) == expected


# ---------------------------------------------------------------------------
# The best-cost frontier: SHORTEST when no walk is read
# ---------------------------------------------------------------------------

@given(
    graphs(),
    st.one_of(multi_regexes, regexes(views=VIEWS), st.sampled_from(VIEW_STARS)),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_best_costs_match_the_oracle(graph, regex, data):
    """Level by level (unit cost) and over a heap (``bfs=False``, view
    costs), the frontier's cost per target is the cost of the oracle's
    cheapest walk, for every stop set."""
    nfa = compile_regex(regex)
    views = data.draw(view_indexes(graph))
    finders = PathFinder(graph, nfa, views), PathFinder(graph, nfa, views, bfs=False)
    assert finders[0]._bfs == nfa.unit_cost and not finders[1]._bfs
    product = oracle.Product(graph, nfa, views)
    nodes = sorted(graph.nodes, key=str)
    for source in nodes:
        costs = {t: walk.cost for t, walk in oracle.shortest_walks(product, source).items()}
        for targets in _target_sets(data, nodes, source):
            expected = {t: c for t, c in costs.items() if targets is None or t in targets}
            for finder in finders:
                assert finder.best_costs(source, targets) == expected


@pytest.mark.parametrize(
    "regex",
    [ast.RAlt((ast.RNodeTest("X"), K)), ast.RAlt((K, ast.RNodeTest("X")))],
    ids=["node-test-first", "edge-first"],
)
def test_a_node_test_settles_in_its_own_level(regex):
    """``a`` reaches the accepting state by a zero-cost node test and by
    its ``k`` self-loop: whichever arc comes first, the node test keeps
    ``a`` in level 0."""
    builder = GraphBuilder()
    builder.add_node("a", labels=["X"])
    builder.add_edge("a", "a", edge_id="aa", labels=["k"])
    finder = PathFinder(builder.build(), compile_regex(regex))
    assert finder._bfs and finder.best_costs("a", None) == {"a": 0.0}


@st.composite
def unread_statements(draw):
    """``(statement, the statement reading p too)``: a SELECT over one
    SHORTEST pattern whose walk ``p`` it never reads — endpoints named or
    anonymous, alone or under OPTIONAL — and the same SELECT with ``p AS
    w`` appended; or, with ``COUNT(*)``, which reads every variable's
    domain, None."""
    shape = draw(st.sampled_from(["plain", "optional", "count"]))
    ends = [draw(st.sampled_from([name, None])) for name in ("n0", "n1")]
    if shape != "plain":
        ends = ["n0", draw(st.sampled_from(["n1", None]))]
    element = ast.PathPatternElem(
        var="p",
        direction=draw(st.sampled_from([ast.OUT, ast.IN])),
        regex=draw(regexes()),
        cost_var=draw(st.sampled_from([None, "c"])),
    )
    chain = pretty_chain(ast.Chain((
        ast.NodePattern(var=ends[0]), element, ast.NodePattern(var=ends[1])
    )))
    items = [f"{v} AS {v}" for v in (*ends, element.cost_var) if v] or ["1 AS one"]
    match = f"MATCH {chain}"
    if shape != "plain":
        match = f"MATCH (n0), (n1) OPTIONAL {chain}"
    if shape == "count":
        return f"SELECT COUNT(*) AS rows {match}", None
    text = f"SELECT {', '.join(items)} {match}"
    return text, text.replace(" MATCH ", ", p AS w MATCH ", 1)


@given(graphs(), unread_statements())
@settings(max_examples=120, deadline=None)
def test_an_unread_walk_changes_no_row(graph, statements):
    """The engine's rows, frontier or not, are the oracle's; with ``p``
    read and projected away they are the same rows again, in order."""
    text, reading = statements
    engine = GCoreEngine()
    engine.register_graph("g", graph, default=True)
    assert engine.prepare(text).unread_paths == (frozenset() if reading is None else {"p"})
    rows = engine.run(text).rows
    assert Counter(rows) == Counter(oracle.run(engine, text).rows)
    if reading is not None:
        assert [row[:-1] for row in engine.run(reading).rows] == list(rows)
