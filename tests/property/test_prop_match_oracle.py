"""Property test: the MATCH evaluator vs. brute force and the oracle.

Appendix A.2 defines pattern evaluation extensionally: the set of all
bindings of pattern variables to graph objects satisfying every atom.
For small random graphs and random edge-chain patterns we enumerate that
set directly (all |N|^k x |E|^m x |V|^v assignments) and compare it with
the planner-driven incremental evaluator and with the definitional
oracle (:mod:`repro.fuzz.oracle`, element-by-element enumeration) —
catching any divergence between either implementation and the formal
definition.

The patterns cover the branches of columnar expansion: named and
anonymous edges (over parallel edges), label conjunctions ``:X:Y`` and
disjunctions ``:X|Y``, constant ``{p = v}`` tests and ``{p = x}`` binds
on nodes and edges over multi-valued properties (a bind reusing a bound
value variable is a membership test), repeated endpoint variables
``(n)-[]-(n)``, and input tables with ``ABSENT`` cells.
"""

import itertools

from atom_orders import check_block_orders
from hypothesis import example, given, settings, strategies as st

from repro.algebra.binding import Binding, BindingTable
from repro.catalog import Catalog
from repro.eval.context import EvalContext
from repro.eval.match import evaluate_block
from repro.fuzz.oracle import OracleContext
from repro.lang import ast
from repro.model.builder import GraphBuilder

NODES = ["a", "b", "c", "d"]
LABELS = ["X", "Y"]
EDGE_LABELS = ["k", "l"]
VALUES = [1, 2]
NODE_VARS = ["n0", "n1", "n2"]
VALUE_VARS = ["x", "y"]


def _values():
    """A multi-valued property ``p`` (absent when empty)."""
    return st.sets(st.sampled_from(VALUES)).map(
        lambda values: {"p": values} if values else {}
    )


@st.composite
def graphs(draw):
    builder = GraphBuilder()
    for node in NODES:
        builder.add_node(
            node,
            labels=draw(st.sets(st.sampled_from(LABELS))),
            properties=draw(_values()),
        )
    count = draw(st.integers(0, 6))
    # Three endpoints for six edges: parallel edges are common.
    ends = st.sampled_from(NODES[:3])
    for index in range(count):
        builder.add_edge(
            draw(ends),
            draw(ends),
            edge_id=f"e{index}",
            labels=draw(st.sets(st.sampled_from(EDGE_LABELS), min_size=1)),
            properties=draw(_values()),
        )
    return builder.build()


def _label_groups(pool):
    """0-2 groups of 1-2 labels: ``:X``, ``:X:Y``, ``:X|Y``, ..."""
    group = st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True)
    return st.lists(group.map(tuple), max_size=2).map(tuple)


def _sometimes(strategy):
    """``()`` three times in four, else a one-entry tuple of *strategy*:
    every test or bind filters, so most elements carry none."""
    return st.sampled_from([False, False, False, True]).flatmap(
        lambda present: strategy.map(lambda item: (item,)) if present else st.just(())
    )


def _prop_tests():
    literal = st.sampled_from(VALUES).map(ast.Literal)
    return _sometimes(st.tuples(st.just("p"), literal))


def _prop_binds():
    return _sometimes(st.tuples(st.just("p"), st.sampled_from(VALUE_VARS)))


@st.composite
def chains(draw):
    """Chains of 1-3 node patterns joined by edge patterns; node
    variables may repeat, edges may be anonymous."""
    length = draw(st.integers(0, 2))
    elements = []
    for index in range(length + 1):
        elements.append(ast.NodePattern(
            var=draw(st.sampled_from(NODE_VARS)),
            labels=draw(_label_groups(LABELS)),
            prop_tests=draw(_prop_tests()),
            prop_binds=draw(_prop_binds()),
        ))
        if index < length:
            elements.append(ast.EdgePattern(
                var=draw(st.sampled_from([None, f"e{index}"])),
                direction=draw(st.sampled_from([ast.OUT, ast.IN, ast.UNDIRECTED])),
                labels=draw(_label_groups(EDGE_LABELS)),
                prop_tests=draw(_prop_tests()),
                prop_binds=draw(_prop_binds()),
            ))
    return ast.Chain(tuple(elements))


@st.composite
def seeds(draw):
    """An input table over some of n0, x and an unrelated column s,
    with ABSENT cells (a value of 3 is in no property)."""
    columns = draw(st.lists(st.sampled_from(["n0", "x", "s"]), min_size=1,
                            unique=True))
    domain = {"n0": NODES, "x": VALUES + [3], "s": ["u", "v"]}
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        row = {}
        for column in columns:
            if draw(st.booleans()):
                row[column] = draw(st.sampled_from(domain[column]))
        rows.append(Binding(row))
    return BindingTable(columns, rows)


def _object_ok(graph, obj, pattern, values):
    if not all(
        any(l in graph.labels(obj) for l in group) for group in pattern.labels
    ):
        return False
    prop = graph.property(obj, "p")
    return all(test.value in prop for _, test in pattern.prop_tests) and all(
        values[var] in prop for _, var in pattern.prop_binds
    )


def _edge_ends_ok(graph, pattern, src, dst, edge):
    endpoints = graph.endpoints(edge)
    if pattern.direction == ast.OUT:
        return endpoints == (src, dst)
    if pattern.direction == ast.IN:
        return endpoints == (dst, src)
    return endpoints in ((src, dst), (dst, src))


def brute_force(graph, chain, seed=None):
    """Enumerate all satisfying assignments per the formal definition,
    joined with the compatible rows of *seed*."""
    node_patterns = chain.nodes()
    edge_patterns = chain.connectors()
    node_vars = list(dict.fromkeys(p.var for p in node_patterns))
    value_vars = list(dict.fromkeys(
        var for p in chain.elements for _, var in p.prop_binds
    ))
    matches = set()
    for node_choice in itertools.product(sorted(graph.nodes), repeat=len(node_vars)):
        nodes = dict(zip(node_vars, node_choice))
        edge_universe = sorted(graph.edges)
        for edge_choice in itertools.product(edge_universe, repeat=len(edge_patterns)):
            if not all(
                _edge_ends_ok(
                    graph, pattern, nodes[node_patterns[i].var],
                    nodes[node_patterns[i + 1].var], edge,
                )
                for i, (pattern, edge) in enumerate(zip(edge_patterns, edge_choice))
            ):
                continue
            for value_choice in itertools.product(VALUES, repeat=len(value_vars)):
                values = dict(zip(value_vars, value_choice))
                if not all(
                    _object_ok(graph, nodes[p.var], p, values) for p in node_patterns
                ) or not all(
                    _object_ok(graph, edge, p, values)
                    for p, edge in zip(edge_patterns, edge_choice)
                ):
                    continue
                binding = {**nodes, **values}
                binding.update(
                    (p.var, edge) for p, edge in zip(edge_patterns, edge_choice) if p.var
                )
                matches.add(Binding(binding))
    if seed is None:
        return matches
    return {
        row.merge(match) for row in seed for match in matches if row.compatible(match)
    }


def _parallel_graph():
    """a -> b twice (both ``k``, one also ``l``), b -> b once."""
    builder = GraphBuilder()
    for node in NODES[:2]:
        builder.add_node(node, properties={"p": VALUES})
    builder.add_edge("a", "b", edge_id="e0", labels=["k"], properties={"p": [1]})
    builder.add_edge("a", "b", edge_id="e1", labels=["k", "l"])
    builder.add_edge("b", "b", edge_id="e2", labels=["l"], properties={"p": VALUES})
    return builder.build()


def _chain(*elements):
    return ast.Chain(tuple(elements))


N0, N1 = ast.NodePattern(var="n0"), ast.NodePattern(var="n1")
#: an anonymous edge over parallel edges: the one row must not repeat
ANONYMOUS = _chain(N0, ast.EdgePattern(labels=(("k",),)), N1)
#: a repeated endpoint variable over a self-loop: both orientations
#: find the same edge
LOOP = _chain(N0, ast.EdgePattern(var="e0", direction=ast.UNDIRECTED), N0)
#: a bind on an input column with ABSENT cells: unroll or membership
BIND_X = _chain(ast.NodePattern(var="n0", prop_binds=(("p", "x"),)))


def _seed(columns, *rows):
    return BindingTable(columns, [Binding(row) for row in rows])


def _block(graph, chain):
    catalog = Catalog()
    catalog.register_graph("g", graph, default=True)
    return catalog, ast.MatchBlock((ast.PatternLocation(chain, "g"),), None)


@given(graphs(), chains())
@settings(max_examples=120, deadline=None)
def test_match_agrees_with_brute_force(graph, chain):
    catalog, block = _block(graph, chain)
    expected = brute_force(graph, chain)
    assert set(evaluate_block(block, EvalContext(catalog))) == expected
    assert set(evaluate_block(block, OracleContext(catalog))) == expected


@given(graphs(), chains(), seeds())
@example(_parallel_graph(), _chain(N0), _seed(["n0"], {}, {"n0": "a"}))
@example(_parallel_graph(), ANONYMOUS, _seed(["n1"], {"n1": "b"}))
@example(_parallel_graph(), LOOP, _seed(["s"], {"s": "u"}))
@example(_parallel_graph(), BIND_X, _seed(["n0", "x"], {"n0": "a"}, {"n0": "a", "x": 1}))
@settings(max_examples=80, deadline=None)
def test_seeded_match_agrees_with_brute_force(graph, chain, seed):
    catalog, block = _block(graph, chain)
    expected = brute_force(graph, chain, seed)
    engine = evaluate_block(block, EvalContext(catalog), seed=seed)
    assert set(engine) == expected
    assert len(engine) == len(expected)  # a set: no repeated row
    assert set(evaluate_block(block, OracleContext(catalog), seed=seed)) == expected
    again = evaluate_block(block, EvalContext(catalog), seed=seed)
    assert list(again.rows) == list(engine.rows)


@given(graphs(), chains())
@settings(max_examples=60, deadline=None)
def test_every_allowed_order_agrees_with_cost(graph, chain):
    catalog, block = _block(graph, chain)
    assert check_block_orders(block, EvalContext(catalog)) >= 1


@given(graphs(), chains())
@example(_parallel_graph(), ANONYMOUS)
@example(_parallel_graph(), LOOP)
@settings(max_examples=80, deadline=None)
def test_engine_matches_the_oracle_in_a_stable_order(graph, chain):
    """The columnar pipeline vs. the definitional oracle.

    Same binding set and the same columns, and the engine's row order is
    the same on every run, so everything downstream (pretty printing,
    group representatives, skolem generation) is deterministic.
    """
    catalog, block = _block(graph, chain)
    engine = evaluate_block(block, EvalContext(catalog))
    expected = evaluate_block(block, OracleContext(catalog))
    assert set(engine.columns) == set(expected.columns)
    assert set(engine) == set(expected)
    assert len(engine) == len(expected)  # a set: no repeated row
    assert list(evaluate_block(block, EvalContext(catalog)).rows) == list(engine.rows)
