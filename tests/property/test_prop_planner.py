"""Property tests for the cost-based planner.

Pattern semantics is a join: the atom evaluation order can never change
the binding table, only its cost. For random small graphs and random
chains we check that both planner modes — cost-based (statistics) and
naive (syntax order) — agree with the definitional oracle, that planning is a
permutation (every atom scheduled exactly once), and that a connected
pattern is never planned through a cartesian product.
"""

from hypothesis import given, settings, strategies as st

from repro.catalog import Catalog
from repro.config import ExecutionConfig
from repro.eval.context import EvalContext
from repro.eval.match import block_atoms, evaluate_block
from repro.eval.planner import plan_atoms
from repro.fuzz.oracle import OracleContext
from repro.lang import ast
from repro.model.builder import GraphBuilder

NODES = ["a", "b", "c", "d", "e"]
LABELS = ["X", "Y", "Z"]
EDGE_LABELS = ["k", "l"]
PROPS = {"p": ["1", "2"], "q": ["1"]}


@st.composite
def graphs(draw):
    builder = GraphBuilder()
    for node in NODES:
        props = {}
        for key, values in PROPS.items():
            if draw(st.booleans()):
                props[key] = draw(st.sampled_from(values))
        builder.add_node(
            node,
            labels=draw(st.sets(st.sampled_from(LABELS))),
            properties=props,
        )
    for index in range(draw(st.integers(0, 8))):
        builder.add_edge(
            draw(st.sampled_from(NODES)),
            draw(st.sampled_from(NODES)),
            edge_id=f"e{index}",
            labels=[draw(st.sampled_from(EDGE_LABELS))],
        )
    return builder.build()


@st.composite
def chains(draw):
    """Random chains of 1-4 node patterns joined by labeled edges."""
    length = draw(st.integers(0, 3))
    node_vars = ["n0", "n1", "n2", "n3"][: length + 1]
    elements = []
    for index, var in enumerate(node_vars):
        labels = ()
        if draw(st.booleans()):
            labels = ((draw(st.sampled_from(LABELS)),),)
        prop_tests = ()
        if draw(st.booleans()):
            key = draw(st.sampled_from(sorted(PROPS)))
            prop_tests = ((key, ast.Literal(draw(st.sampled_from(PROPS[key])))),)
        elements.append(
            ast.NodePattern(var=var, labels=labels, prop_tests=prop_tests)
        )
        if index < length:
            edge_labels = ()
            if draw(st.booleans()):
                edge_labels = ((draw(st.sampled_from(EDGE_LABELS)),),)
            elements.append(
                ast.EdgePattern(
                    var=f"e{index}",
                    direction=draw(
                        st.sampled_from([ast.OUT, ast.IN, ast.UNDIRECTED])
                    ),
                    labels=edge_labels,
                )
            )
    return ast.Chain(tuple(elements))


def _evaluate(graph, chain, planner):
    """The binding set under *planner*, or the oracle's for None."""
    catalog = Catalog()
    catalog.register_graph("g", graph, default=True)
    if planner is None:
        ctx = OracleContext(catalog)
    else:
        ctx = EvalContext(catalog, config=ExecutionConfig(planner=planner))
    block = ast.MatchBlock((ast.PatternLocation(chain, "g"),), None)
    return set(evaluate_block(block, ctx))


@given(graphs(), chains())
@settings(max_examples=80, deadline=None)
def test_all_planner_modes_agree(graph, chain):
    """Both planner modes produce the oracle's binding set."""
    expected = _evaluate(graph, chain, None)
    assert _evaluate(graph, chain, "cost") == expected
    assert _evaluate(graph, chain, "naive") == expected


@given(graphs(), chains(), st.sets(st.sampled_from(["n0", "n1", "n2"])))
@settings(max_examples=80, deadline=None)
def test_ordering_is_a_permutation(graph, chain, bound):
    block = ast.MatchBlock((ast.PatternLocation(chain, None),), None)
    atoms = block_atoms(block, [graph])
    steps = plan_atoms(atoms, bound)
    assert sorted(id(s.atom) for s in steps) == sorted(map(id, atoms))
    assert all(s.estimate is not None and s.estimate >= 0.0 for s in steps)
    rows = 1.0
    for step in steps:
        rows *= step.estimate
        assert abs(step.rows - rows) <= 1e-9 * max(rows, 1.0)


@given(graphs(), st.lists(chains(), min_size=1, max_size=3))
@settings(max_examples=120, deadline=None)
def test_connected_patterns_never_take_an_avoidable_product(graph, chain_list):
    """Chains share n0..n3, so the block is one connected pattern: no
    step with factor > 1 is disconnected from the bound set while a
    connected atom remains — and the cost plan returns what syntax order
    returns."""
    block = ast.MatchBlock(
        tuple(ast.PatternLocation(chain, None) for chain in chain_list), None
    )
    atoms = block_atoms(block, [graph] * len(chain_list))
    steps = plan_atoms(atoms, set())
    bound = set()
    for index, step in enumerate(steps):
        binds = step.atom.binds()
        if bound and not binds & bound and step.estimate > 1:
            assert not any(s.atom.binds() & bound for s in steps[index:])
        bound |= binds

    def rows(planner):
        catalog = Catalog()
        catalog.register_graph("g", graph, default=True)
        ctx = EvalContext(catalog, config=ExecutionConfig(planner=planner))
        table = evaluate_block(block, ctx)
        return sorted(sorted(row.items()) for row in table)

    assert rows("cost") == rows("naive")
