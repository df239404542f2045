"""Property tests for the cost-based planner.

Pattern semantics is a join: the atom evaluation order can never change
the binding table, only its cost. For random small graphs and random
chains we check that the cost plan agrees with the definitional oracle,
and so does every other order the planner may choose (syntax order
included), that planning is a permutation (every atom scheduled exactly
once), and that a connected pattern is never planned through a
cartesian product.
"""

from atom_orders import check_block_orders, connected_orders, row_multiset
from hypothesis import given, settings, strategies as st

from repro.catalog import Catalog
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
def chains(draw, max_edges=3, reads_row=False):
    """Random chains of 1 to *max_edges* + 1 node patterns joined by
    labeled edges; with *reads_row*, a node's pattern test may read the
    previous node's property (the planner pins such an atom)."""
    length = draw(st.integers(0, max_edges))
    node_vars = ["n0", "n1", "n2", "n3"][: length + 1]
    elements = []
    for index, var in enumerate(node_vars):
        labels = ()
        if draw(st.booleans()):
            labels = ((draw(st.sampled_from(LABELS)),),)
        prop_tests = ()
        if draw(st.booleans()):
            key = draw(st.sampled_from(sorted(PROPS)))
            value = ast.Literal(draw(st.sampled_from(PROPS[key])))
            if reads_row and index and draw(st.booleans()):
                value = ast.Prop(ast.Var(node_vars[index - 1]), key)
            prop_tests = ((key, value),)
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


@st.composite
def wheres(draw, chain):
    """None, or a conjunction over the chain's node variables: a constant
    test (pushed to a probe), a label test and a two-variable join
    (applied after the step that binds both)."""
    names = [e.var for e in chain.elements if isinstance(e, ast.NodePattern)]
    conjuncts = []
    if draw(st.booleans()):
        conjuncts.append(ast.Binary(
            "=", ast.Prop(ast.Var(draw(st.sampled_from(names))), "p"), ast.Literal("1")
        ))
    if draw(st.booleans()):
        conjuncts.append(ast.LabelTest(draw(st.sampled_from(names)), (draw(st.sampled_from(LABELS)),)))
    if len(names) > 1 and draw(st.booleans()):
        left, right = draw(st.permutations(names))[:2]
        conjuncts.append(ast.Binary(
            "=", ast.Prop(ast.Var(left), "p"), ast.Prop(ast.Var(right), "q")
        ))
    where = None
    for conjunct in conjuncts:
        where = conjunct if where is None else ast.Binary("and", where, conjunct)
    return where


def _context(graph, oracle=False):
    catalog = Catalog()
    catalog.register_graph("g", graph, default=True)
    return OracleContext(catalog) if oracle else EvalContext(catalog)


def _evaluate(graph, chain, oracle=False):
    """The engine's binding set, or the oracle's."""
    block = ast.MatchBlock((ast.PatternLocation(chain, "g"),), None)
    return set(evaluate_block(block, _context(graph, oracle)))


@given(graphs(), chains())
@settings(max_examples=80, deadline=None)
def test_cost_plan_agrees_with_the_oracle(graph, chain):
    assert _evaluate(graph, chain) == _evaluate(graph, chain, oracle=True)


@given(graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_every_allowed_order_agrees_with_the_oracle(graph, data):
    """Chains of up to 5 atoms, some pinned, under a random WHERE: every
    allowed order returns the cost plan's rows, and they are the
    oracle's."""
    chain = data.draw(chains(max_edges=2, reads_row=True))
    block = ast.MatchBlock(
        (ast.PatternLocation(chain, "g"),), data.draw(wheres(chain))
    )
    assert check_block_orders(block, _context(graph)) >= 1
    assert row_multiset(evaluate_block(block, _context(graph))) == row_multiset(
        evaluate_block(block, _context(graph, oracle=True))
    )


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
    and sampled connected orders return."""
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

    assert check_block_orders(block, _context(graph), orders=connected_orders) >= 1
