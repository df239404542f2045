"""Property test: vectorized expression kernels vs. the interpreted oracle.

Random graphs carry properties spanning every literal type of Definition
2.1 — bool, int, float, str, ``Date`` — including multi-valued sets and
absent keys; random WHERE conditions and GROUP BY aggregations over them
must evaluate identically under the compiled kernels and the row-at-a-time
``ExpressionEvaluator``: exact table equality (rows, order, columns) for
the same atom order (columnar vs reference executor under the
syntax-order planner), set equality against the cost-planned default,
and raise-vs-succeed agreement when an expression can error.
"""

from hypothesis import given, settings, strategies as st

from repro import DEFAULT_CONFIG, NAIVE_CONFIG, ExecutionConfig, GCoreEngine
from repro.errors import EvaluationError
from repro.eval.context import EvalContext
from repro.eval.match import evaluate_match
from repro.eval.query import evaluate_statement
from repro.lang import ast
from repro.model.builder import GraphBuilder
from repro.model.values import Date
from repro.table import Table

NODES = ["a", "b", "c", "d", "e"]
LABELS = ["X", "Y"]
PROP_KEYS = ["p", "q"]

scalars = st.one_of(
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.5, 1.0, 2.5]),
    st.sampled_from(["s1", "s2", "s3"]),
    st.sampled_from([Date(2014, 1, 1), Date(2015, 6, 30), Date(2016, 12, 31)]),
)

prop_values = st.one_of(
    scalars,
    st.frozensets(scalars, min_size=2, max_size=3),
)


@st.composite
def graphs(draw):
    builder = GraphBuilder()
    for node in NODES:
        properties = {}
        for key in PROP_KEYS:
            if draw(st.booleans()):
                properties[key] = draw(prop_values)
        builder.add_node(
            node,
            labels=draw(st.sets(st.sampled_from(LABELS))),
            properties=properties,
        )
    count = draw(st.integers(0, 6))
    for index in range(count):
        builder.add_edge(
            draw(st.sampled_from(NODES)),
            draw(st.sampled_from(NODES)),
            edge_id=f"e{index}",
            labels=["k"],
            properties={"w": draw(st.integers(0, 3))},
        )
    return builder.build()


@st.composite
def predicates(draw):
    """Random WHERE conditions over n (and sometimes m)."""

    def leaf():
        variable = draw(st.sampled_from(["n", "m"]))
        kind = draw(st.sampled_from(["cmp", "label", "in", "size"]))
        prop = ast.Prop(ast.Var(variable), draw(st.sampled_from(PROP_KEYS)))
        if kind == "label":
            return ast.LabelTest(variable, (draw(st.sampled_from(LABELS)),))
        if kind == "in":
            return ast.Binary("in", ast.Literal(draw(scalars)), prop)
        if kind == "size":
            return ast.Binary(
                ">=",
                ast.FuncCall("size", (prop,)),
                ast.Literal(draw(st.integers(0, 2))),
            )
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        return ast.Binary(op, prop, ast.Literal(draw(scalars)))

    expr = leaf()
    for _ in range(draw(st.integers(0, 2))):
        connective = draw(st.sampled_from(["and", "or", "xor"]))
        other = leaf()
        if draw(st.booleans()):
            other = ast.Unary("not", other)
        expr = ast.Binary(connective, expr, other)
    return expr


#: Compiled kernels and the interpreted oracle under the same (syntax)
#: atom order, then the cost-planned default.
MODES = (ExecutionConfig(planner="naive"), NAIVE_CONFIG, DEFAULT_CONFIG)


def evaluate_modes(engine, clause):
    """The binding table under each of :data:`MODES`."""
    results = []
    for config in MODES:
        ctx = EvalContext(engine.catalog, config=config)
        try:
            results.append(evaluate_match(clause, ctx))
        except EvaluationError:
            results.append("error")
    return results


def make_engine(graph):
    engine = GCoreEngine()
    engine.register_graph("g", graph, default=True)
    return engine


@settings(max_examples=100, deadline=None)
@given(graphs(), predicates())
def test_where_parity(graph, predicate):
    engine = make_engine(graph)
    chain = ast.Chain((
        ast.NodePattern(var="n"),
        ast.EdgePattern(var=None, direction=ast.OUT, labels=(("k",),)),
        ast.NodePattern(var="m"),
    ))
    clause = ast.MatchClause(
        ast.MatchBlock((ast.PatternLocation(chain, None),), predicate)
    )
    fast, slow, cost = evaluate_modes(engine, clause)
    assert (fast == "error") == (slow == "error") == (cost == "error")
    if fast == "error":
        return
    # Same atom order -> exact parity; cost plan -> set parity. (An
    # empty table's columns depend on where evaluation short-circuited:
    # pushdown can empty the table before every atom has run.)
    assert not len(fast) or fast.columns == slow.columns
    assert list(fast.rows) == list(slow.rows)
    assert fast == cost


@settings(max_examples=100, deadline=None)
@given(
    graphs(),
    st.sampled_from(["count", "min", "max", "sum", "avg", "collect"]),
    st.booleans(),
    st.sampled_from(PROP_KEYS),
    st.sampled_from(PROP_KEYS),
)
def test_group_by_aggregate_parity(graph, aggregate, distinct, group_key, arg_key):
    engine = make_engine(graph)
    inner = "DISTINCT " if distinct else ""
    text = (
        f"SELECT n.{group_key} AS k, {aggregate}({inner}n.{arg_key}) AS v, "
        f"COUNT(*) AS c MATCH (n) GROUP BY n.{group_key}"
    )
    statement = engine.parse(text)
    results = []
    for config in MODES:
        ctx = EvalContext(engine.catalog, config=config)
        try:
            results.append(evaluate_statement(statement, ctx))
        except EvaluationError:
            results.append("error")
    fast, slow, cost = results
    assert (fast == "error") == (slow == "error") == (cost == "error")
    if fast == "error":
        return

    def typed(table: Table):
        return [
            tuple((type(cell).__name__, cell) for cell in row)
            for row in table.rows
        ]

    assert fast.columns == slow.columns == cost.columns
    assert typed(fast) == typed(slow) == typed(cost)


@settings(max_examples=60, deadline=None)
@given(graphs(), predicates())
def test_where_parity_single_node(graph, predicate):
    """Single-atom patterns: every pushable conjunct hits the probe."""
    engine = make_engine(graph)
    chain = ast.Chain((ast.NodePattern(var="n", labels=(("X",),)),))
    clause = ast.MatchClause(
        ast.MatchBlock((ast.PatternLocation(chain, None),), predicate)
    )
    fast, slow, cost = evaluate_modes(engine, clause)
    assert (fast == "error") == (slow == "error") == (cost == "error")
    if fast == "error":
        return
    assert not len(fast) or fast.columns == slow.columns
    assert list(fast.rows) == list(slow.rows)
    assert fast == cost


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_projection_parity(graph):
    """SELECT projection of every node property, all three modes."""
    engine = make_engine(graph)
    text = (
        "SELECT n.p AS p, n.q AS q, SIZE(n.p) AS sp, "
        "CASE WHEN n.p = n.q THEN 'eq' ELSE 'ne' END AS rel "
        "MATCH (n) ORDER BY p, q"
    )
    statement = engine.parse(text)
    tables = []
    for config in MODES:
        ctx = EvalContext(engine.catalog, config=config)
        tables.append(evaluate_statement(statement, ctx))
    first, second, third = tables
    assert first.columns == second.columns == third.columns
    typed = lambda t: [  # noqa: E731
        tuple((type(c).__name__, c) for c in row) for row in t.rows
    ]
    assert typed(first) == typed(second) == typed(third)
