"""Property test: vectorized expression kernels vs. the interpreted oracle.

Random graphs carry properties spanning every literal type of Definition
2.1 — bool, int, float, str, ``Date`` — including multi-valued sets and
absent keys; the WHERE tests add ints past 2**53, NaN and digit strings.
WHERE comparisons put literals, parameters (bound to scalars or lists,
or missing) and list literals on either side. Random WHERE conditions,
SELECT projections and GROUP BY
aggregates over them must evaluate identically under the compiled
kernels of :mod:`repro.eval.kernels` and the row-at-a-time
``ExpressionEvaluator`` on the same rows and groups (the groups of a
test-local, definitional GROUP BY), raise-vs-succeed included; and whole
statements must answer what the definitional oracle of
:mod:`repro.fuzz.oracle` answers, with every block also in every allowed
atom order.
"""

import pytest
from atom_orders import check_block_orders, every_block_checked
from hypothesis import example, given, settings, strategies as st

from repro import GCoreEngine
from repro.errors import EvaluationError
from repro.eval.context import EvalContext
from repro.eval.expressions import ExpressionEvaluator
from repro.eval.kernels import (
    ExpressionCompiler,
    GroupSpec,
    KernelContext,
    compiled_filter_rows,
)
from repro.eval.match import evaluate_match
from repro.fuzz import oracle
from repro.lang import ast
from repro.model.builder import GraphBuilder
from repro.model.values import Date, gcore_equals

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

#: Where inline comparisons could part from ``gcore_equals`` /
#: ``gcore_compare``: ints past 2**53 (whose floats collide), NaN, a
#: digit string, ``TRUE`` beside ``1``.
NAN = float("nan")  # one object: G-CORE equality sees NaN = NaN by identity
edge_scalars = st.sampled_from([2 ** 53, 2 ** 53 + 1, float(2 ** 53), 2 ** 60, NAN, "1", True, 1])
wide_scalars = st.one_of(scalars, edge_scalars)
wide_prop_values = st.one_of(
    wide_scalars,
    st.frozensets(wide_scalars, min_size=2, max_size=3),
)

#: Bindings of ``$s`` (a scalar) and ``$l`` (a list); either may be
#: missing, like ``$missing`` always is.
param_maps = st.fixed_dictionaries(
    {}, optional={"s": wide_scalars, "l": st.lists(wide_scalars, max_size=3)}
)


@st.composite
def graphs(draw, values=prop_values):
    builder = GraphBuilder()
    for node in NODES:
        properties = {}
        for key in PROP_KEYS:
            if draw(st.booleans()):
                properties[key] = draw(values)
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
def constants(draw):
    """A literal, a parameter or a list literal: one value per query."""
    kind = draw(st.sampled_from(["literal", "param", "list"]))
    if kind == "literal":
        return ast.Literal(draw(wide_scalars))
    if kind == "param":
        return ast.Param(draw(st.sampled_from(["s", "l", "missing"])))
    items = draw(st.lists(wide_scalars, max_size=2))
    return ast.ListLiteral(tuple(ast.Literal(item) for item in items))


COMPARISONS = ["=", "<>", "<", "<=", ">", ">="]


@st.composite
def comparisons(draw, variable="n"):
    """``variable.key op constant``, the constant on either side."""
    op = draw(st.sampled_from(COMPARISONS))
    prop = ast.Prop(ast.Var(variable), draw(st.sampled_from(PROP_KEYS)))
    constant = draw(constants())
    if draw(st.booleans()):
        return ast.Binary(op, constant, prop)
    return ast.Binary(op, prop, constant)


@st.composite
def predicates(draw):
    """Random WHERE conditions over n (and sometimes m), and the
    parameters they run with."""

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
        return draw(comparisons(variable))

    expr = leaf()
    for _ in range(draw(st.integers(0, 2))):
        connective = draw(st.sampled_from(["and", "or", "xor"]))
        other = leaf()
        if draw(st.booleans()):
            other = ast.Unary("not", other)
        expr = ast.Binary(connective, expr, other)
    return expr, draw(param_maps)


def make_engine(graph):
    engine = GCoreEngine()
    engine.register_graph("g", graph, default=True)
    return engine


def typed(values):
    return [(type(value).__name__, value) for value in values]


def outcome(run):
    """*run()*, or "error" when it raises an EvaluationError."""
    try:
        return run()
    except EvaluationError:
        return "error"


def with_params(ctx, params):
    ctx.params = params
    return ctx


def check_where(graph, chain, drawn):
    predicate, params = drawn
    engine = make_engine(graph)
    location = ast.PatternLocation(chain, None)
    ctx = with_params(EvalContext(engine.catalog), params)
    omega = evaluate_match(ast.MatchClause(ast.MatchBlock((location,), None)), ctx)
    ev = ExpressionEvaluator(ctx)
    # The kernel and the interpreter on the same rows.
    kernel = outcome(lambda: compiled_filter_rows(omega, ctx, [predicate]))
    interpreted = outcome(lambda: [
        i for i, row in enumerate(omega.rows) if ev.evaluate_predicate(predicate, row)
    ])
    assert kernel == interpreted
    # The whole block, WHERE pushdown included, in every allowed order.
    clause = ast.MatchClause(ast.MatchBlock((location,), predicate))
    expected = outcome(
        lambda: evaluate_match(clause, with_params(oracle.OracleContext(engine.catalog), params))
    )

    def run():
        return evaluate_match(clause, with_params(EvalContext(engine.catalog), params))

    got = outcome(run)
    assert (got == "error") == (expected == "error")
    if got != "error":
        assert set(got) == set(expected)
        assert list(run().rows) == list(got.rows)
    assert check_block_orders(
        clause.block, with_params(EvalContext(engine.catalog), params)
    ) >= 1


@settings(max_examples=100, deadline=None)
@given(graphs(wide_prop_values), predicates())
def test_where_parity(graph, predicate):
    chain = ast.Chain((
        ast.NodePattern(var="n"),
        ast.EdgePattern(var=None, direction=ast.OUT, labels=(("k",),)),
        ast.NodePattern(var="m"),
    ))
    check_where(graph, chain, predicate)


def one_node(value):
    builder = GraphBuilder()
    builder.add_node("a", properties={"p": value})
    return builder.build()


N_P = ast.Prop(ast.Var("n"), "p")


@settings(max_examples=200, deadline=None)
@given(graphs(wide_prop_values), comparisons(), param_maps)
@example(one_node(NAN), ast.Binary("=", N_P, ast.Literal(NAN)), {})
@example(one_node(2 ** 53 + 1), ast.Binary("=", ast.Literal(float(2 ** 53)), N_P), {})
@example(one_node(True), ast.Binary("<>", N_P, ast.Literal(1)), {})
@example(one_node("1"), ast.Binary("<>", ast.Param("s"), N_P), {"s": 1})
@example(one_node(1), ast.Binary(">=", ast.Param("l"), N_P), {"l": [2.5]})
@example(one_node(-2), ast.Binary("=", N_P, ast.Unary("-", ast.Literal(2))), {})
@example(one_node(-2), ast.Binary("<", ast.Unary("-", ast.Literal(True)), N_P), {})
def test_constant_comparison_parity(graph, comparison, params):
    """One comparison against a constant, every node a row: the inline
    decisions meet every kind of stored value."""
    check_where(graph, ast.Chain((ast.NodePattern(var="n"),)), (comparison, params))


#: Members ``_plain`` admits (``-0.0`` beside ``0``, ``1.0`` beside ``1``,
#: the last int below 2**53) and members it refuses.
plain_members = st.one_of(
    st.integers(-2, 2),
    st.sampled_from([-0.0, 0.5, 1.0, 2 ** 53 - 1, float(2 ** 53)]),
    st.sampled_from(["s1", "s2", "1", ""]),
)
odd_members = st.sampled_from([2 ** 53, 2 ** 53 + 1, -2 ** 53, NAN, True, False, Date(2014, 1, 1)])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.frozensets(st.one_of(plain_members, odd_members), max_size=4), min_size=1, max_size=6),
    st.one_of(plain_members, odd_members),
    st.booleans(),
)
@example([frozenset({2 ** 53, 2 ** 53 + 1})], float(2 ** 53), False)  # they normalize alike
def test_value_sets_against_a_constant(value_sets, constant, constant_first):
    """Empty and many-valued sets of plain and other members against a
    constant, under every operator: the kernel's values are the
    interpreter's, row by row."""
    builder = GraphBuilder()
    for index, values in enumerate(value_sets):
        builder.add_node(f"v{index}", properties={"p": values})
    engine = make_engine(builder.build())
    ctx = EvalContext(engine.catalog)
    omega = evaluate_match(ast.MatchClause(ast.MatchBlock((
        ast.PatternLocation(ast.Chain((ast.NodePattern(var="n"),)), None),
    ))), ctx)
    ev = ExpressionEvaluator(ctx)
    sides = (ast.Literal(constant), N_P)
    for op in COMPARISONS:
        expr = ast.Binary(op, *(sides if constant_first else sides[::-1]))
        kernel = ExpressionCompiler(ctx).compile(expr)(KernelContext(omega, ctx), range(len(omega)))
        assert typed(kernel) == typed(ev.evaluate(expr, row) for row in omega.rows), op


def error_text(run):
    """The message *run()* raises, or None when it returns."""
    try:
        run()
    except EvaluationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize(
    "condition",
    [
        "$missing < n.p",
        "n.p < $missing",
        "n.p - 'x' < $missing",
        "$missing < n.p - 'x'",
        "[1, $missing] = n.p",
        "n.p = [$s, $missing]",
    ],
)
@pytest.mark.parametrize("nodes", [0, 2])
def test_constant_operand_error_parity(condition, nodes):
    """A constant operand runs once per batch, in the oracle's operand
    order: the kernel raises the interpreter's first error, and nothing
    over an empty batch."""
    builder = GraphBuilder()
    for index in range(nodes):
        builder.add_node(f"v{index}", properties={"p": 1})
    engine = make_engine(builder.build())
    match = engine.parse(f"SELECT n MATCH (n) WHERE {condition}").body.match
    ctx = with_params(EvalContext(engine.catalog), {"s": 1})
    omega = evaluate_match(ast.MatchClause(ast.MatchBlock(match.block.patterns)), ctx)
    ev = ExpressionEvaluator(ctx)
    predicate = match.block.where
    kernel = error_text(lambda: compiled_filter_rows(omega, ctx, [predicate]))
    interpreted = error_text(lambda: [ev.evaluate_predicate(predicate, row) for row in omega.rows])
    assert kernel == interpreted
    assert (kernel is None) == (nodes == 0)


def definitional_groups(omega, key, ev):
    """Test-local GROUP BY: row indices partitioned by Section 3's ``=``
    on the interpreted key values, in first-seen order."""
    groups = []
    for index, row in enumerate(omega.rows):
        value = ev.evaluate(key, row)
        for members in groups:
            if gcore_equals(ev.evaluate(key, omega.row_at(members[0])), value):
                members.append(index)
                break
        else:
            groups.append([index])
    return groups


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
    select = engine.parse(text).body.head
    ctx = EvalContext(engine.catalog)
    omega = evaluate_match(engine.parse(text).body.match, ctx)
    maxdom = omega.maximal_domain()
    ev = ExpressionEvaluator(ctx)
    groups = definitional_groups(omega, select.group_by[0], ev)
    kctx = KernelContext(omega, ctx, maximal_domain=maxdom)
    specs = [GroupSpec(indices[0], indices) for indices in groups]
    compiler = ExpressionCompiler(ctx)
    for item in select.items:
        kernel = outcome(lambda: compiler.compile_grouped(item.expr)(kctx, specs))
        interpreted = outcome(lambda: [
            ev.evaluate(
                item.expr, omega.row_at(indices[0]),
                group=omega.select_rows(indices), maximal_domain=maxdom,
            )
            for indices in groups
        ])
        assert (kernel == "error") == (interpreted == "error")
        if kernel != "error":
            assert typed(kernel) == typed(interpreted)
    # The whole statement: the engine's SELECT over its binding table and
    # over the oracle's.
    expected = outcome(lambda: oracle.run(engine, text))
    got = outcome(lambda: engine.run(text))
    assert (got == "error") == (expected == "error")
    if got != "error":
        assert got.columns == expected.columns
        assert [typed(row) for row in got.rows] == [typed(row) for row in expected.rows]


@settings(max_examples=60, deadline=None)
@given(graphs(wide_prop_values), predicates())
def test_where_parity_single_node(graph, predicate):
    """Single-atom patterns: every pushable conjunct hits the probe."""
    check_where(graph, ast.Chain((ast.NodePattern(var="n", labels=(("X",),)),)), predicate)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_projection_parity(graph):
    """SELECT projection of every node property: kernel vs interpreter per
    item on the same rows, then the whole statement vs the oracle."""
    engine = make_engine(graph)
    text = (
        "SELECT n.p AS p, n.q AS q, SIZE(n.p) AS sp, "
        "CASE WHEN n.p = n.q THEN 'eq' ELSE 'ne' END AS rel "
        "MATCH (n) ORDER BY p, q"
    )
    statement = engine.parse(text)
    ctx = EvalContext(engine.catalog)
    omega = evaluate_match(statement.body.match, ctx)
    ev = ExpressionEvaluator(ctx)
    kctx = KernelContext(omega, ctx)
    compiler = ExpressionCompiler(ctx)
    rows = list(range(len(omega)))
    for item in statement.body.head.items:
        kernel = compiler.compile(item.expr)(kctx, rows)
        assert typed(kernel) == typed(ev.evaluate(item.expr, row) for row in omega.rows)
    expected = oracle.run(engine, text)
    with every_block_checked():
        got = engine.run(text)
    assert got.columns == expected.columns
    assert [typed(row) for row in got.rows] == [typed(row) for row in expected.rows]
