"""EXP-E1 — expression-engine ablation: vectorized kernels vs. interpreted.

Three workloads exercise the expression-heavy paths the kernels vectorize:

* ``filter_heavy_match`` — a two-hop MATCH whose WHERE carries pushable
  single-variable conjuncts (probe filters) plus a join conjunct
  (post-atom filter),
* ``group_by_aggregate`` — GROUP BY with COUNT(*)/MIN/COUNT DISTINCT
  over per-group column slices,
* ``projection`` — batch SELECT projection with concatenation and CASE.

Each runs in two modes:

* ``vectorized`` — compiled kernels + predicate pushdown (default),
* ``naive``      — the full row-at-a-time reference pipeline
  (interpreted ``ExpressionEvaluator``, no pushdown).
"""

import pytest

from repro.config import DEFAULT_CONFIG, NAIVE_CONFIG
from repro.eval.context import EvalContext
from repro.eval.query import evaluate_statement

from .conftest import full_persons, sizes, snb_engine

FILTER_HEAVY = (
    "SELECT n.firstName AS fn, m.firstName AS mf "
    "MATCH (n:Person)-[:knows]->(m:Person) "
    "WHERE n.employer = 'Acme' AND m.lastName >= 'M' "
    "AND m.firstName < n.firstName"
)

GROUP_BY_AGGREGATE = (
    "SELECT n.employer AS emp, COUNT(*) AS c, MIN(n.firstName) AS lo, "
    "COUNT(DISTINCT n.lastName) AS dl "
    "MATCH (n:Person) GROUP BY n.employer"
)

PROJECTION = (
    "SELECT n.firstName + ' ' + n.lastName AS name, "
    "CASE WHEN n.employer = 'Acme' THEN 'acme' ELSE 'other' END AS kind "
    "MATCH (n:Person)"
)

MODE_CONFIGS = {
    "vectorized": DEFAULT_CONFIG,
    "naive": NAIVE_CONFIG,
}
MODES = tuple(MODE_CONFIGS)

PERSONS = sizes([full_persons(100)], [15])


def run_query(engine, statement, mode):
    ctx = EvalContext(engine.catalog, config=MODE_CONFIGS[mode])
    return evaluate_statement(statement, ctx)


@pytest.fixture(scope="module", params=PERSONS)
def engine(request):
    return snb_engine(request.param)


@pytest.mark.parametrize("mode", MODES)
def test_filter_heavy_match(benchmark, engine, mode):
    statement = engine.parse(FILTER_HEAVY)
    engine.graph("snb").statistics()  # statistics amortize; warm them
    table = benchmark(run_query, engine, statement, mode)
    assert table is not None


@pytest.mark.parametrize("mode", MODES)
def test_group_by_aggregate(benchmark, engine, mode):
    statement = engine.parse(GROUP_BY_AGGREGATE)
    engine.graph("snb").statistics()
    table = benchmark(run_query, engine, statement, mode)
    assert len(table) > 0


@pytest.mark.parametrize("mode", MODES)
def test_projection(benchmark, engine, mode):
    statement = engine.parse(PROJECTION)
    engine.graph("snb").statistics()
    table = benchmark(run_query, engine, statement, mode)
    assert len(table) > 0


@pytest.mark.parametrize("query", [FILTER_HEAVY, GROUP_BY_AGGREGATE, PROJECTION])
def test_modes_agree(snb_small, query):
    """Every mode must produce the identical table (typed cells)."""
    statement = snb_small.parse(query)
    results = [run_query(snb_small, statement, mode) for mode in MODES]
    reference = results[0]

    def typed(table):
        return [
            tuple((type(cell).__name__, cell) for cell in row)
            for row in table.rows
        ]

    for other in results[1:]:
        assert other.columns == reference.columns
        assert sorted(typed(other), key=repr) == sorted(
            typed(reference), key=repr
        )
