"""EXP-B1 — planner ablation: cost-based vs. naive.

DESIGN.md calls out atom ordering as a design choice; this bench
quantifies it across both planner modes:

* ``cost``  — the statistics-driven cardinality estimator (default),
* ``naive`` — pure syntax order on the reference column (the ablation
  baseline).

The triangle-ish pattern below begins, in syntax order, with an
unlabeled unconstrained node scan; the cost-based planner instead starts
from the selective Tag lookup and sizes the two edge expansions against
the graph's degree statistics. The naive ordering is expected to lose by
a growing factor.
"""

import pytest

from repro.config import DEFAULT_CONFIG, NAIVE_CONFIG
from repro.eval.context import EvalContext
from repro.eval.match import evaluate_match
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser

from .conftest import sizes, snb_engine

QUERY = (
    "MATCH (m), (n:Person)-[:hasInterest]->(t:Tag {name='Wagner'}), "
    "(n)-[:knows]->(m) WHERE (m:Person)"
)

PERSONS = sizes([50, 100], [15])

MODE_CONFIGS = {
    "cost": DEFAULT_CONFIG,
    "naive": NAIVE_CONFIG,
}
MODES = tuple(MODE_CONFIGS)


def _match_clause(text):
    parser = Parser(tokenize(text))
    clause = parser._match_clause()
    parser.expect_eof()
    return clause


def run_match(engine, clause, mode):
    ctx = EvalContext(engine.catalog, config=MODE_CONFIGS[mode])
    return evaluate_match(clause, ctx)


@pytest.mark.parametrize("persons", PERSONS)
def test_cost_based_planner(benchmark, persons):
    engine = snb_engine(persons)
    clause = _match_clause(QUERY)
    engine.graph("snb").statistics()  # statistics are amortized; warm them
    table = benchmark(run_match, engine, clause, "cost")
    assert table is not None


@pytest.mark.parametrize("persons", PERSONS)
def test_naive_syntax_order(benchmark, persons):
    engine = snb_engine(persons)
    clause = _match_clause(QUERY)
    table = benchmark(run_match, engine, clause, "naive")
    assert table is not None


@pytest.mark.parametrize("mode", MODES)
def test_orders_agree(snb_small, mode):
    """Every planner mode must produce the identical binding table."""
    clause = _match_clause(QUERY)
    assert run_match(snb_small, clause, mode) == run_match(
        snb_small, clause, "naive"
    )
