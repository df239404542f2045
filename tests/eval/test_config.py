"""One engine mode: oracle parity, EXPLAIN, API plumbing, the two names.

Result parity of the engine, also with every block in syntax order,
with the oracle on the guided-tour statements, the EXPLAIN sketch, prepared and snapshot executions, and
what is left of :mod:`repro.config`: ``DEFAULT_CONFIG``, the only value
``EvalContext(config=...)`` accepts, and ``NAIVE_CONFIG``, which names
the oracle to ``run_case``.
"""

import pytest
from atom_orders import syntax_order_plans

from repro import GCoreEngine, ValidationError
from repro.catalog import Catalog
from repro.config import DEFAULT_CONFIG, NAIVE_CONFIG
from repro.datasets import company_graph, orders_table, social_graph
from repro.eval.context import EvalContext
from repro.fuzz import oracle
from repro.fuzz.differential import diff_outcomes, run_case

#: Guided-tour statements (Section 3) covering joins across graphs,
#: reachability / shortest / ALL paths, OPTIONAL, grouping and CONSTRUCT.
TOUR_STATEMENTS = [
    "CONSTRUCT (n) MATCH (n:Person) ON social_graph WHERE n.employer = 'Acme'",
    "CONSTRUCT (c)<-[:worksAt]-(n) MATCH (c:Company) ON company_graph, "
    "(n:Person) ON social_graph WHERE c.name = n.employer UNION social_graph",
    "SELECT c.name AS company, n.firstName AS first "
    "MATCH (c:Company) ON company_graph, (n:Person {employer=e}) "
    "ON social_graph WHERE c.name = e",
    "CONSTRUCT (n)-/@p:localPeople{distance:=c}/->(m) "
    "MATCH (n)-/3 SHORTEST p <:knows*> COST c/->(m) "
    "WHERE (n:Person) AND (m:Person) AND n.firstName = 'John'",
    "SELECT m.firstName AS first MATCH (n:Person)-/<:knows*>/->(m:Person) "
    "WHERE n.firstName = 'John' AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)",
    "CONSTRUCT (n)-/p/->(m) MATCH (n:Person)-/ALL p <:knows*>/->(m:Person) "
    "WHERE n.firstName = 'John' AND m.firstName = 'Celine'",
    "SELECT n.firstName AS first, t.name AS tag MATCH (n:Person) "
    "OPTIONAL (n)-[:hasInterest]->(t:Tag)",
    "SELECT n.employer AS employer, COUNT(*) AS staff MATCH (n:Person) "
    "GROUP BY n.employer",
]


def make_engine():
    engine = GCoreEngine()
    engine.register_graph("social_graph", social_graph(), default=True)
    engine.register_graph("company_graph", company_graph())
    engine.register_table("orders", orders_table())
    return engine


class TestOracleParity:
    @pytest.mark.parametrize("query", TOUR_STATEMENTS)
    def test_engine_returns_the_oracle_result(self, query):
        engine = make_engine()
        expected = run_case(engine, query, config=NAIVE_CONFIG)
        assert expected.kind in ("table", "graph"), expected
        actual = run_case(engine, query, config=DEFAULT_CONFIG)
        assert diff_outcomes(expected, actual) is None
        with syntax_order_plans():
            actual = run_case(engine, query, config=DEFAULT_CONFIG)
        assert diff_outcomes(expected, actual) is None


class TestExplain:
    QUERY = (
        "SELECT m.firstName AS first "
        "MATCH (n:Person)-[:knows]->(m:Person)-/p <:knows*>/->(o:Tag) "
        "WHERE n.firstName = 'John'"
    )

    def test_prints_no_config_line(self):
        text = make_engine().explain(self.QUERY)
        assert text.startswith("plan: cold\nSELECT\n")
        assert "config:" not in text

    def test_plan_pushes_down_and_batches_paths(self):
        text = make_engine().explain(self.QUERY)
        assert "pushed n.firstName = 'John' -> node(n) [index]" in text
        assert "strategy=bfs,batched" in text


class TestEnginePlumbing:
    def test_prepared_and_snapshot_runs_match_the_oracle(self):
        engine = make_engine()
        prepared = engine.prepare(
            "SELECT n.firstName MATCH (n:Person) ORDER BY n.firstName"
        )
        reference = prepared.run()
        assert oracle.run(engine, prepared.text).rows == reference.rows
        with engine.snapshot() as snapshot:
            assert snapshot.execute_prepared(prepared).rows == reference.rows
            assert snapshot.run(prepared.text).rows == reference.rows

    def test_refresh_view_full_recompute_is_a_keyword(self):
        engine = make_engine()
        engine.run(
            "GRAPH VIEW acme AS (CONSTRUCT (n) MATCH (n:Person) "
            "WHERE n.employer = 'Acme')"
        )
        incremental = engine.refresh_view("acme")
        full = engine.refresh_view("acme", incremental=False)
        assert incremental == full


class TestNaiveConfigIsRejected:
    """``NAIVE_CONFIG`` names the oracle: the evaluation context handed
    it, or any value but ``DEFAULT_CONFIG``, raises instead of quietly
    testing the engine against itself."""

    QUERY = "SELECT n.firstName AS first MATCH (n:Person)"

    def test_eval_context_accepts_only_the_default(self):
        assert EvalContext(Catalog(), config=DEFAULT_CONFIG).child()
        for other in (NAIVE_CONFIG, None, "naive", {"planner": "cost"}):
            with pytest.raises(ValidationError, match="DEFAULT_CONFIG"):
                EvalContext(Catalog(), config=other)

    def test_run_case_runs_the_oracle(self):
        engine = make_engine()
        outcome = run_case(engine, self.QUERY, config=NAIVE_CONFIG)
        assert outcome.kind == "table" and len(outcome.payload["rows"]) == 5
