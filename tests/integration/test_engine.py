"""Engine-level integration tests: scripts, composability, explain."""

import pytest

from repro import GCoreEngine, GraphBuilder, ParseError, UnknownGraphError
from repro.datasets import social_graph
from repro.eval.query import ViewResult
from repro.model.io import dumps_graph, loads_graph


class TestEngineBasics:
    def test_first_graph_becomes_default(self):
        eng = GCoreEngine()
        b = GraphBuilder()
        b.add_node("n", labels=["X"])
        eng.register_graph("g1", b.build())
        table = eng.bindings("MATCH (n:X)")
        assert len(table) == 1

    def test_default_flag_overrides(self, engine):
        engine.set_default_graph("company_graph")
        g = engine.run("CONSTRUCT (c) MATCH (c:Company)")
        assert len(g.nodes) == 4

    def test_set_default_unknown(self, engine):
        with pytest.raises(UnknownGraphError):
            engine.set_default_graph("mystery")

    def test_run_accepts_parsed_statement(self, engine):
        statement = engine.parse("CONSTRUCT (n) MATCH (n:Tag)")
        g = engine.run(statement)
        assert g.nodes == {"wagner"}

    def test_graph_lookup(self, engine):
        assert engine.graph("social_graph").name == "social_graph"
        assert engine.table("orders").name == "orders"

    def test_parse_error_propagates(self, engine):
        with pytest.raises(ParseError):
            engine.run("CONSTRUCT MATCH")


class TestRunScript:
    def test_semicolon_separated(self, engine):
        results = engine.run_script(
            "GRAPH VIEW persons AS (CONSTRUCT (n) MATCH (n:Person)); "
            "CONSTRUCT (m) MATCH (m) ON persons WHERE m.employer = 'HAL'"
        )
        assert len(results) == 2
        assert isinstance(results[0], ViewResult)
        assert results[1].nodes == {"celine"}

    def test_single_statement_no_semicolon(self, engine):
        results = engine.run_script("CONSTRUCT (n) MATCH (n:Tag)")
        assert len(results) == 1

    def test_graph_view_clears_the_prepared_query_cache(self, engine):
        """A script statement takes the statement path of run: a GRAPH
        VIEW is a catalog mutation, so cached prepared queries go."""
        query = "SELECT n.firstName MATCH (n:Person)"
        engine.run(query)
        assert engine.is_plan_cached(query)
        engine.run_script("GRAPH VIEW v AS (CONSTRUCT (n) MATCH (n:Person))")
        assert not engine.is_plan_cached(query)


class TestComposabilityPipeline:
    """The paper's core claim: graphs in, graphs out, plug and play."""

    def test_three_stage_pipeline(self, engine):
        stage1 = engine.run(
            "CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'"
        )
        engine.register_graph("stage1", stage1)
        stage2 = engine.run(
            "CONSTRUCT (n {flag := TRUE}) MATCH (n) ON stage1"
        )
        engine.register_graph("stage2", stage2)
        stage3 = engine.run(
            "SELECT n.firstName AS f MATCH (n) ON stage2 "
            "WHERE n.flag = TRUE ORDER BY f"
        )
        assert list(stage3.column("f")) == ["Alice", "John"]

    def test_roundtrip_through_json(self, engine):
        g = engine.run("CONSTRUCT (n) MATCH (n:Person)")
        restored = loads_graph(dumps_graph(g))
        engine.register_graph("restored", restored)
        assert len(engine.bindings("MATCH (x) ON restored")) == 5

    def test_query_result_equals_inline_subquery(self, engine):
        twostep = engine.run(
            "CONSTRUCT (m) MATCH (m) ON "
            "(CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme')"
        )
        direct = engine.run(
            "CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'"
        )
        assert twostep == direct


class TestExplain:
    def test_explain_mentions_clauses(self, engine):
        text = engine.explain(
            "CONSTRUCT (c)<-[:worksAt]-(n) "
            "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph "
            "WHERE c.name IN n.employer"
        )
        assert "CONSTRUCT" in text
        assert "MATCH" in text
        assert "company_graph" in text

    def test_explain_view_statement(self, engine):
        text = engine.explain(
            "GRAPH VIEW v AS (CONSTRUCT (n) MATCH (n:Person))"
        )
        assert "CONSTRUCT" in text

    def test_explain_path_clause(self, engine):
        text = engine.explain(
            "PATH w = (x)-[e:knows]->(y) CONSTRUCT (n) MATCH (n)"
        )
        assert "PATH VIEW w" in text
