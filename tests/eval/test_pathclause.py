"""PATH clause (weighted path views) tests — Appendix A.4."""

import pytest

from repro import GCoreEngine, GraphBuilder
from repro.fuzz import oracle
from repro.errors import CostError, UnknownPathViewError


@pytest.fixture()
def weighted_engine():
    """s->a->t (weights 1,1) and s->b->t (weights 10,10) over 'road' edges."""
    b = GraphBuilder()
    for n in "sabt":
        b.add_node(n, labels=["N"], properties={"name": n})
    b.add_edge("s", "a", edge_id="sa", labels=["road"], properties={"w": 1})
    b.add_edge("a", "t", edge_id="at", labels=["road"], properties={"w": 1})
    b.add_edge("s", "b", edge_id="sb", labels=["road"], properties={"w": 10})
    b.add_edge("b", "t", edge_id="bt", labels=["road"], properties={"w": 10})
    eng = GCoreEngine()
    eng.register_graph("roads", b.build(), default=True)
    return eng


class TestWeightedShortest:
    def test_weighted_route_choice(self, weighted_engine):
        g = weighted_engine.run(
            "PATH hop = (x)-[e:road]->(y) COST e.w "
            "CONSTRUCT (s)-/@p:best {c := c}/->(t) "
            "MATCH (s {name='s'})-/p<~hop*> COST c/->(t {name='t'})"
        )
        (pid,) = g.paths
        assert g.path_nodes(pid) == ("s", "a", "t")
        assert g.property(pid, "c") == {2.0}

    def test_unweighted_hops_would_tie(self, weighted_engine):
        # Without weights both routes cost 2 hops; lexicographic tie-break
        # picks the 'a' route deterministically.
        table = weighted_engine.bindings(
            "MATCH (s {name='s'})-/p<:road*> COST c/->(t {name='t'})"
        )
        (row,) = table.rows
        assert row["c"] == 2

    def test_cost_binds_weighted_value(self, weighted_engine):
        g = weighted_engine.run(
            "PATH hop = (x)-[e:road]->(y) COST e.w "
            "CONSTRUCT (s)-/@p {total := c}/->(b) "
            "MATCH (s {name='s'})-/p<~hop*> COST c/->(b {name='b'})"
        )
        (pid,) = g.paths
        assert g.property(pid, "total") == {10.0}

    def test_where_filter_in_path_clause(self, weighted_engine):
        # Exclude node b from traversal: only the a-route remains for t.
        g = weighted_engine.run(
            "PATH noB = (x)-[e:road]->(y) WHERE y.name <> 'b' "
            "CONSTRUCT (s)-/p/->(m) "
            "MATCH (s {name='s'})-/ALL p<~noB*>/->(m {name='t'})"
        )
        assert "sb" not in g.edges and "bt" not in g.edges
        assert "sa" in g.edges and "at" in g.edges

    def test_default_cost_is_hop_count(self, weighted_engine):
        g = weighted_engine.run(
            "PATH anyhop = (x)-[e:road]->(y) "
            "CONSTRUCT (s)-/@p {c := c}/->(t) "
            "MATCH (s {name='s'})-/p<~anyhop*> COST c/->(t {name='t'})"
        )
        (pid,) = g.paths
        assert g.property(pid, "c") == {2.0}


class TestCostValidation:
    def test_non_positive_cost_raises(self, weighted_engine):
        with pytest.raises(CostError):
            weighted_engine.run(
                "PATH bad = (x)-[e:road]->(y) COST e.w - 1 "
                "CONSTRUCT (n) MATCH (n)-/p<~bad*>/->(m)"
            )

    def test_non_numeric_cost_raises(self, weighted_engine):
        with pytest.raises(CostError):
            weighted_engine.run(
                "PATH bad = (x)-[e:road]->(y) COST 'cheap' "
                "CONSTRUCT (n) MATCH (n)-/p<~bad*>/->(m)"
            )

    def test_unknown_view_raises(self, weighted_engine):
        with pytest.raises(UnknownPathViewError):
            weighted_engine.bindings("MATCH (n)-/p<~mystery*>/->(m)")


class TestNonLinearPathClause:
    def test_second_chain_constrains(self, weighted_engine):
        # Only traverse road edges whose target also has an outgoing road
        # (footnote 3's non-linear pattern). From s we can step to a and b
        # (both lead on), but a->t / b->t steps are excluded (t is a sink),
        # so t is reachable only via... nothing with + (needs >=1 step).
        g = weighted_engine.run(
            "PATH mid = (x)-[e:road]->(y), (y)-[f:road]->(z) "
            "CONSTRUCT (m {via := 1}) "
            "MATCH (s {name='s'})-/p<~mid+>/->(m)"
        )
        assert {n for n in g.nodes} == {"a", "b"}

    def test_registered_path_view_via_engine(self, weighted_engine):
        weighted_engine.register_path_view(
            "PATH cheap = (x)-[e:road]->(y) COST e.w"
        )
        table = weighted_engine.bindings(
            "MATCH (s {name='s'})-/p<~cheap*> COST c/->(t {name='t'})"
        )
        assert table.rows[0]["c"] == 2.0
        # Every source at once: batched search == walk enumeration.
        every_pair = "MATCH (s)-/p<~cheap*> COST c/->(t)"
        assert set(weighted_engine.bindings(every_pair).rows) == set(
            oracle.bindings(weighted_engine, every_pair).rows
        )


class TestViewOverViews:
    def test_path_view_referencing_path_view(self, weighted_engine):
        g = weighted_engine.run(
            "PATH one = (x)-[e:road]->(y) COST e.w "
            "PATH two = (x)-/q<~one ~one>/->(y) "
            "CONSTRUCT (s)-/@p/->(t) "
            "MATCH (s {name='s'})-/p<~two> COST c/->(t {name='t'})"
        )
        (pid,) = g.paths
        assert g.path_nodes(pid) == ("s", "a", "t")


class TestViewSortCheck:
    def test_ill_sorted_exists_in_a_view_fails_at_registration(self, weighted_engine):
        """A catalog PATH view is sort-checked when registered, as a
        statement is when prepared; no run checks its EXISTS subquery."""
        from repro.errors import SemanticError

        with pytest.raises(SemanticError, match="both as node and as edge"):
            weighted_engine.register_path_view(
                "PATH bad = (x)-[e:road]->(y) "
                "WHERE EXISTS (CONSTRUCT (x) MATCH (x)-[x]->(m))"
            )
        assert weighted_engine.catalog.path_view("bad") is None


class TestViewScopes:
    def test_nested_views_with_one_name_keep_their_own_segments(self):
        """An inner ``PATH v`` must not answer the outer ``~v`` (or back)."""
        b = GraphBuilder()
        for n in "abc":
            b.add_node(n)
        b.add_edge("a", "b", edge_id="ab", labels=["k"])
        b.add_edge("b", "c", edge_id="bc", labels=["l"])
        eng = GCoreEngine()
        eng.register_graph("g", b.build(), default=True)
        query = (
            "PATH v = (s)-[:k]->(t) CONSTRUCT (x)-[:z]->(y) "
            "MATCH (x)-/<~v>/->(y) ON g, (a)-[:r]->(b) ON ("
            "PATH v = (s)-[:l]->(t) CONSTRUCT (s)-[:r]->(t) "
            "MATCH (s)-/<~v>/->(t) ON g)"
        )
        for g in (eng.run(query), oracle.run(eng, query)):
            z_edges = [g.endpoints(e) for e in g.edges if g.has_label(e, "z")]
            assert z_edges == [("a", "b")]

    def test_explain_reports_segment_scope(self, weighted_engine):
        weighted_engine.register_path_view("PATH cheap = (x)-[e:road]->(y) COST e.w")
        text = weighted_engine.explain(
            "PATH hop = (x)-[e:road]->(y) WHERE y.name <> $skip "
            "PATH two = (x)-/q<~cheap ~cheap>/->(y) "
            "SELECT c MATCH (s {name='s'})-/p<~cheap* ~hop? ~two?> COST c/->(t)"
        )
        lines = [line.strip() for line in text.splitlines() if "segments:" in line]
        assert lines == [
            "view cheap: segments: per epoch",
            "view hop: segments: per query ($param)",
            "view two: segments: per query (nested view)",
            # two's body, listed under its line, searches cheap too
            "view cheap: segments: per epoch",
        ]

    def test_explain_reports_per_query_chains(self, weighted_engine):
        weighted_engine.register_graph("other", GraphBuilder().build())
        view = "PATH hop = (x)-[e:road]->(y) COST e.w "
        route = "SELECT c MATCH (s)-/p<~hop*> COST c/->(t)"
        foreign = weighted_engine.explain(
            view + "SELECT c MATCH (s)-/p<~hop*> COST c/->(t), (u) ON other"
        )
        assert "view hop: segments: per query (foreign lookup chain)" in foreign
        assert "view hop: segments: per epoch" in weighted_engine.explain(view + route)
        exists = weighted_engine.explain(
            "PATH hop = (x)-[e:road]->(y) "
            "WHERE EXISTS (CONSTRUCT (z) MATCH (z {name='s'})) " + route
        )
        assert "view hop: segments: per query (subquery)" in exists
