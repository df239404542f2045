"""EXP-A1: the worked examples of Appendix A.

* A.2's MATCH example over the Figure 2 graph must produce exactly the
  single binding {x -> 105, y -> 102, w -> 106, z -> 301}.
* A.3's CONSTRUCT example (the worksAt graph with grouped companies).
"""

import pytest

from repro import GCoreEngine
from repro.datasets import load


@pytest.fixture()
def fig2():
    eng = GCoreEngine()
    load("figure2").install(eng)
    return eng


class TestMatchExample:
    """Appendix A.2's example:  x -locatedIn-> w, y -locatedIn-> w,
    x @z in (knows+knows-)* y  WHERE w.name = Houston."""

    QUERY = (
        "MATCH (x)-[:isLocatedIn]->(w), (y)-[:isLocatedIn]->(w), "
        "(x)-/@z/->(y) WHERE w.name = 'Houston'"
    )

    def test_single_binding(self, fig2):
        table = fig2.bindings(self.QUERY)
        assert len(table) == 1
        row = table.rows[0]
        assert row["x"] == 105
        assert row["y"] == 102
        assert row["w"] == 106
        assert row["z"] == 301

    def test_intermediate_located_in_join(self, fig2):
        # Jx -locatedIn-> wK = {{x105,w106},{x102,w106},{x103,w104}}
        table = fig2.bindings("MATCH (x)-[:isLocatedIn]->(w)")
        assert {(r["x"], r["w"]) for r in table} == {
            (105, 106), (102, 106), (103, 104),
        }

    def test_without_where_same_single_binding(self, fig2):
        # In the example the Houston filter happens to keep the only row.
        unfiltered = fig2.bindings(
            "MATCH (x)-[:isLocatedIn]->(w), (y)-[:isLocatedIn]->(w), "
            "(x)-/@z/->(y)"
        )
        assert len(unfiltered) == 1

    def test_computed_variant_matches_regex(self, fig2):
        # The same endpoints are connected by a (knows|knows^)* walk.
        table = fig2.bindings(
            "MATCH (x {firstName='Erik'})-/<(:knows|:knows^)*>/->(y {firstName='Clara'})"
        )
        assert len(table) == 1


class TestConstructExample:
    """Appendix A.3's example: f = (x GROUP e; +x:Company, +x.name=e),
    g = (n GROUP n), h = edge worksAt — evaluated over Figure 4 data."""

    @pytest.fixture()
    def eng(self):
        eng = GCoreEngine()
        load("paper").install(eng)
        return eng

    def test_resulting_graph_shape(self, eng):
        g = eng.run(
            "CONSTRUCT (x GROUP e :Company {name:=e})<-[y:worksAt]-(n) "
            "MATCH (n:Person {employer=e})"
        )
        companies = {n for n in g.nodes if g.has_label(n, "Company")}
        persons = g.nodes - companies
        assert len(companies) == 4
        assert persons == {"john", "alice", "celine", "frank"}
        assert len(g.edges) == 5

    def test_person_labels_and_props_carried(self, eng):
        g = eng.run(
            "CONSTRUCT (x GROUP e :Company {name:=e})<-[y:worksAt]-(n) "
            "MATCH (n:Person {employer=e})"
        )
        assert g.has_label("john", "Person")
        assert g.property("john", "firstName") == {"John"}

    def test_company_names(self, eng):
        g = eng.run(
            "CONSTRUCT (x GROUP e :Company {name:=e})<-[y:worksAt]-(n) "
            "MATCH (n:Person {employer=e})"
        )
        names = sorted(
            next(iter(g.property(n, "name")))
            for n in g.nodes if g.has_label(n, "Company")
        )
        assert names == ["Acme", "CWI", "HAL", "MIT"]

    def test_frank_connects_to_both(self, eng):
        g = eng.run(
            "CONSTRUCT (x GROUP e :Company {name:=e})<-[y:worksAt]-(n) "
            "MATCH (n:Person {employer=e})"
        )
        frank_targets = {
            next(iter(g.property(g.endpoints(e)[1], "name")))
            for e in g.edges if g.endpoints(e)[0] == "frank"
        }
        assert frank_targets == {"CWI", "MIT"}
