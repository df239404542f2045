"""EXP-T1 / EXP-F4 / EXP-F5: the complete guided tour of Section 3.

Every numbered query of the paper is executed against the reconstructed
Figure 4 instance, and every result the paper spells out — binding
tables, result graphs, view contents, stored paths, the final
:wagnerFriend edge — is asserted exactly.
"""

import pytest

from repro import GCoreEngine
from repro.datasets import load


@pytest.fixture()
def tour():
    eng = GCoreEngine()
    load("paper").install(eng)
    return eng


class TestAlwaysReturningAGraph:
    """Lines 1-4: the simplest G-CORE query."""

    def test_acme_employees(self, tour):
        g = tour.run(
            "CONSTRUCT (n) MATCH (n:Person) ON social_graph "
            "WHERE n.employer = 'Acme'"
        )
        assert g.nodes == {"john", "alice"}
        assert g.edges == frozenset() and g.paths == frozenset()

    def test_labels_and_properties_preserved(self, tour):
        g = tour.run(
            "CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'"
        )
        assert g.has_label("john", "Person")
        assert g.property("john", "firstName") == {"John"}
        assert g.property("john", "lastName") == {"Doe"}
        assert g.property("alice", "employer") == {"Acme"}


class TestMultiGraphJoins:
    """Lines 5-19: data integration across two graphs."""

    def test_equi_join_binding_table(self, tour):
        # The paper's 3-row table: (#Acme,#Alice), (#HAL,#Celine),
        # (#Acme,#John). Frank fails the join; Peter has no employer.
        table = tour.bindings(
            "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph "
            "WHERE c.name = n.employer"
        )
        assert {(r["c"], r["n"]) for r in table} == {
            ("acme", "alice"), ("hal", "celine"), ("acme", "john"),
        }
        g = tour.run(
            "CONSTRUCT (c)<-[:worksAt]-(n) "
            "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph "
            "WHERE c.name = n.employer"
        )
        assert len(g.edges) == 3

    def test_cartesian_product_is_20_rows(self, tour):
        table = tour.bindings(
            "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph"
        )
        assert len(table) == 20  # 4 companies x 5 persons

    def test_in_rescues_frank(self, tour):
        table = tour.bindings(
            "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph "
            "WHERE c.name IN n.employer"
        )
        assert {(r["c"], r["n"]) for r in table} == {
            ("acme", "alice"), ("hal", "celine"), ("acme", "john"),
            ("cwi", "frank"), ("mit", "frank"),
        }

    def test_unrolled_binding_table(self, tour):
        # The paper's 5-row table with value variable e.
        table = tour.bindings(
            "MATCH (c:Company) ON company_graph, "
            "(n:Person {employer=e}) ON social_graph WHERE c.name = e"
        )
        assert {(r["c"], r["n"], r["e"]) for r in table} == {
            ("mit", "frank", "MIT"),
            ("cwi", "frank", "CWI"),
            ("acme", "alice", "Acme"),
            ("hal", "celine", "HAL"),
            ("acme", "john", "Acme"),
        }

    def test_worksat_union_graph(self, tour):
        g = tour.run(
            "CONSTRUCT (c)<-[:worksAt]-(n) "
            "MATCH (c:Company) ON company_graph, "
            "(n:Person) ON social_graph WHERE c.name IN n.employer "
            "UNION social_graph"
        )
        worksat = [e for e in g.edges if g.has_label(e, "worksAt")]
        assert len(worksat) == 5
        # the original graph is fully contained
        base = load("paper").graphs["social_graph"]
        assert base.nodes <= g.nodes and base.edges <= g.edges
        # Frank has exactly two worksAt edges, to CWI and MIT
        frank = {g.endpoints(e)[1] for e in worksat
                 if g.endpoints(e)[0] == "frank"}
        assert frank == {"cwi", "mit"}


class TestGraphAggregation:
    """Lines 20-22: GROUP creates one company per employer value."""

    def test_one_company_per_name(self, tour):
        g = tour.run(
            "CONSTRUCT social_graph, "
            "(x GROUP e :Company {name:=e})<-[y:worksAt]-(n) "
            "MATCH (n:Person {employer=e})"
        )
        companies = [n for n in g.nodes if g.has_label(n, "Company")]
        assert len(companies) == 4
        names = {next(iter(g.property(c, "name"))) for c in companies}
        assert names == {"Acme", "HAL", "CWI", "MIT"}

    def test_five_worksat_edges(self, tour):
        g = tour.run(
            "CONSTRUCT social_graph, "
            "(x GROUP e :Company {name:=e})<-[y:worksAt]-(n) "
            "MATCH (n:Person {employer=e})"
        )
        worksat = [e for e in g.edges if g.has_label(e, "worksAt")]
        assert len(worksat) == 5

    def test_without_group_one_company_per_binding(self, tour):
        # Footnote 2's warning: an unbound x without GROUP creates one
        # company per binding (5 bindings -> 5 nodes).
        g = tour.run(
            "CONSTRUCT (n)-[y:worksAt]->(x:Company {name:=e}) "
            "MATCH (n:Person {employer=e})"
        )
        companies = [n for n in g.nodes if g.has_label(n, "Company")]
        assert len(companies) == 5


class TestStoredPaths:
    """Lines 23-27: @p stores shortest paths with labels and properties."""

    def test_three_shortest_stored(self, tour):
        g = tour.run(
            "CONSTRUCT (n)-/@p:localPeople{distance:=c}/->(m) "
            "MATCH (n)-/3 SHORTEST p<:knows*> COST c/->(m) "
            "WHERE (n:Person) AND (m:Person) AND n.firstName = 'John' "
            "AND n.lastName = 'Doe' "
            "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)"
        )
        # every stored path carries the label and its hop-count distance
        assert g.paths
        for pid in g.paths:
            assert g.has_label(pid, "localPeople")
            (distance,) = g.property(pid, "distance")
            assert distance == g.path_length(pid)
        # at most 3 paths per (source, destination) pair
        from collections import Counter

        per_pair = Counter(
            (g.path_nodes(p)[0], g.path_nodes(p)[-1]) for p in g.paths
        )
        assert all(count <= 3 for count in per_pair.values())
        # John reaches Peter and Alice directly: shortest distance 1
        direct = [
            p for p in g.paths
            if g.path_nodes(p) == ("john", "peter")
        ]
        assert any(g.path_length(p) == 1 for p in direct)

    def test_result_is_projection_of_stored_paths(self, tour):
        g = tour.run(
            "CONSTRUCT (n)-/@p:localPeople/->(m) "
            "MATCH (n)-/p<:knows*>/->(m) "
            "WHERE (n:Person) AND (m:Person) AND n.firstName = 'John' "
            "AND n.lastName = 'Doe' "
            "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)"
        )
        # only nodes/edges on stored paths are present
        on_paths = set()
        for pid in g.paths:
            on_paths.update(g.path_nodes(pid))
            on_paths.update(g.path_edges(pid))
        assert g.nodes | g.edges == on_paths


class TestReachabilityAndAllPaths:
    """Lines 28-35."""

    def test_reachability(self, tour):
        g = tour.run(
            "CONSTRUCT (m) MATCH (n:Person)-/<:knows*>/->(m:Person) "
            "WHERE n.firstName = 'John' AND n.lastName = 'Doe' "
            "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)"
        )
        assert g.nodes == {"john", "alice", "peter", "celine", "frank"}

    def test_all_paths_projection(self, tour):
        g = tour.run(
            "CONSTRUCT (n)-/p/->(m) "
            "MATCH (n:Person)-/ALL p<:knows*>/->(m:Person) "
            "WHERE n.firstName = 'John' AND n.lastName = 'Doe' "
            "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)"
        )
        # all knows edges lie on some John->person walk
        knows = {e for e in g.edges if g.has_label(e, "knows")}
        assert len(knows) == 10
        assert g.paths == frozenset()


class TestExistentialSubqueries:
    """Lines 36-38: implicit and explicit existentials agree."""

    def test_equivalence(self, tour):
        implicit = tour.bindings(
            "MATCH (n:Person), (m:Person) "
            "WHERE (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)"
        )
        explicit = tour.bindings(
            "MATCH (n:Person), (m:Person) WHERE EXISTS ("
            "CONSTRUCT () "
            "MATCH (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m))"
        )
        assert implicit == explicit
        assert len(implicit) == 25
        fans = tour.run(
            "CONSTRUCT (n) MATCH (n:Person) WHERE EXISTS ("
            "CONSTRUCT () MATCH (n)-[:hasInterest]->(m))"
        )
        assert fans.nodes == {"celine", "frank"}


class TestFigure5Views:
    """Lines 39-47 and 57-66: social_graph1 and social_graph2."""

    EXPECTED_NR_MESSAGES = {
        ("john", "peter"): 2, ("peter", "john"): 2,
        ("peter", "frank"): 3, ("frank", "peter"): 3,
        ("peter", "celine"): 1, ("celine", "peter"): 1,
        ("celine", "frank"): 1, ("frank", "celine"): 1,
        ("john", "alice"): 0, ("alice", "john"): 0,
    }

    def define_view1(self, tour):
        tour.run(
            "GRAPH VIEW social_graph1 AS ("
            "CONSTRUCT social_graph, (n)-[e]->(m) "
            "SET e.nr_messages := COUNT(*) "
            "MATCH (n)-[e:knows]->(m) WHERE (n:Person) AND (m:Person) "
            "OPTIONAL (n)<-[c1]-(msg1:Post|Comment), "
            "(msg1)-[:reply_of]-(msg2), (msg2:Post|Comment)-[c2]->(m) "
            "WHERE (c1:has_creator) AND (c2:has_creator))"
        )
        return tour.graph("social_graph1")

    def define_view2(self, tour):
        self.define_view1(tour)
        tour.run(
            "GRAPH VIEW social_graph2 AS ("
            "PATH wKnows = (x)-[e:knows]->(y) "
            "WHERE NOT 'Acme' IN y.employer "
            "COST 1 / (1 + e.nr_messages) "
            "CONSTRUCT social_graph1, (n)-/@p:toWagner/->(m) "
            "MATCH (n:Person)-/p<~wKnows*>/->(m:Person) ON social_graph1 "
            "WHERE (m)-[:hasInterest]->(:Tag {name='Wagner'}) "
            "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m) "
            "AND n.firstName = 'John' AND n.lastName = 'Doe')"
        )
        return tour.graph("social_graph2")

    def test_nr_messages_values(self, tour):
        g1 = self.define_view1(tour)
        for edge in g1.edges_with_label("knows"):
            src, dst = g1.endpoints(edge)
            expected = self.EXPECTED_NR_MESSAGES[(src, dst)]
            assert g1.property(edge, "nr_messages") == {expected}, (src, dst)

    def test_view1_contains_base_graph(self, tour):
        g1 = self.define_view1(tour)
        base = load("paper").graphs["social_graph"]
        assert base.nodes <= g1.nodes and base.edges <= g1.edges

    def test_view1_does_not_modify_base(self, tour):
        self.define_view1(tour)
        base = tour.graph("social_graph")
        for edge in base.edges_with_label("knows"):
            assert base.property(edge, "nr_messages") == frozenset()

    def test_two_toWagner_paths_via_peter(self, tour):
        g2 = self.define_view2(tour)
        paths = g2.paths_with_label("toWagner")
        assert len(paths) == 2
        sequences = {g2.path_nodes(p) for p in paths}
        assert sequences == {
            ("john", "peter", "celine"),
            ("john", "peter", "frank"),
        }

    def test_final_wagner_friend_query(self, tour):
        """Lines 67-71: single :wagnerFriend edge John->Peter, score 2."""
        self.define_view2(tour)
        g = tour.run(
            "CONSTRUCT (n)-[e:wagnerFriend {score:=COUNT(*)}]->(m) "
            "WHEN e.score > 0 "
            "MATCH (n:Person)-/@p:toWagner/->(), (m:Person) ON social_graph2 "
            "WHERE m = nodes(p)[1]"
        )
        assert len(g.edges) == 1
        (edge,) = g.edges
        assert g.endpoints(edge) == ("john", "peter")
        assert g.has_label(edge, "wagnerFriend")
        assert g.property(edge, "score") == {2}
        assert g.nodes == {"john", "peter"}

    def test_paper_literal_where_yields_empty(self, tour):
        """The literal line 71 (n = nodes(p)[1]) yields the empty graph —
        a typo in the paper; the tour reads it as m = nodes(p)[1]."""
        self.define_view2(tour)
        g = tour.run(
            "CONSTRUCT (n)-[e:wagnerFriend {score:=COUNT(*)}]->(m) "
            "WHEN e.score > 0 "
            "MATCH (n:Person)-/@p:toWagner/->(), (m:Person) ON social_graph2 "
            "WHERE n = nodes(p)[1]"
        )
        assert g.is_empty()


class TestTabularExtensions:
    """Lines 72-85 (Section 5)."""

    def test_select_friend_names(self, tour):
        t = tour.run(
            "SELECT m.lastName + ', ' + m.firstName AS friendName "
            "MATCH (n:Person)-/<:knows*>/->(m:Person) "
            "WHERE n.firstName = 'John' AND n.lastName = 'Doe' "
            "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)"
        )
        assert t.columns == ("friendName",)
        assert set(t.column("friendName")) == {
            "Doe, John", "Hall, Alice", "Smith, Peter",
            "Mayer, Celine", "Gold, Frank",
        }

    def test_from_orders(self, tour):
        g = tour.run(
            "CONSTRUCT (cust GROUP custName :Customer {name:=custName}), "
            "(prod GROUP prodCode :Product {code:=prodCode}), "
            "(cust)-[:bought]->(prod) FROM orders"
        )
        assert len([n for n in g.nodes if g.has_label(n, "Customer")]) == 3
        assert len([n for n in g.nodes if g.has_label(n, "Product")]) == 3
        assert len(g.edges) == 6

    def test_on_orders(self, tour):
        g = tour.run(
            "CONSTRUCT (cust GROUP o.custName :Customer {name:=o.custName}), "
            "(prod GROUP o.prodCode :Product {code:=o.prodCode}), "
            "(cust)-[:bought]->(prod) MATCH (o) ON orders"
        )
        assert len([n for n in g.nodes if g.has_label(n, "Customer")]) == 3
        assert len(g.edges) == 6
