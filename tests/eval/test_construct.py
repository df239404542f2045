"""Unit tests for CONSTRUCT semantics (Appendix A.3)."""

import pytest

from repro import GCoreEngine, GraphBuilder
from repro.datasets import load
from repro.errors import EvaluationError, SemanticError
from repro.eval.context import EvalContext
from repro.eval.query import evaluate_query


class TestBoundConstruction:
    def test_bound_node_keeps_identity_labels_props(self, engine):
        g = engine.run("CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'")
        assert g.nodes == {"john", "alice"}
        assert g.has_label("john", "Person")
        assert g.property("john", "firstName") == {"John"}
        assert g.edges == frozenset()

    def test_result_contains_only_constructed(self, engine):
        g = engine.run("CONSTRUCT (n) MATCH (n:Tag)")
        assert g.nodes == {"wagner"}

    def test_bound_node_grouping_dedupes(self, tiny_engine):
        # n appears once per outgoing edge, but is constructed once.
        g = tiny_engine.run("CONSTRUCT (n) MATCH (n:Start)-[e]->(m)")
        assert g.nodes == {"a"}

    def test_bound_edge_preserved(self, tiny_engine):
        g = tiny_engine.run("CONSTRUCT (a)-[e]->(b) MATCH (a)-[e:x]->(b)")
        assert g.edges == {"ab", "ac"}
        assert g.endpoints("ab") == ("a", "b")
        assert g.property("ab", "w") == {1}

    def test_bound_edge_endpoint_violation(self, tiny_engine):
        with pytest.raises(EvaluationError):
            tiny_engine.run("CONSTRUCT (b)-[e]->(a) MATCH (a)-[e:x]->(b)")

    def test_unbound_optional_var_contributes_nothing(self, tiny_engine):
        g = tiny_engine.run(
            "CONSTRUCT (c) MATCH (n:End) OPTIONAL (n)-[:x]->(c)"
        )
        assert g.is_empty()  # d has no outgoing x edge; c never bound


class TestUnboundConstruction:
    def test_new_node_per_binding(self, tiny_engine):
        g = tiny_engine.run("CONSTRUCT (x) MATCH (n:Mid)")
        assert len(g.nodes) == 2  # one fresh node per binding
        assert not (g.nodes & {"b", "c"})  # fresh identities

    def test_single_node_no_match_clause(self):
        eng = GCoreEngine()
        b = GraphBuilder()
        b.add_node("seed")
        eng.register_graph("g", b.build(), default=True)
        g = eng.run("CONSTRUCT (x:Fresh {name := 'only'})")
        assert len(g.nodes) == 1
        node = next(iter(g.nodes))
        assert g.has_label(node, "Fresh")
        assert g.property(node, "name") == {"only"}

    def test_group_by_value(self, engine):
        g = engine.run(
            "CONSTRUCT (x GROUP e :Company {name:=e}) MATCH (n:Person {employer=e})"
        )
        names = {next(iter(g.property(n, "name"))) for n in g.nodes}
        assert names == {"Acme", "HAL", "CWI", "MIT"}
        assert len(g.nodes) == 4

    def test_unbound_edge_grouped_by_endpoints(self, engine):
        g = engine.run(
            "CONSTRUCT (c)<-[y:worksAt]-(n) "
            "MATCH (c:Company) ON company_graph, "
            "(n:Person {employer=e}) ON social_graph WHERE c.name = e"
        )
        worksat = [e for e in g.edges if g.has_label(e, "worksAt")]
        assert len(worksat) == 5  # Frank gets two, one per company
        frank_edges = [e for e in worksat if g.endpoints(e)[0] == "frank"]
        assert len(frank_edges) == 2

    def test_skolem_ids_deterministic_within_query(self, tiny_engine):
        g = tiny_engine.run(
            "CONSTRUCT (x GROUP m)-[:made]->(y GROUP m) MATCH (n:Start)-[e]->(m)"
        )
        # x and y group identically, so each group's x == x, and the edge
        # connects two *distinct* fresh families.
        assert len(g.nodes) == 4 and len(g.edges) == 2

    @pytest.mark.parametrize("text, nodes", [
        (
            "(CONSTRUCT (x GROUP n.employer :A) MATCH (n:Person)) UNION "
            "(CONSTRUCT (y GROUP n.employer :B) MATCH (n:Person))",
            8,
        ),
        (  # one head; John and Alice both work at Acme
            "(CONSTRUCT (x GROUP n.employer :A) MATCH (n:Person) "
            "WHERE n.firstName = 'John') UNION "
            "(CONSTRUCT (x GROUP n.employer :A) MATCH (n:Person) "
            "WHERE n.firstName = 'Alice')",
            2,
        ),
    ], ids=["two-heads", "one-head"])
    def test_construct_clauses_never_share_skolem_ids(self, text, nodes):
        """Two CONSTRUCT operands of one statement that group alike are
        two sites, even with one head; the same text, run again, gives
        the same ids."""
        eng = GCoreEngine()
        load("paper").install(eng)
        g = eng.run(text)
        assert len(g.nodes) == nodes
        assert sorted(len(g.labels(n)) for n in g.nodes) == [1] * nodes
        eng.clear_plan_cache()
        assert eng.run(text) == g

    def test_multiple_unbound_occurrences_share_identity(self, tiny_engine):
        g = tiny_engine.run(
            "CONSTRUCT (x GROUP n :A)-[:self]->(x GROUP n) MATCH (n:Mid)"
        )
        # both ends of the edge are the same fresh node
        for e in g.edges:
            src, dst = g.endpoints(e)
            assert src == dst


class TestCopyConstruction:
    def test_node_copy_gets_new_identity(self, tiny_engine):
        g = tiny_engine.run("CONSTRUCT (=n) MATCH (n:Start)")
        assert len(g.nodes) == 1
        node = next(iter(g.nodes))
        assert node != "a"
        assert g.has_label(node, "Start")
        assert g.property(node, "name") == {"a"}

    def test_edge_copy_between_bound_nodes(self, tiny_engine):
        g = tiny_engine.run("CONSTRUCT (b)-[=e]->(a) MATCH (a)-[e:x]->(b)")
        assert len(g.edges) == 2
        for edge in g.edges:
            assert edge not in ("ab", "ac")  # fresh identities
            assert g.has_label(edge, "x")
            assert g.property(edge, "w") in ({1}, {2})

    def test_copy_in_match_rejected(self, tiny_engine):
        with pytest.raises(SemanticError):
            tiny_engine.bindings("MATCH (=n)")


class TestAssignments:
    def test_inline_property_assignment(self, tiny_engine):
        g = tiny_engine.run("CONSTRUCT (n {score := 10}) MATCH (n:Start)")
        assert g.property("a", "score") == {10}
        assert g.property("a", "name") == {"a"}  # original props kept

    def test_set_subclause(self, tiny_engine):
        g = tiny_engine.run("CONSTRUCT (n) SET n.extra := 1 + 1 MATCH (n:Start)")
        assert g.property("a", "extra") == {2}

    def test_set_label(self, tiny_engine):
        g = tiny_engine.run("CONSTRUCT (n) SET n:Promoted MATCH (n:Start)")
        assert g.labels("a") == {"Start", "Promoted"}

    def test_remove_property(self, tiny_engine):
        g = tiny_engine.run("CONSTRUCT (n) REMOVE n.name MATCH (n:Start)")
        assert g.property("a", "name") == frozenset()

    def test_remove_label(self, tiny_engine):
        g = tiny_engine.run("CONSTRUCT (n) REMOVE n:Start MATCH (n:Start)")
        assert g.labels("a") == frozenset()

    def test_set_does_not_modify_base_graph(self, tiny_engine):
        tiny_engine.run("CONSTRUCT (n) SET n.extra := 1 MATCH (n:Start)")
        base = tiny_engine.graph("tiny")
        assert base.property("a", "extra") == frozenset()

    def test_aggregate_in_assignment(self, tiny_engine):
        g = tiny_engine.run(
            "CONSTRUCT (n {fanout := COUNT(*)}) MATCH (n:Start)-[e]->(m)"
        )
        assert g.property("a", "fanout") == {2}

    def test_collect_assignment(self, tiny_engine):
        g = tiny_engine.run(
            "CONSTRUCT (n {targets := COLLECT(m.name)}) MATCH (n:Start)-[e]->(m)"
        )
        assert g.property("a", "targets") == {"b", "c"}


class TestWhen:
    def test_when_filters_groups(self, tiny_engine):
        g = tiny_engine.run(
            "CONSTRUCT (n)-[e:agg {c := COUNT(*)}]->(m) WHEN e.c > 1 "
            "MATCH (n:Start)-[x]->(mid)-[y]->(m)"
        )
        # a reaches d twice (via b and via c): count 2 -> kept
        assert len(g.edges) == 1
        edge = next(iter(g.edges))
        assert g.endpoints(edge) == ("a", "d")
        assert g.property(edge, "c") == {2}

    def test_when_false_drops_everything(self, tiny_engine):
        g = tiny_engine.run(
            "CONSTRUCT (n)-[e:agg]->(m) WHEN 1 > 2 MATCH (n)-[x]->(m)"
        )
        assert g.is_empty()

    def test_when_keeps_endpoints_of_survivors_only(self, tiny_engine):
        g = tiny_engine.run(
            "CONSTRUCT (n)-[e:f {w := m.name}]->(m) WHEN e.w = 'd' "
            "MATCH (n)-[x]->(m)"
        )
        assert g.nodes == {"b", "c", "d"}  # b->d and c->d survive


class TestGraphUnionShorthand:
    def test_union_with_base_graph(self, tiny_engine):
        g = tiny_engine.run("CONSTRUCT tiny, (n {extra := 1}) MATCH (n:Start)")
        assert g.nodes == {"a", "b", "c", "d"}
        assert g.property("a", "extra") == {1}
        assert g.property("a", "name") == {"a"}

    def test_multiple_items_union(self, tiny_engine):
        g = tiny_engine.run("CONSTRUCT (n), (m) MATCH (n:Start), (m:End)")
        assert g.nodes == {"a", "d"}


class TestStoredPathConstruct:
    def test_store_computed_walk(self, tiny_engine):
        g = tiny_engine.run(
            "CONSTRUCT (a)-/@p:route {hops := c}/->(d) "
            "MATCH (a:Start)-/p<:x :y> COST c/->(d:End)"
        )
        assert len(g.paths) == 1
        pid = next(iter(g.paths))
        assert g.has_label(pid, "route")
        assert g.property(pid, "hops") == {2}
        # constituent nodes and edges are projected in
        assert g.path_nodes(pid)[0] == "a" and g.path_nodes(pid)[-1] == "d"
        for edge in g.path_edges(pid):
            assert edge in g.edges

    def test_restore_existing_path(self, figure2_engine):
        g = figure2_engine.run(
            "CONSTRUCT (x)-/@p/->(y) MATCH (x)-/@p:toWagner/->(y)"
        )
        assert g.paths == {301}
        assert g.labels(301) == {"toWagner"}
        assert g.property(301, "trust") == {0.95}

    def test_bare_path_projects_only(self, tiny_engine):
        g = tiny_engine.run(
            "CONSTRUCT (a)-/p/->(d) MATCH (a:Start)-/p<:x :y>/->(d:End)"
        )
        assert g.paths == frozenset()
        assert "a" in g.nodes and "d" in g.nodes


class TestOverlayScope:
    """The overlay of elements under construction lives for one CONSTRUCT."""

    def test_minus_operand_does_not_see_the_left_constructs_assignments(self, engine):
        g = engine.run(
            "CONSTRUCT (n {bench:=1}) MATCH (n:Person) "
            "MINUS CONSTRUCT (m) MATCH (m:Person) WHERE m.bench = 1"
        )
        # the right operand alone is empty, so A.5 keeps all five persons
        assert g.nodes == {"john", "peter", "celine", "alice", "frank"}
        assert g.property("john", "bench") == {1}

    def test_graph_clause_does_not_leak_into_the_body(self, engine):
        table = engine.run(
            "GRAPH g AS (CONSTRUCT (n {bench:=1}) MATCH (n:Person)) "
            "SELECT COUNT(*) AS c MATCH (k:Person) ON social_graph "
            "WHERE k.bench = 1"
        )
        assert table.rows == ((0,),)

    def test_later_blocks_probe_the_value_index_again(self, engine):
        table = engine.run(
            "GRAPH g AS (CONSTRUCT (n {bench:=1}) MATCH (n:Person)) "
            "SELECT n.firstName AS f MATCH (n:Person) ON social_graph "
            "WHERE n.employer = 'Acme'"
        )
        assert sorted(table.rows) == [("Alice",), ("John",)]
        assert "employer" in engine.graph("social_graph").built_property_indexes()

    def test_when_subquery_sees_the_overlay(self, engine):
        g = engine.run(
            "CONSTRUCT (n {bench:=1}) WHEN EXISTS ("
            "SELECT k MATCH (k:Person) WHERE k = n AND k.bench = 1) "
            "MATCH (n:Person)"
        )
        assert len(g.nodes) == 5

    def test_construct_nested_in_when_does_not_leak_out(self, engine):
        g = engine.run(
            "CONSTRUCT (n) WHEN EXISTS ("
            "CONSTRUCT (k {flag := 1}) MATCH (k:Person) WHERE k = n) "
            "AND n.flag = 1 MATCH (n:Person)"
        )
        assert g.is_empty()


class TestIdentityItems:
    """A bound node item that adds nothing (``CONSTRUCT (n)``) adopts its
    column's distinct elements; it must answer what the general route,
    forced here by a ``WHEN TRUE``, answers."""

    @pytest.mark.parametrize(
        "match",
        [
            "MATCH (n:Person)",
            "MATCH (m:Person) OPTIONAL (m)-[:knows]->(n)",  # ABSENT cells
            "MATCH (n:Person)-[:knows]->(m)",  # repeated elements
        ],
    )
    def test_adoption_answers_the_general_route(self, engine, match):
        adopted = engine.run(f"CONSTRUCT (n) {match}")
        general = engine.run(f"CONSTRUCT (n) WHEN TRUE {match}")
        assert adopted == general
        home = engine.graph("social_graph")
        for obj in adopted.nodes:
            assert adopted._labels.get(obj) is home._labels.get(obj)
            assert adopted._props.get(obj) is home._props.get(obj)

    @pytest.mark.parametrize("path", ["p<:x :y>", "ALL p<:x :y>"])
    def test_a_path_variable_is_not_a_node(self, tiny_engine, path):
        with pytest.raises(SemanticError, match="variable 'p' is a path, not a node"):
            tiny_engine.run(f"CONSTRUCT (p) MATCH (a:Start)-/{path}/->(d:End)")

    def test_the_overlay_still_wins(self, engine):
        """Under a non-empty overlay (the state of a CONSTRUCT inside a
        WHEN subquery) an element under construction is adopted with the
        overlay's labels and properties, as on the general route."""

        def run(text):
            ctx = EvalContext(engine.catalog)
            ctx.overlay_labels = {"john": frozenset({"Bench"})}
            ctx.overlay_props = {"john": {"bench": frozenset({1})}}
            return evaluate_query(engine.parse(text), ctx)

        adopted = run("CONSTRUCT (n) MATCH (n:Person)")
        assert adopted == run("CONSTRUCT (n) WHEN TRUE MATCH (n:Person)")
        assert adopted.labels("john") == {"Bench"}
        assert adopted.property("john", "bench") == {1}
        assert adopted.property("alice", "firstName") == {"Alice"}

    def test_adoption_inside_a_when_subquery(self, engine):
        g = engine.run(
            "CONSTRUCT (n {bench:=1}) WHEN EXISTS ("
            "CONSTRUCT (n) MATCH (k:Person) WHERE k = n AND n.bench = 1) "
            "MATCH (n:Person)"
        )
        assert len(g.nodes) == 5
