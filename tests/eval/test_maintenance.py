"""View maintenance: strategy analysis, freshness, patching, atomicity."""

import gc
import weakref

import pytest

from repro import GCoreEngine, GraphBuilder, GraphDelta
from repro.datasets import load
from repro.errors import SemanticError, UnknownGraphError
from repro.eval.maintenance import analyze_view, describe_strategy
from repro.eval.planner import PlanCache


def chain_graph():
    b = GraphBuilder(name="base")
    for i in range(6):
        b.add_node(f"n{i}", labels=["Person"], properties={"score": i})
    for i in range(5):
        b.add_edge(f"n{i}", f"n{i + 1}", edge_id=f"e{i}", labels=["knows"])
    b.add_edge("n0", "n3", edge_id="x0", labels=["likes"])
    return b.build()


def reversed_chain_graph():
    """Another graph for the name ``base``: the chain reversed, new
    scores, and the ``likes`` edge moved."""
    b = GraphBuilder(name="base")
    for i in range(5):
        b.add_node(f"n{i}", labels=["Person"], properties={"score": 4 - i})
    for i in range(4):
        b.add_edge(f"n{i + 1}", f"n{i}", edge_id=f"r{i}", labels=["knows"])
    b.add_edge("n4", "n1", edge_id="x1", labels=["likes"])
    return b.build()


@pytest.fixture()
def eng():
    engine = GCoreEngine()
    engine.register_graph("base", chain_graph(), default=True)
    return engine


IDENTITY_VIEW = (
    "GRAPH VIEW v AS (CONSTRUCT (a)-[e]->(b) MATCH (a:Person)-[e:knows]->(b))"
)


def oracle(engine, body):
    fresh = GCoreEngine()
    fresh.register_graph("base", engine.graph("base"), default=True)
    return fresh.run(body)


class TestStrategyAnalysis:
    def analyze(self, eng, text):
        statement = eng.parse(text)
        return analyze_view(statement.query, eng.catalog)

    def test_identity_view_is_incremental(self, eng):
        plan = self.analyze(eng, IDENTITY_VIEW)
        assert plan.strategy == "incremental"
        assert plan.base == "base"
        assert plan.deps == ("base",)
        assert plan.node_vars == ("a", "b")
        assert plan.items == ((("a", "b"), ("e",)),)

    @pytest.mark.parametrize(
        "text, needle",
        [
            ("GRAPH VIEW v AS (CONSTRUCT (a) MATCH (a)-/p<:knows*>/->(b))",
             "path pattern"),
            ("GRAPH VIEW v AS (CONSTRUCT (a)-[e]->(b) SET e.c := COUNT(*) "
             "MATCH (a)-[e:knows]->(b))", "non-identity"),
            ("GRAPH VIEW v AS (CONSTRUCT (a) MATCH (a:Person) "
             "OPTIONAL (a)-[e:knows]->(b))", "OPTIONAL"),
            ("GRAPH VIEW v AS (CONSTRUCT (a) MATCH (a:Person) "
             "WHERE (a)-[:likes]->(:Person))", "pattern predicate"),
            ("GRAPH VIEW v AS (CONSTRUCT (c) MATCH (a:Person) ON base, (c) "
             "ON company_graph)", "multiple graphs"),
            ("GRAPH VIEW v AS (CONSTRUCT (a) MATCH (a)-[:knows]->())",
             "anonymous node"),
            ("GRAPH VIEW v AS (CONSTRUCT (a), base MATCH (a:Person))",
             "graph union"),
            ("GRAPH VIEW v AS (CONSTRUCT (x) MATCH (a)-[e:knows]->(b))",
             "non-identity"),
            ("GRAPH VIEW v AS (CONSTRUCT (a) MATCH (a)-[e:knows]-(b))",
             "undirected"),
            ("GRAPH VIEW v AS (base UNION base)", "set operation"),
            ("GRAPH VIEW v AS (GRAPH g AS (CONSTRUCT (a) MATCH (a)) "
             "CONSTRUCT (m) MATCH (m) ON g)", "head"),
        ],
    )
    def test_fallback_reasons(self, eng, text, needle):
        eng.register_graph("company_graph", chain_graph())
        plan = self.analyze(eng, text)
        assert plan.strategy == "full"
        assert needle in plan.reason
        assert needle in describe_strategy(plan)

    def test_trailing_on_scopes_the_pattern_list(self, eng):
        # Both patterns read company_graph (the block's first ON), as
        # execution matches them: one base graph, not the default too.
        eng.register_graph("company_graph", chain_graph())
        plan = self.analyze(
            eng, "GRAPH VIEW v AS (CONSTRUCT (c) MATCH (c:Company), (d:Company) "
            "ON company_graph)"
        )
        assert plan.strategy == "incremental"
        assert plan.base == "company_graph"
        assert plan.deps == ("company_graph",)
        assert not plan.uses_default

    def test_view_over_view_falls_back(self, eng):
        eng.run(IDENTITY_VIEW)
        plan = self.analyze(
            eng, "GRAPH VIEW w AS (CONSTRUCT (a) MATCH (a) ON v)"
        )
        assert plan.strategy == "full"
        assert "mutable base graph" in plan.reason

    def test_explain_reports_strategy(self, eng):
        sketch = eng.explain(IDENTITY_VIEW)
        assert "view maintenance: incremental" in sketch
        sketch = eng.explain(
            "GRAPH VIEW v AS (CONSTRUCT (a) MATCH (a:Person) "
            "OPTIONAL (a)-[e:knows]->(b))"
        )
        assert "view maintenance: full recompute" in sketch


class TestIncrementalMaintenance:
    """Each write leaves the view equal to its body re-run on the base."""

    BODY = "CONSTRUCT (a)-[e]->(b) MATCH (a:Person)-[e:knows]->(b)"

    def check(self, eng):
        got = eng.graph("v")
        assert got == oracle(eng, self.BODY)
        return got

    def test_insertions(self, eng):
        eng.run(IDENTITY_VIEW)
        eng.apply_update(
            "base",
            GraphDelta()
            .add_node("n9", labels=["Person"])
            .add_edge("k9", "n9", "n0", labels=["knows"]),
        )
        got = self.check(eng)
        assert "n9" in got.nodes

    def test_removals_with_shared_support(self, eng):
        eng.run(IDENTITY_VIEW)
        # n1 participates in e0 (as target) and e1 (as source): removing
        # e0 must keep n1 alive through e1's support.
        eng.apply_update("base", GraphDelta().remove_edge("e0"))
        got = self.check(eng)
        assert "n1" in got.nodes and "e0" not in got.edges

    def test_property_and_label_changes_propagate(self, eng):
        eng.run(IDENTITY_VIEW)
        eng.apply_update(
            "base",
            GraphDelta()
            .set_property("n2", "score", 99)
            .add_label("e1", "strong"),
        )
        got = self.check(eng)
        assert got.property("n2", "score") == frozenset({99})
        assert got.has_label("e1", "strong")

    def test_where_filter_gains_and_loses_rows(self, eng):
        body = (
            "CONSTRUCT (a)-[e]->(b) MATCH (a)-[e:knows]->(b) "
            "WHERE a.score = 0"
        )
        eng.run(f"GRAPH VIEW v AS ({body})")
        assert eng.graph("v").edges == frozenset({"e0"})
        eng.apply_update(
            "base",
            GraphDelta()
            .set_property("n0", "score", 1)
            .set_property("n3", "score", 0),
        )
        assert eng.graph("v") == oracle(eng, body)
        assert eng.graph("v").edges == frozenset({"e3"})

    def test_successive_deltas(self, eng):
        eng.run(IDENTITY_VIEW)
        eng.apply_update("base", GraphDelta().add_node("m1", labels=["Person"]))
        self.check(eng)
        eng.apply_update(
            "base", GraphDelta().add_edge("me", "m1", "n4", labels=["knows"])
        )
        self.check(eng)
        eng.apply_update("base", GraphDelta().remove_node("n0"))
        got = self.check(eng)
        assert "me" in got.edges and "n0" not in got.nodes

    def test_node_removal_drops_cascaded_edges(self, eng):
        eng.run(IDENTITY_VIEW)
        eng.apply_update("base", GraphDelta().remove_node("n2"))
        got = self.check(eng)
        assert "n2" not in got.nodes
        assert "e1" not in got.edges and "e2" not in got.edges

    def test_update_of_another_graph_leaves_the_view_alone(self, eng):
        eng.register_graph("other", chain_graph())
        eng.run(IDENTITY_VIEW)
        before, epoch = eng.graph("v"), eng.catalog.epoch("v")
        eng.apply_update("other", GraphDelta().remove_edge("e1"))
        assert eng.graph("v") is before
        assert eng.catalog.epoch("v") == epoch

    def test_delta_patches_instead_of_recomputing(self, eng, monkeypatch):
        from repro.eval import maintenance

        eng.run(IDENTITY_VIEW)
        monkeypatch.setattr(maintenance, "evaluate_view", None)
        eng.apply_update("base", GraphDelta().remove_edge("e1"))
        self.check(eng)

    @pytest.mark.parametrize(
        "delta",
        [
            GraphDelta().add_node("q", labels=["Person"]),
            GraphDelta().add_edge("k", "n5", "n0", labels=["knows"]),
            GraphDelta().remove_node("n3"),
            GraphDelta().remove_edge("e2"),
            GraphDelta().set_property("n1", "score", 42),
            GraphDelta().remove_property("n1", "score"),
            GraphDelta().add_label("n1", "VIP"),
            GraphDelta().remove_label("n1", "Person"),
            GraphDelta().add_label("x0", "knows"),
            GraphDelta().remove_label("e3", "knows"),
        ],
        ids=["add_node", "add_edge", "remove_node", "remove_edge",
             "set_property", "remove_property", "add_node_label",
             "remove_node_label", "add_edge_label", "remove_edge_label"],
    )
    def test_every_delta_kind_is_patched(self, eng, monkeypatch, delta):
        from repro.eval import maintenance

        eng.run(IDENTITY_VIEW)
        monkeypatch.setattr(maintenance, "evaluate_view", None)
        eng.apply_update("base", delta)
        self.check(eng)

    def test_empty_delta_keeps_the_view_equal(self, eng):
        eng.run(IDENTITY_VIEW)
        before = eng.graph("v")
        eng.apply_update("base", GraphDelta())
        assert self.check(eng) == before

    def test_one_delta_with_many_changes(self, eng):
        eng.run(IDENTITY_VIEW)
        eng.apply_update(
            "base",
            GraphDelta()
            .remove_edge("e0")
            .remove_node("n5")
            .add_node("m", labels=["Person"], properties={"score": 7})
            .add_edge("me", "m", "n1", labels=["knows"])
            .add_label("x0", "knows")
            .set_property("n2", "score", -1),
        )
        got = self.check(eng)
        assert {"me", "x0"} <= got.edges
        assert "e0" not in got.edges and "n5" not in got.nodes

    def test_negative_support_raises(self, eng):
        eng.run(IDENTITY_VIEW)
        eng.catalog.view_meta("v").state.support.clear()
        with pytest.raises(RuntimeError, match="went negative"):
            eng.apply_update("base", GraphDelta().remove_edge("e1"))
        assert "e1" in eng.graph("base").edges

    def test_base_replacement_recomputes(self, eng):
        eng.run(IDENTITY_VIEW)
        b = GraphBuilder()
        b.add_node("z1", labels=["Person"])
        b.add_node("z2", labels=["Person"])
        b.add_edge("z1", "z2", edge_id="ez", labels=["knows"])
        eng.register_graph("base", b.build(), default=True)
        got = eng.graph("v")
        assert got.nodes == {"z1", "z2"} and got.edges == {"ez"}

    def test_incremental_after_base_replacement_keeps_working(self, eng):
        eng.run(IDENTITY_VIEW)
        b = GraphBuilder()
        for n in ("z1", "z2", "z3"):
            b.add_node(n, labels=["Person"])
        b.add_edge("z1", "z2", edge_id="ez", labels=["knows"])
        eng.register_graph("base", b.build(), default=True)
        eng.apply_update(
            "base", GraphDelta().add_edge("ez2", "z2", "z3", labels=["knows"])
        )
        got = self.check(eng)
        assert "ez2" in got.edges


class TestFreshness:
    """A view is fresh at every epoch of what it reads."""

    def test_reregistered_base_recomputes_dependents(self):
        """Regression: re-registering a base graph used to leave a
        dependent view serving its old materialization."""
        engine = GCoreEngine()
        engine.register_graph("base", load("paper").graphs["social_graph"], default=True)
        engine.run(
            "GRAPH VIEW persons AS (CONSTRUCT (n) MATCH (n:Person) ON base)"
        )
        assert len(engine.graph("persons").nodes) == 5
        shrunk = engine.run(
            "CONSTRUCT (n) MATCH (n:Person) ON base WHERE n.employer = 'Acme'"
        )
        engine.register_graph("base", shrunk)
        assert len(engine.graph("persons").nodes) == 2

    def test_apply_update_refreshes_query_results(self):
        """Regression: MATCH ... ON v used to read the materialization
        from before the update."""
        engine = GCoreEngine()
        engine.register_graph("paper", load("paper").graphs["social_graph"], default=True)
        engine.run("GRAPH VIEW v AS (CONSTRUCT (n) MATCH (n:Person))")
        count = "SELECT COUNT(*) AS c MATCH (n:Person) ON v"
        assert engine.run(count).rows == ((5,),)
        engine.apply_update(
            "paper", GraphDelta().add_node("q", labels=["Person"])
        )
        assert engine.run(count).rows == ((6,),)

    def test_view_over_view_follows_its_base(self, eng):
        eng.run(IDENTITY_VIEW)
        eng.run("GRAPH VIEW w AS (CONSTRUCT (x) MATCH (x) ON v "
                "WHERE x.score > 3)")
        assert eng.graph("w").nodes == {"n4", "n5"}
        epochs = eng.catalog.epoch("v"), eng.catalog.epoch("w")
        eng.apply_update("base", GraphDelta().set_property("n1", "score", 7))
        assert eng.graph("w").nodes == {"n1", "n4", "n5"}
        assert (eng.catalog.epoch("v"), eng.catalog.epoch("w")) == (
            epochs[0] + 1, epochs[1] + 1
        )

    def test_redefined_view_recomputes_its_readers(self, eng):
        eng.run("GRAPH VIEW v AS (CONSTRUCT (a) MATCH (a:Person))")
        eng.run("GRAPH VIEW w AS (CONSTRUCT (x) MATCH (x) ON v)")
        assert len(eng.graph("w").nodes) == 6
        eng.run("GRAPH VIEW v AS (CONSTRUCT (a) MATCH (a:Person) "
                "WHERE a.score = 0)")
        assert eng.graph("w").nodes == {"n0"}

    def test_view_cycles_are_rejected(self, eng):
        eng.run("GRAPH VIEW v AS (CONSTRUCT (a) MATCH (a:Person))")
        eng.run("GRAPH VIEW w AS (CONSTRUCT (x) MATCH (x) ON v)")
        before = eng.graph("v")
        for text in ("GRAPH VIEW v AS (CONSTRUCT (a) MATCH (a) ON w)",
                     "GRAPH VIEW v AS (CONSTRUCT (a) MATCH (a) ON v)"):
            with pytest.raises(SemanticError, match="cycle"):
                eng.run(text)
            assert eng.graph("v") is before

    def test_redefined_path_view_recomputes_its_readers(self):
        """Regression: redefining a PATH view left the GRAPH VIEWs whose
        regexes name it serving their old materialization."""
        b = GraphBuilder(name="g")
        for i in range(3):
            b.add_node(f"p{i}", labels=["Person"])
        b.add_edge("p0", "p1", edge_id="k", labels=["knows"])
        b.add_edge("p1", "p2", edge_id="l", labels=["likes"])
        engine = GCoreEngine()
        engine.register_graph("g", b.build(), default=True)
        engine.register_path_view("PATH w = (x)-[e:knows]->(y)")
        body = "CONSTRUCT (a)-[:r]->(c) MATCH (a)-/<~w*>/->(c) WHERE a <> c"
        engine.run(f"GRAPH VIEW v AS ({body})")
        assert engine.graph("v").nodes == {"p0", "p1"}
        epochs = engine.catalog.epoch("v"), engine.catalog.epoch("g")
        engine.register_path_view("PATH w = (x)-[e:likes]->(y)")
        assert engine.graph("v").nodes == {"p1", "p2"}
        assert engine.graph("v") == engine.run(body).with_name("v")
        # the path view's epoch is its own: the graph's did not move
        assert engine.catalog.path_view_epoch("w") == 2
        assert (engine.catalog.epoch("v"), engine.catalog.epoch("g")) == (
            epochs[0] + 1, epochs[1]
        )
        assert engine.catalog.view_meta("v").plan.path_deps == ("w",)

    def test_path_view_deps_follow_nested_path_views(self, eng):
        eng.register_path_view("PATH u = (x)-[e:knows]->(y)")
        eng.register_path_view("PATH w = (x)-/p<~u ~u>/->(y)")
        eng.run("GRAPH VIEW v AS (CONSTRUCT (a) MATCH (a)-/<~w>/->(c))")
        assert eng.graph("v").nodes == {f"n{i}" for i in range(4)}
        eng.register_path_view("PATH u = (x)-[e:likes]->(y)")
        assert eng.graph("v").nodes == set()
        assert eng.catalog.view_meta("v").plan.path_deps == ("u", "w")

    def test_table_reregistration_recomputes_dependents(self, eng):
        from repro.table import Table

        eng.register_table("t", Table(("a",), [(1,), (2,)]))
        eng.run("GRAPH VIEW tv AS (CONSTRUCT (r) MATCH (r) ON t)")
        assert len(eng.graph("tv").nodes) == 2
        eng.register_table("t", Table(("a",), [(1,), (2,), (3,)]))
        assert len(eng.graph("tv").nodes) == 3

    def test_default_pointer_move_recomputes_onless_views(self, eng):
        """Regression: an ON-less view resolves through the default-graph
        pointer, so moving the pointer changes what it reads."""
        eng.register_graph("other", GraphBuilder(name="other").build())
        eng.run("GRAPH VIEW dv AS (CONSTRUCT (a)-[e]->(b) "
                "MATCH (a)-[e:knows]->(b))")
        eng.run("GRAPH VIEW qv AS (CONSTRUCT (a)-[e]->(b) "
                "MATCH (a)-[e:knows]->(b) ON base)")
        qv = eng.graph("qv")
        eng.set_default_graph("other")
        assert eng.graph("dv").is_empty()
        assert eng.catalog.view_meta("dv").plan.base == "other"
        # ON-qualified views are immune to the pointer move
        assert eng.graph("qv") is qv
        # and the re-analyzed plan keeps the view incremental on 'other'
        eng.apply_update(
            "other",
            GraphDelta()
            .add_node("o1").add_node("o2")
            .add_edge("oe", "o1", "o2", labels=["knows"]),
        )
        assert eng.graph("dv").edges == {"oe"}


FULL_BODIES = {
    "optional": "CONSTRUCT (a)-[f]->(c) MATCH (a:Person) "
                "OPTIONAL (a)-[f:likes]->(c)",
    "group_by": "CONSTRUCT (a)-[e]->(b) SET e.cnt := COUNT(*) "
                "MATCH (a)-[e:knows]->(b)",
    "path": "CONSTRUCT (a) MATCH (a)-/p<:knows*>/->(b) WHERE b.score > 3",
    "pattern_predicate": "CONSTRUCT (a) MATCH (a:Person) "
                         "WHERE (a)-[:likes]->(:Person)",
    "set_operation": "base UNION base",
}


class TestFullRecomputeViews:
    """Views outside the incremental fragment are recomputed by every
    write to their base, deltas and replacements alike."""

    @pytest.mark.parametrize("write", ["apply_update", "register_graph"])
    @pytest.mark.parametrize("kind", sorted(FULL_BODIES))
    def test_view_equals_its_body_after_the_write(self, eng, kind, write):
        body = FULL_BODIES[kind]
        eng.run(f"GRAPH VIEW v AS ({body})")
        assert eng.catalog.view_meta("v").plan.strategy == "full"
        epoch = eng.catalog.epoch("v")
        if write == "apply_update":
            eng.apply_update(
                "base",
                GraphDelta()
                .add_node("q", labels=["Person"], properties={"score": 9})
                .add_edge("qk", "n5", "q", labels=["knows"])
                .add_edge("ql", "n2", "q", labels=["likes"])
                .remove_edge("x0"),
            )
        else:
            eng.register_graph("base", reversed_chain_graph(), default=True)
        assert eng.graph("v") == oracle(eng, body)
        assert eng.catalog.epoch("v") > epoch


class TestAtomicWrites:
    """A write whose view maintenance raises leaves the catalog as it was."""

    @pytest.fixture()
    def failing(self, eng, monkeypatch):
        from repro.eval import maintenance

        eng.register_graph("other", chain_graph())
        eng.run("GRAPH VIEW v1 AS (CONSTRUCT (a) MATCH (a:Person) "
                "OPTIONAL (a)-[e:likes]->(b))")
        eng.run("GRAPH VIEW v2 AS (CONSTRUCT (x) MATCH (x) ON v1)")
        real = maintenance.evaluate_view
        calls = []

        def second_raises(query, ctx):
            calls.append(query)
            if len(calls) % 2 == 0:
                raise RuntimeError("refresh failed")
            return real(query, ctx)

        monkeypatch.setattr(maintenance, "evaluate_view", second_raises)
        return eng

    @pytest.mark.parametrize("write", ["apply_update", "register_graph",
                                       "set_default_graph", "graph_view"])
    def test_failed_write_changes_nothing(self, failing, monkeypatch, write):
        eng = failing
        catalog = eng.catalog
        base = catalog.graph("base")
        views = catalog.graph("v1"), catalog.graph("v2")
        queries = catalog.view_query("v1"), catalog.view_query("v2")
        epochs = {name: catalog.epoch(name)
                  for name in ("base", "other", "v1", "v2")}
        with pytest.raises(RuntimeError, match="refresh failed"):
            if write == "apply_update":
                eng.apply_update("base", GraphDelta().add_node("q"))
            elif write == "register_graph":
                eng.register_graph("base", chain_graph())
            elif write == "set_default_graph":
                eng.set_default_graph("other")
            else:
                eng.run("GRAPH VIEW v1 AS (CONSTRUCT (a) MATCH (a:Person) "
                        "WHERE a.score = 0)")
        assert eng.catalog is catalog
        assert catalog.graph("base") is base
        assert catalog.default_graph_name == "base"
        assert catalog.graph("v1") is views[0]
        assert catalog.graph("v2") is views[1]
        assert (catalog.view_query("v1"), catalog.view_query("v2")) == queries
        assert {name: catalog.epoch(name) for name in epochs} == epochs
        monkeypatch.undo()
        eng.apply_update("base", GraphDelta().add_node("q", labels=["Person"]))
        assert "q" in eng.catalog.graph("v2").nodes


    def test_failed_table_write_changes_nothing(self, eng, monkeypatch):
        from repro.eval import maintenance
        from repro.table import Table

        table = Table(("a",), [(1,), (2,)])
        eng.register_table("t", table)
        eng.run("GRAPH VIEW tv AS (CONSTRUCT (r) MATCH (r) ON t)")
        eng.run("GRAPH VIEW tw AS (CONSTRUCT (x) MATCH (x) ON tv)")
        catalog = eng.catalog
        before = catalog.table("t"), catalog.graph("tv"), catalog.graph("tw")
        epochs = {name: catalog.epoch(name) for name in ("t", "tv", "tw")}
        real, calls = maintenance.evaluate_view, []

        def second_raises(query, ctx):
            calls.append(query)
            if len(calls) == 2:
                raise RuntimeError("refresh failed")
            return real(query, ctx)

        monkeypatch.setattr(maintenance, "evaluate_view", second_raises)
        with pytest.raises(RuntimeError, match="refresh failed"):
            eng.register_table("t", Table(("a",), [(1,), (2,), (3,)]))
        assert eng.catalog is catalog
        after = catalog.table("t"), catalog.graph("tv"), catalog.graph("tw")
        assert all(old is new for old, new in zip(before, after))
        assert {name: catalog.epoch(name) for name in epochs} == epochs
        eng.register_table("t", Table(("a",), [(1,), (2,), (3,)]))
        assert len(eng.catalog.graph("tw").nodes) == 3

    def test_cycle_rejection_changes_nothing(self, eng):
        eng.run("GRAPH VIEW v AS (CONSTRUCT (a) MATCH (a:Person))")
        eng.run("GRAPH VIEW w AS (CONSTRUCT (x) MATCH (x) ON v)")
        catalog = eng.catalog
        state = {name: (catalog.graph(name), catalog.view_query(name),
                        catalog.epoch(name)) for name in ("v", "w")}
        with pytest.raises(SemanticError, match="cycle"):
            eng.run("GRAPH VIEW v AS (CONSTRUCT (a) MATCH (a) ON w)")
        assert eng.catalog is catalog
        assert {name: (catalog.graph(name), catalog.view_query(name),
                       catalog.epoch(name)) for name in ("v", "w")} == state
        eng.apply_update("base", GraphDelta().add_node("q", labels=["Person"]))
        assert "q" in eng.catalog.graph("w").nodes


class TestCommitScope:
    """Which names a write publishes, and what it leaves alone."""

    def test_writes_without_views_skip_view_maintenance(self, eng,
                                                        monkeypatch):
        from repro.eval import maintenance

        monkeypatch.setattr(maintenance, "commit_with_views", None)
        eng.apply_update("base", GraphDelta().add_node("q"))
        eng.register_graph("other", chain_graph())
        eng.set_default_graph("other")
        assert "q" in eng.graph("base").nodes

    def test_register_graph_bumps_only_its_readers(self, eng):
        eng.register_graph("other", chain_graph())
        eng.run(IDENTITY_VIEW)
        eng.run("GRAPH VIEW ov AS (CONSTRUCT (a) MATCH (a:Person) ON other)")
        v, ov = eng.graph("v"), eng.graph("ov")
        epochs = eng.catalog.epoch("v"), eng.catalog.epoch("ov")
        eng.register_graph("other", reversed_chain_graph())
        assert eng.graph("v") is v
        assert eng.catalog.epoch("v") == epochs[0]
        assert eng.graph("ov") is not ov
        assert eng.catalog.epoch("ov") == epochs[1] + 1
        assert eng.graph("ov").nodes == reversed_chain_graph().nodes

    def test_default_pointer_move_bumps_only_onless_views(self, eng):
        eng.register_graph("other", reversed_chain_graph())
        eng.run("GRAPH VIEW dv AS (CONSTRUCT (a) MATCH (a:Person))")
        eng.run("GRAPH VIEW qv AS (CONSTRUCT (a) MATCH (a:Person) ON base)")
        epochs = eng.catalog.epoch("dv"), eng.catalog.epoch("qv")
        eng.set_default_graph("other")
        assert eng.catalog.epoch("dv") == epochs[0] + 1
        assert eng.catalog.epoch("qv") == epochs[1]
        assert eng.graph("dv").nodes == {f"n{i}" for i in range(5)}
        # moving the pointer back recomputes over 'base' again
        eng.set_default_graph("base")
        assert eng.graph("dv") == eng.graph("qv")

    def test_snapshot_sees_base_and_view_of_one_version(self, eng):
        eng.run(IDENTITY_VIEW)
        snap = eng.snapshot()
        old_base, old_view = eng.graph("base"), eng.graph("v")
        eng.apply_update(
            "base",
            GraphDelta()
            .add_node("q", labels=["Person"])
            .add_edge("qk", "q", "n0", labels=["knows"]),
        )
        with snap:
            assert snap.graph("base") is old_base
            assert snap.graph("v") is old_view
            assert snap.run("SELECT COUNT(*) AS c MATCH (a)-[e]->(b) ON v"
                            ).rows == ((5,),)
        with eng.snapshot() as fresh:
            assert "qk" in fresh.graph("v").edges
            assert fresh.epoch("v") == fresh.epoch("base") == 2

    def test_superseded_base_and_view_freed_with_their_snapshot(self, eng):
        eng.run(IDENTITY_VIEW)
        snap = eng.snapshot()
        refs = weakref.ref(snap.graph("base")), weakref.ref(snap.graph("v"))
        eng.apply_update(
            "base", GraphDelta().add_edge("qk", "n5", "n0", labels=["knows"])
        )
        gc.collect()
        for ref, name in zip(refs, ("base", "v")):
            assert ref() is snap.graph(name) is not eng.graph(name)
        del snap
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_plans_do_not_pin_superseded_views(self, eng):
        eng.run(IDENTITY_VIEW)
        text = "SELECT a.score MATCH (a:Person)-[e]->(b) ON v"
        prepared = eng.prepare(text)
        before = prepared.run().rows
        old_view = weakref.ref(eng.graph("v"))
        assert len(prepared.plans) >= 1
        eng.apply_update("base", GraphDelta().remove_edge("e0"))
        # the plan made for the old materialization does not keep it
        # alive, and the prepared statement itself stays cached
        gc.collect()
        assert old_view() is None
        assert eng.is_plan_cached(text)
        after = prepared.run().rows
        assert len(after) == len(before) - 1


class TestCatalogEdgeCases:
    def test_view_query_unknown_name(self, eng):
        assert eng.catalog.view_query("mystery") is None
        assert eng.catalog.view_meta("mystery") is None

    def test_view_reregistration_replaces(self, eng):
        eng.run("GRAPH VIEW v AS (CONSTRUCT (a) MATCH (a:Person))")
        assert len(eng.graph("v").nodes) == 6
        eng.run(
            "GRAPH VIEW v AS (CONSTRUCT (a) MATCH (a:Person) "
            "WHERE a.score = 0)"
        )
        assert eng.graph("v").nodes == {"n0"}

    def test_view_name_colliding_with_graph_rejected(self, eng):
        with pytest.raises(SemanticError):
            eng.run("GRAPH VIEW base AS (CONSTRUCT (a) MATCH (a:Person))")

    def test_view_name_colliding_with_table_rejected(self, eng):
        from repro.table import Table

        eng.register_table("t", Table(("a",), [(1,)]))
        with pytest.raises(SemanticError):
            eng.run("GRAPH VIEW t AS (CONSTRUCT (a) MATCH (a:Person))")

    def test_graph_name_colliding_with_view_rejected(self, eng):
        eng.run(IDENTITY_VIEW)
        with pytest.raises(SemanticError):
            eng.register_graph("v", chain_graph())

    def test_table_name_colliding_with_view_rejected(self, eng):
        from repro.table import Table

        eng.run(IDENTITY_VIEW)
        with pytest.raises(SemanticError):
            eng.register_table("v", Table(("a",), [(1,)]))

    def test_base_graph_accessor_rejects_views(self, eng):
        eng.run(IDENTITY_VIEW)
        with pytest.raises(UnknownGraphError):
            eng.catalog.base_graph("v")
        with pytest.raises(UnknownGraphError):
            eng.apply_update("v", GraphDelta().add_node("x"))

    def test_epochs(self, eng):
        eng.run(IDENTITY_VIEW)
        assert eng.catalog.epoch("base") == 1
        assert eng.catalog.epoch("v") == 1
        eng.apply_update("base", GraphDelta().add_node("q"))
        assert eng.catalog.epoch("base") == 2
        assert eng.catalog.epoch("v") == 2
        assert eng.catalog.epoch("unknown") == 0


class TestPlanCacheVersions:
    def test_entries_hold_their_graphs_weakly(self, eng, monkeypatch):
        # Key entries by site alone, so a live graph meets the key the
        # dead one was stored under (what id() reuse does).
        monkeypatch.setattr(
            PlanCache, "_key", staticmethod(lambda site, columns, graphs: id(site))
        )
        cache = PlanCache()
        site = object()
        g1, g2 = chain_graph(), chain_graph()
        cache.store(site, ("a",), (g1,), [0])
        assert cache.lookup(site, ("a",), (g1,)) == [0]
        dead = weakref.ref(g1)
        del g1
        gc.collect()
        assert dead() is None
        assert cache.lookup(site, ("a",), (g2,)) is None
        assert len(cache) == 0

    def test_apply_update_keeps_prepared_queries_hot(self, eng):
        text = "SELECT a.score MATCH (a:Person) WHERE a.score = 0"
        eng.run(text)
        assert eng.is_plan_cached(text)
        eng.apply_update("base", GraphDelta().add_node("q", labels=["Person"]))
        # prepared statements survive deltas
        assert eng.is_plan_cached(text)
        assert eng.run(text).rows == ((0,),)


class TestReplViews:
    def test_views_command_lists_strategy(self, eng, capsys):
        from repro.__main__ import handle_command

        handle_command(eng, ".views")
        assert "no materialized views" in capsys.readouterr().out
        eng.run(IDENTITY_VIEW)
        handle_command(eng, ".views")
        out = capsys.readouterr().out
        assert "v: 6 nodes, 5 edges" in out and "incremental" in out
        eng.apply_update(
            "base",
            GraphDelta()
            .add_node("q", labels=["Person"])
            .add_edge("qe", "q", "n0", labels=["knows"]),
        )
        handle_command(eng, ".views")
        assert "v: 7 nodes, 6 edges" in capsys.readouterr().out
