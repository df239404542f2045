"""Unit tests for GraphBuilder."""

import pytest

from repro.errors import GraphModelError
from repro.model.builder import GraphBuilder


class TestNodes:
    def test_auto_ids_are_unique(self):
        b = GraphBuilder()
        ids = {b.add_node() for _ in range(10)}
        assert len(ids) == 10

    def test_explicit_id(self):
        b = GraphBuilder()
        assert b.add_node("me") == "me"

    def test_re_adding_merges_labels_and_props(self):
        b = GraphBuilder()
        b.add_node("n", labels=["A"], properties={"k": 1})
        b.add_node("n", labels=["B"], properties={"k": 2, "j": "x"})
        g = b.build()
        assert g.labels("n") == {"A", "B"}
        assert g.property("n", "k") == {1, 2}
        assert g.property("n", "j") == {"x"}

    def test_kwargs_properties(self):
        b = GraphBuilder()
        b.add_node("n", name="Ada", age=36)
        g = b.build()
        assert g.property("n", "name") == {"Ada"}

    def test_multivalued_property(self):
        b = GraphBuilder()
        b.add_node("n", employer={"CWI", "MIT"})
        assert b.build().property("n", "employer") == {"CWI", "MIT"}

    def test_node_id_clash_with_edge(self):
        b = GraphBuilder()
        b.add_node("a")
        b.add_node("b")
        b.add_edge("a", "b", edge_id="e")
        with pytest.raises(GraphModelError):
            b.add_node("e")


class TestEdges:
    def test_endpoints_must_exist(self):
        b = GraphBuilder()
        b.add_node("a")
        with pytest.raises(GraphModelError):
            b.add_edge("a", "zz")

    def test_parallel_edges_allowed(self):
        b = GraphBuilder()
        b.add_node("a")
        b.add_node("b")
        e1 = b.add_edge("a", "b")
        e2 = b.add_edge("a", "b")
        assert e1 != e2
        assert b.build().size() == 2

    def test_edge_re_add_conflicting_endpoints(self):
        b = GraphBuilder()
        b.add_node("a")
        b.add_node("b")
        b.add_edge("a", "b", edge_id="e")
        with pytest.raises(GraphModelError):
            b.add_edge("b", "a", edge_id="e")


class TestPathsAndMutation:
    def test_add_path_validates_on_build(self):
        b = GraphBuilder()
        b.add_node("a")
        b.add_node("b")
        b.add_edge("a", "b", edge_id="e")
        b.add_path(["a", "e", "b"], path_id="p")
        g = b.build()
        assert g.path_sequence("p") == ("a", "e", "b")

    def test_bad_path_fails_at_build(self):
        b = GraphBuilder()
        b.add_node("a")
        b.add_path(["a", "missing_edge", "a"], path_id="p")
        with pytest.raises(GraphModelError):
            b.build()

    def test_set_property(self):
        b = GraphBuilder()
        b.add_node("n", labels=["L1", "L2"], k=1)
        b.set_property("n", "k", 5)
        g = b.build()
        assert g.labels("n") == {"L1", "L2"}
        assert g.property("n", "k") == {5}

    def test_set_property_to_none_removes(self):
        b = GraphBuilder()
        b.add_node("n", k=1)
        b.set_property("n", "k", None)
        assert b.build().property("n", "k") == frozenset()

    def test_set_on_unknown_object(self):
        b = GraphBuilder()
        with pytest.raises(GraphModelError):
            b.set_property("zz", "k", 1)

    def test_contains(self):
        b = GraphBuilder()
        b.add_node("n")
        assert "n" in b and "zz" not in b
