"""Schema validation tests (Figure 3 SNB schema)."""

import pytest

from repro.datasets import load
from repro.errors import ValidationError
from repro.model.builder import GraphBuilder
from repro.model.schema import EdgeType, GraphSchema, snb_schema


class TestSnbSchema:
    def test_social_graph_conforms(self):
        assert snb_schema().validate(load("paper").graphs["social_graph"]) == []

    def test_figure2_conforms(self):
        assert snb_schema().validate(load("figure2").graphs["figure2"]) == []

    def test_generated_graph_conforms(self):
        g = load("snb", scale=30, seed=7).graphs["snb"]
        assert snb_schema().validate(g) == []

    def test_labels_listed(self):
        schema = snb_schema()
        assert "Person" in schema.node_labels()
        assert "knows" in schema.edge_labels()


class TestViolations:
    def test_unknown_node_label(self):
        b = GraphBuilder()
        b.add_node("n", labels=["Alien"])
        problems = snb_schema().validate(b.build(), strict=False)
        assert any("no declared label" in p for p in problems)

    def test_undeclared_property(self):
        b = GraphBuilder()
        b.add_node("n", labels=["Tag"], properties={"shoeSize": 42})
        problems = snb_schema().validate(b.build(), strict=False)
        assert any("undeclared property" in p for p in problems)

    def test_bad_edge_connection(self):
        b = GraphBuilder()
        b.add_node("t1", labels=["Tag"], properties={"name": "a"})
        b.add_node("t2", labels=["Tag"], properties={"name": "b"})
        b.add_edge("t1", "t2", labels=["knows"])
        problems = snb_schema().validate(b.build(), strict=False)
        assert any("not allowed by schema" in p for p in problems)

    def test_strict_mode_raises(self):
        b = GraphBuilder()
        b.add_node("n", labels=["Alien"])
        with pytest.raises(ValidationError):
            snb_schema().validate(b.build(), strict=True)

    def test_multi_label_object_needs_one_declaration(self):
        # Person+Manager (as in Figure 2's node 102) satisfies the schema.
        b = GraphBuilder()
        b.add_node("n", labels=["Person", "Manager"],
                   properties={"firstName": "Clara"})
        assert snb_schema().validate(b.build()) == []


class TestCustomSchema:
    def test_minimal_schema(self):
        schema = GraphSchema(
            node_properties={"N": frozenset({"k"})},
            edge_types={
                "e": EdgeType("e", frozenset({("N", "N")}), frozenset({"w"}))
            },
        )
        b = GraphBuilder()
        b.add_node("a", labels=["N"], properties={"k": 1})
        b.add_node("b", labels=["N"])
        b.add_edge("a", "b", labels=["e"], properties={"w": 1.5})
        assert schema.validate(b.build()) == []

    def test_paths_are_not_constrained(self):
        schema = GraphSchema(
            node_properties={"N": frozenset()},
            edge_types={"e": EdgeType("e", frozenset({("N", "N")}))},
        )
        b = GraphBuilder()
        b.add_node("a", labels=["N"])
        b.add_node("b", labels=["N"])
        b.add_edge("a", "b", edge_id="ab", labels=["e"])
        b.add_path(["a", "ab", "b"], path_id="p", labels=["AnyPathLabel"])
        assert schema.validate(b.build()) == []
