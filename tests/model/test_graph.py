"""Unit tests for the PPG data model (Definition 2.1)."""

import pytest

from repro.errors import GraphModelError
from repro.model.builder import GraphBuilder
from repro.model.graph import PathPropertyGraph, path_edges, path_nodes


def diamond():
    b = GraphBuilder()
    b.add_node("a", labels=["Start"])
    b.add_node("b")
    b.add_node("c")
    b.add_edge("a", "b", edge_id="ab", labels=["x"])
    b.add_edge("b", "c", edge_id="bc", labels=["y"], properties={"w": 2})
    b.add_path(["a", "ab", "b", "bc", "c"], path_id="p1", labels=["route"])
    return b.build()


class TestComponents:
    def test_nodes_edges_paths_disjoint_sets(self):
        g = diamond()
        assert g.nodes == {"a", "b", "c"}
        assert g.edges == {"ab", "bc"}
        assert g.paths == {"p1"}

    def test_endpoints(self):
        g = diamond()
        assert g.endpoints("ab") == ("a", "b")
        assert g.source("bc") == "b"
        assert g.target("bc") == "c"

    def test_endpoints_unknown_edge(self):
        with pytest.raises(GraphModelError):
            diamond().endpoints("nope")

    def test_path_sequence_and_members(self):
        g = diamond()
        assert g.path_sequence("p1") == ("a", "ab", "b", "bc", "c")
        assert g.path_nodes("p1") == ("a", "b", "c")
        assert g.path_edges("p1") == ("ab", "bc")
        assert g.path_length("p1") == 2

    def test_path_helpers(self):
        seq = ("a", "ab", "b", "bc", "c")
        assert path_nodes(seq) == ("a", "b", "c")
        assert path_edges(seq) == ("ab", "bc")

    def test_labels_and_properties(self):
        g = diamond()
        assert g.labels("a") == {"Start"}
        assert g.labels("b") == frozenset()
        assert g.has_label("ab", "x")
        assert g.property("bc", "w") == {2}
        assert g.property("bc", "missing") == frozenset()
        assert g.properties("bc") == {"w": frozenset({2})}

    def test_contains(self):
        g = diamond()
        assert "a" in g and "ab" in g and "p1" in g and "zz" not in g

    def test_order_size(self):
        g = diamond()
        assert g.order() == 3 and g.size() == 2
        assert not g.is_empty()
        assert PathPropertyGraph().is_empty()


class TestIndexes:
    def test_adjacency(self):
        g = diamond()
        assert g.out_edges("a") == ("ab",)
        assert g.in_edges("b") == ("ab",)
        assert g.out_edges("c") == ()
        assert g.degree("b") == 2

    def test_label_indexes(self):
        g = diamond()
        assert g.nodes_with_label("Start") == {"a"}
        assert g.edges_with_label("y") == {"bc"}
        assert g.paths_with_label("route") == {"p1"}
        assert g.nodes_with_label("Nope") == frozenset()


class TestInvariants:
    def test_edge_endpoint_must_exist(self):
        with pytest.raises(GraphModelError):
            PathPropertyGraph(nodes=["a"], edges={"e": ("a", "zz")})

    def test_path_must_alternate(self):
        with pytest.raises(GraphModelError):
            PathPropertyGraph(
                nodes=["a", "b"],
                edges={"e": ("a", "b")},
                paths={"p": ("a", "e")},  # even length
            )

    def test_path_edges_must_be_adjacent(self):
        with pytest.raises(GraphModelError):
            PathPropertyGraph(
                nodes=["a", "b", "c"],
                edges={"e": ("a", "b")},
                paths={"p": ("a", "e", "c")},  # e does not reach c
            )

    def test_path_may_traverse_edges_backwards(self):
        # Definition 2.1(3): rho(e) = (a_j, a_j+1) OR (a_j+1, a_j).
        g = PathPropertyGraph(
            nodes=["a", "b"],
            edges={"e": ("b", "a")},
            paths={"p": ("a", "e", "b")},
        )
        assert g.path_nodes("p") == ("a", "b")

    def test_identifier_namespaces_disjoint(self):
        with pytest.raises(GraphModelError):
            PathPropertyGraph(nodes=["a", "e"], edges={"e": ("a", "a")})

    def test_labels_require_known_identifier(self):
        with pytest.raises(GraphModelError):
            PathPropertyGraph(nodes=["a"], labels={"zz": ["L"]})

    def test_properties_require_known_identifier(self):
        with pytest.raises(GraphModelError):
            PathPropertyGraph(nodes=["a"], properties={"zz": {"k": 1}})

    def test_singleton_path_is_legal(self):
        g = PathPropertyGraph(nodes=["a"], paths={"p": ("a",)})
        assert g.path_length("p") == 0


class TestEqualityAndMisc:
    def test_structural_equality(self):
        assert diamond() == diamond()

    def test_inequality_on_props(self):
        g1 = diamond()
        props = g1.property_map()
        props["a"] = {"extra": 1}
        g2 = PathPropertyGraph(
            nodes=g1.nodes, edges=g1.rho, paths=g1.delta,
            labels=g1.label_map(), properties=props,
        )
        assert g2 != g1

    def test_with_name(self):
        g = diamond().with_name("fresh")
        assert g.name == "fresh"
        assert g == diamond()

    def test_consistency(self):
        g1 = diamond()
        b = GraphBuilder()
        b.add_node("a")
        b.add_node("b")
        b.add_edge("b", "a", edge_id="ab")  # same id, different endpoints
        g2 = b.build()
        assert not g1.consistent_with(g2)
        assert g1.consistent_with(diamond())

    def test_describe_is_deterministic(self):
        assert diamond().describe() == diamond().describe()

    def test_repr(self):
        assert "3 nodes" in repr(diamond())
