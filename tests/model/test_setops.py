"""Unit tests for the full-graph set operations (Appendix A.5)."""

import pytest
from hypothesis import given, settings, strategies as st
from subgraphs import assert_union_ids, reference_union

from repro import GCoreEngine
from repro.catalog import Catalog
from repro.datasets import load
from repro.model.builder import GraphBuilder
from repro.model.graph import PathPropertyGraph, path_edges, path_nodes
from repro.model.setops import (
    empty_graph,
    graph_difference,
    graph_intersect,
    graph_union,
)
from repro.model.values import Date


def make(nodes=(), edges=(), paths=(), labels=None, props=None):
    b = GraphBuilder()
    labels = labels or {}
    for n in nodes:
        b.add_node(n, labels=labels.get(n, ()))
    for e, s, d in edges:
        b.add_edge(s, d, edge_id=e, labels=labels.get(e, ()))
    for p, seq in paths:
        b.add_path(seq, path_id=p, labels=labels.get(p, ()))
    for obj, kv in (props or {}).items():
        for k, v in kv.items():
            b.set_property(obj, k, v)
    return b.build()


G1 = make(
    nodes=["a", "b", "c"],
    edges=[("ab", "a", "b")],
    paths=[("p", ["a", "ab", "b"])],
    labels={"a": ["A"], "ab": ["x"]},
    props={"a": {"k": 1}},
)
G2 = make(
    nodes=["b", "c", "d"],
    edges=[("cd", "c", "d")],
    labels={"b": ["B"], "c": ["C"]},
    props={"b": {"k": 2}},
)


class TestUnion:
    def test_components(self):
        g = graph_union(G1, G2)
        assert g.nodes == {"a", "b", "c", "d"}
        assert g.edges == {"ab", "cd"}
        assert g.paths == {"p"}

    def test_labels_merge(self):
        g = graph_union(G1, G2)
        assert g.labels("a") == {"A"}
        assert g.labels("b") == {"B"}

    def test_property_value_sets_merge(self):
        shared1 = make(nodes=["n"], props={"n": {"k": 1}})
        shared2 = make(nodes=["n"], props={"n": {"k": 2}})
        g = graph_union(shared1, shared2)
        assert g.property("n", "k") == {1, 2}

    def test_inconsistent_union_is_empty(self):
        h1 = make(nodes=["a", "b"], edges=[("e", "a", "b")])
        h2 = make(nodes=["a", "b"], edges=[("e", "b", "a")])
        assert graph_union(h1, h2).is_empty()

    def test_inconsistent_paths(self):
        h1 = make(nodes=["a", "b"], edges=[("e", "a", "b")],
                  paths=[("p", ["a", "e", "b"])])
        h2 = make(nodes=["a", "b"], edges=[("e", "a", "b")],
                  paths=[("p", ["b", "e", "a"])])
        assert graph_union(h1, h2).is_empty()

    def test_identity(self):
        assert graph_union(G1, empty_graph()) == G1

    def test_idempotent(self):
        assert graph_union(G1, G1) == G1

    def test_commutative(self):
        assert graph_union(G1, G2) == graph_union(G2, G1)


class TestUnionInvariants:
    def test_kind_collision_raises(self):
        # 'x' is a node in one operand and an edge in the other: the
        # union would violate Definition 2.1 disjointness. (Regression:
        # the assembling fast path must keep the validating constructor's
        # behaviour.)
        import pytest

        from repro.errors import GraphModelError

        node_x = make(nodes=["x"])
        edge_x = make(nodes=["a", "b"], edges=[("x", "a", "b")])
        with pytest.raises(GraphModelError):
            graph_union(node_x, edge_x)
        with pytest.raises(GraphModelError):
            graph_union(edge_x, node_x)

    def test_union_with_empty_is_identity(self):
        assert graph_union(empty_graph(), G1) == G1
        assert graph_union(G1, empty_graph()) == G1


class TestIntersect:
    def test_components(self):
        g = graph_intersect(G1, G2)
        assert g.nodes == {"b", "c"}
        assert g.edges == frozenset()
        assert g.paths == frozenset()

    def test_labels_intersect(self):
        h1 = make(nodes=["n"], labels={"n": ["A", "B"]})
        h2 = make(nodes=["n"], labels={"n": ["B", "C"]})
        assert graph_intersect(h1, h2).labels("n") == {"B"}

    def test_property_sets_intersect(self):
        h1 = make(nodes=["n"], props={"n": {"k": {1, 2}}})
        h2 = make(nodes=["n"], props={"n": {"k": {2, 3}}})
        assert graph_intersect(h1, h2).property("n", "k") == {2}

    def test_with_empty(self):
        assert graph_intersect(G1, empty_graph()).is_empty()

    def test_idempotent(self):
        assert graph_intersect(G1, G1) == G1

    def test_inconsistent_is_empty(self):
        h1 = make(nodes=["a", "b"], edges=[("e", "a", "b")])
        h2 = make(nodes=["a", "b"], edges=[("e", "b", "a")])
        assert graph_intersect(h1, h2).is_empty()


class TestDifference:
    def test_nodes_removed(self):
        g = graph_difference(G1, G2)
        assert g.nodes == {"a"}

    def test_edges_with_lost_endpoint_dropped(self):
        g = graph_difference(G1, G2)  # b removed, so ab must go
        assert g.edges == frozenset()

    def test_paths_with_lost_member_dropped(self):
        g = graph_difference(G1, G2)
        assert g.paths == frozenset()

    def test_difference_with_empty_is_identity(self):
        assert graph_difference(G1, empty_graph()) == G1

    def test_self_difference_is_empty(self):
        assert graph_difference(G1, G1).is_empty()

    def test_labels_restricted(self):
        g = graph_difference(G1, G2)
        assert g.labels("a") == {"A"}

    def test_edge_identity_removal(self):
        h1 = make(nodes=["a", "b"], edges=[("e", "a", "b")])
        h2 = make(nodes=["x"], edges=[])
        b = GraphBuilder()
        b.add_node("q1")
        b.add_node("q2")
        b.add_edge("q1", "q2", edge_id="e")
        h3 = b.build()
        # e is removed by identity even though endpoints survive
        g = graph_difference(h1, h3)
        assert g.nodes == {"a", "b"} and g.edges == frozenset()
        del h2


class TestAlgebraicLaws:
    def test_union_associative(self):
        g3 = make(nodes=["e"], labels={"e": ["E"]})
        left = graph_union(graph_union(G1, G2), g3)
        right = graph_union(G1, graph_union(G2, g3))
        assert left == right

    def test_intersect_distributes_over_union_on_nodes(self):
        g3 = make(nodes=["a", "d"])
        lhs = graph_intersect(g3, graph_union(G1, G2))
        rhs = graph_union(graph_intersect(g3, G1), graph_intersect(g3, G2))
        assert lhs.nodes == rhs.nodes


# ---------------------------------------------------------------------------
# Difference by copy-and-patch, and the change records set operations keep
# ---------------------------------------------------------------------------

def reference_difference(left, right):
    """``left MINUS right`` as the comprehensions that preceded copy-and-
    patch wrote it: survivors rebuilt store by store."""
    nodes = left.nodes - right.nodes
    edges = {
        e: ends
        for e in left.edges - right.edges
        if (ends := left.endpoints(e))[0] in nodes and ends[1] in nodes
    }
    paths = {}
    for pid in left.paths - right.paths:
        seq = left.path_sequence(pid)
        if all(n in nodes for n in path_nodes(seq)) and all(
            e in edges for e in path_edges(seq)
        ):
            paths[pid] = seq
    survivors = nodes | set(edges) | set(paths)
    labels = {obj: found for obj in survivors if (found := left.labels(obj))}
    props = {obj: found for obj in survivors if (found := left._props.get(obj))}
    return PathPropertyGraph._assemble_normalized(
        nodes, edges, paths, labels, props, owner=left.fragment_owner()
    )


def owned(graph):
    catalog = Catalog()
    catalog.register_graph("base", graph)
    return catalog.graph("base")


NODES = ["a", "b", "c", 1, "1", 2]
EDGES = {"ab": ("a", "b"), "bc": ("b", "c"), 7: ("c", 1), "c2": ("c", 2),
         "1a": ("1", "a")}
PATHS = {"p": ("a", "ab", "b", "bc", "c"), 9: ("c", 7, 1), "q": ("b",)}
VALUES = st.sampled_from([0, 1, "x", 2.5, Date.parse("2020-01-02")])


@st.composite
def graphs(draw):
    nodes = set(draw(st.sets(st.sampled_from(NODES))))
    edges = {e: ends for e, ends in EDGES.items()
             if set(ends) <= nodes and draw(st.booleans())}
    paths = {p: seq for p, seq in PATHS.items()
             if set(path_nodes(seq)) <= nodes
             and set(path_edges(seq)) <= set(edges) and draw(st.booleans())}
    objects = [*nodes, *edges, *paths]
    labels = {obj: draw(st.sets(st.sampled_from("AB"))) for obj in objects}
    props = {obj: {key: draw(st.sets(VALUES, min_size=1, max_size=2))
                   for key in draw(st.sets(st.sampled_from("kq")))}
             for obj in objects}
    return PathPropertyGraph(nodes, edges, paths, labels, props)


def same_objects(graph, other, objects):
    return all(
        store.get(obj) is theirs.get(obj)
        for obj in objects
        for store, theirs in ((graph._labels, other._labels),
                              (graph._props, other._props),
                              (graph._rho, other._rho),
                              (graph._delta, other._delta))
    )


@given(graphs(), graphs(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_difference_equals_the_comprehension_reference(left, right, named):
    left = owned(left) if named else left
    result, expected = graph_difference(left, right), reference_difference(
        left, right)
    assert result == expected
    assert (result.nodes, result.edges, result.paths) == (
        expected.nodes, expected.edges, expected.paths)
    assert same_objects(result, left, result.objects())
    assert result.fragment_owner() is left.fragment_owner()
    assert result.changed_objects() == (set() if named else None)


@given(graphs(), graphs(), st.booleans(), st.sampled_from(
    [graph_union, graph_intersect, graph_difference]))
@settings(max_examples=300, deadline=None)
def test_records_cover_every_object_not_the_owners(base, other, left, op):
    owner = owned(base)
    derived = graph_difference(owner, other)  # shares the owner, records ∅
    result = op(derived, other) if left else op(other, derived)
    record = result.changed_objects()
    if result.fragment_owner() is not owner:
        return  # the other operand was preferred: no owner, no record
    assert record is not None
    unchanged = [obj for key in ("nodes", "edges", "paths")
                 for obj in getattr(result, key)
                 if obj not in record and obj in getattr(owner, key)]
    assert same_objects(result, owner, unchanged)


class TestChangeRecords:
    BASE = make(
        nodes=["a", "b", "c"],
        edges=[("ab", "a", "b")],
        labels={"a": ["A"], "b": ["B"]},
        props={"a": {"k": 1}},
    )

    def test_named_graphs_and_their_unnamed_copies_record_nothing(self):
        owner = owned(self.BASE)
        assert owner.changed_objects() == set()
        assert owner.with_name("").changed_objects() == set()
        assert self.BASE.changed_objects() is None  # no owner: unknown

    def test_union_records_what_the_smaller_operand_brings(self):
        owner = owned(self.BASE)
        other = make(nodes=["a", "b", "d"], labels={"a": ["A"], "b": ["Z"]},
                     props={"a": {"k": 1}})
        for union in (graph_union(owner, other), graph_union(other, owner)):
            assert union.fragment_owner() is owner
            # "b" merged into a new label set, "d" only the other has; "a"
            # merges to values equal to the owner's, which are kept
            assert union.changed_objects() == {"b", "d"}

    def test_intersect_records_what_it_narrowed(self):
        owner = owned(self.BASE)
        other = make(nodes=["a", "b"], labels={"a": ["A"]})
        inter = graph_intersect(owner, other)
        assert inter.fragment_owner() is owner
        # "a" lost k, "b" lost B; "c" is gone, "ab" never was in other
        assert inter.changed_objects() == {"a", "b"}

    def test_difference_inherits_the_left_record(self):
        owner = owned(self.BASE)
        union = graph_union(owner, make(nodes=["d"]))
        minus = graph_difference(union, make(nodes=["c"]))
        assert minus.changed_objects() == union.changed_objects() == {"d"}
        assert graph_difference(owner, make(nodes=["x"])).changed_objects() \
            == set()

    def test_difference_pops_incident_edges_and_broken_paths(self):
        owner = owned(G1)
        minus = graph_difference(owner, make(nodes=["b"]))
        assert minus.edges == frozenset() and minus.paths == frozenset()
        assert minus.labels("a") is owner.labels("a")
        assert owner.edges == {"ab"} and owner.paths == {"p"}  # untouched

    def test_construct_results_keep_an_unknown_record(self):
        engine = GCoreEngine()
        engine.register_graph("base", self.BASE, default=True)
        result = engine.run("CONSTRUCT (n) MATCH (n)")
        assert result.fragment_owner() is engine.graph("base")
        assert result.changed_objects() is None


# ---------------------------------------------------------------------------
# A union costs what its smaller operand changes
# ---------------------------------------------------------------------------

class TestUnionFold:
    """The smaller operand is folded into the larger; a union it adds
    nothing to is the larger operand itself."""

    PERSONS = "CONSTRUCT (n) MATCH (n:Person) WHERE n.firstName <> 'x'"

    @pytest.fixture(scope="class")
    def snb(self):
        engine = GCoreEngine()
        load("snb", scale=40, seed=3).install(engine)
        return engine

    def test_a_union_that_adds_nothing_is_the_larger_operand(self, snb):
        owner = snb.graph("snb")
        union = snb.run(f"{self.PERSONS} UNION snb")
        assert union is not owner and union.nodes == owner.nodes
        assert union._rho is owner._rho
        assert union._labels is owner._labels
        assert union._props is owner._props
        assert union.fragment_owner() is owner
        assert union.changed_objects() == frozenset()

    @pytest.mark.parametrize("left,right", [
        ("snb", PERSONS),
        ("CONSTRUCT (n:Star) MATCH (n:Person) WHERE n.firstName <> 'x'", "snb"),
        ("snb", "CONSTRUCT (n {seen := 1}) MATCH (n:Person) WHERE n.firstName <> 'x'"),
        ("CONSTRUCT (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m) "
         "WHERE n.firstName <> 'x'", "CONSTRUCT (x :Fresh) MATCH (n:Person)"),
    ], ids=["swapped", "merged-label", "merged-property", "similar-sizes"])
    def test_other_unions_are_the_a5_union(self, snb, left, right):
        operands = [snb.graph("snb") if text == "snb" else snb.run(text)
                    for text in (left, right)]
        union = snb.run(f"{left} UNION {right}")
        assert union == reference_union(*operands)
        assert_union_ids(union, *operands)

    @pytest.mark.parametrize("spelling", [1.0, True])
    def test_the_left_operands_id_objects_win(self, spelling):
        owner = owned(make(nodes=["a", 1], labels={1: ["A"]}))
        other = PathPropertyGraph([spelling], labels={spelling: ["A"]})
        # the larger operand on the left: its 1 wins, and it is the union
        union = graph_union(owner, other)
        assert union.fragment_owner() is owner and union._labels is owner._labels
        assert_union_ids(union, owner, other)
        # on the right, with a 1.0 or TRUE beside it: the left's id object
        union = graph_union(other, owner)
        assert union == reference_union(other, owner)
        assert_union_ids(union, other, owner)
        assert [type(node) for node in union.nodes if node == 1] == [type(spelling)]

    def test_difference_stores_hold_no_removed_id(self, snb):
        owner = snb.graph("snb")
        minus = snb.run("snb MINUS (CONSTRUCT (m) MATCH (m:Comment) "
                        "WHERE m.content <> 'x')")
        removed = set(owner.objects()) - set(minus.objects())
        assert removed & owner.nodes and removed & owner.edges
        for store in (minus._rho, minus._delta, minus._labels, minus._props):
            assert removed.isdisjoint(store)
        assert set(minus._rho) == minus.edges and set(minus._delta) == minus.paths
        assert minus == reference_difference(owner, snb.run(
            "CONSTRUCT (m) MATCH (m:Comment) WHERE m.content <> 'x'"))
