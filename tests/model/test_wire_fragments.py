"""Fragment stores stay bounded; set operations share, never mutate.

Companion of ``tests/property/test_prop_wire_fragments.py`` (which checks
the bytes): what a store may hold, which graphs get one, and the
reference sharing of :mod:`repro.model.setops` the cache relies on.
"""

import json

import pytest

from repro import GCoreEngine
from repro.catalog import Catalog
from repro.datasets import load
from repro.model.delta import GraphDelta
from repro.model.graph import PathPropertyGraph
from repro.model.io import encode_graph, encode_graph_chunks, graph_to_dict
from repro.model.setops import graph_difference, graph_intersect, graph_union
from repro.server.protocol import dumps, serialize_result

SETOPS = [graph_union, graph_intersect, graph_difference]


def social_engine():
    engine = GCoreEngine()
    engine.register_graph("social_graph", load("paper").graphs["social_graph"], default=True)
    return engine


def object_count(graph):
    return len(graph.nodes) + len(graph.edges) + len(graph.paths)


def owned(graph):
    catalog = Catalog()
    catalog.register_graph("base", graph)
    return catalog.graph("base")


BASE = PathPropertyGraph(
    ["a", "b", "c"],
    edges={"ab": ("a", "b"), "bc": ("b", "c")},
    paths={"p": ("a", "ab", "b")},
    labels={"a": ["A"], "b": ["B"], "ab": ["knows"], "p": ["P"]},
    properties={"a": {"k": 1}, "b": {"k": [1, 2]}, "ab": {"w": 3}},
)
#: "a" as BASE has it (built separately), "b" with more, "d" new.
OTHER = PathPropertyGraph(
    ["a", "b", "d"],
    edges={"ab": ("a", "b")},
    labels={"a": ["A"], "b": ["Z"], "d": ["D"]},
    properties={"a": {"k": 1}, "b": {"k": 5, "q": 0}, "ab": {"w": 3}},
)


class TestStores:
    def test_store_stays_within_the_owner_under_fresh_skolem_ids(self):
        engine = social_engine()
        engine.register_graph("ticks", PathPropertyGraph(
            ["t"], labels={"t": ["Tick"]}, properties={"t": {"v": 0}}))
        owner = engine.graph("social_graph")
        text = ("CONSTRUCT (x GROUP t.v) MATCH (t:Tick) ON ticks "
                "UNION social_graph")
        minted = set()
        for tick in range(20):
            delta = GraphDelta()
            delta.set_property("t", "v", tick)
            engine.apply_update("ticks", delta)  # a new group key per run
            result = engine.run(text)
            assert result.fragment_owner() is owner
            minted |= result.nodes - owner.nodes
            dumps(serialize_result(result, None))
        # 20 bare skolem nodes, never stored: the store holds owner objects
        assert len(minted) == 20
        assert owner.wire_fragment_count() == object_count(owner)

    def test_construct_result_stores_only_untouched_elements(self):
        engine = social_engine()
        owner = engine.graph("social_graph")
        result = engine.run(
            "CONSTRUCT (x GROUP n.employer :Firm), (n)-[e]->(m) "
            "SET m.seen := 1 MATCH (n:Person)-[e:knows]->(m:Person)")
        assert result.fragment_owner() is owner
        dumps(serialize_result(result, None))
        untouched = {
            obj for obj in result.objects()
            if obj in owner and result._labels.get(obj) is owner._labels.get(obj)
            and result._props.get(obj) is owner._props.get(obj)}
        # the knows edges and the persons no SET reaches: never an m, nor
        # a fresh Firm node
        assert result.edges <= untouched
        assert all(not result.property(obj, "seen") for obj in untouched)
        assert any(result.property(obj, "seen") for obj in result.nodes)
        assert owner.wire_fragment_count() == len(untouched)

    def test_catalog_view_owns_itself_across_updates(self):
        engine = social_engine()
        engine.run("GRAPH VIEW v AS (CONSTRUCT (n) MATCH (n:Person) "
                   "UNION social_graph)")
        for _ in range(2):
            view = engine.graph("v")
            # Its own owner, pointing at no base epoch: holding the view
            # cannot pin a superseded social_graph.
            assert view.fragment_owner() is view and view._owner is None
            dumps(serialize_result(view, None))
            assert view.wire_fragment_count() == object_count(view)
            delta = GraphDelta()
            delta.add_label("john", "Manager")
            engine.apply_update("social_graph", delta)


class TestSetOperationsShare:
    @pytest.mark.parametrize("op", SETOPS)
    def test_operands_are_never_mutated(self, op):
        left, right = owned(BASE), OTHER
        before = [(g.label_map(), g.property_map()) for g in (left, right)]
        op(left, right)
        op(right, left)
        assert [(g.label_map(), g.property_map())
                for g in (left, right)] == before

    def test_union_keeps_the_owners_objects_where_nothing_merges(self):
        owner = owned(BASE)
        for union in (graph_union(owner, OTHER), graph_union(OTHER, owner)):
            assert union.fragment_owner() is owner
            for obj in ("a", "c", "ab", "bc", "p"):
                assert union._labels.get(obj) is owner._labels.get(obj)
                assert union._props.get(obj) is owner._props.get(obj)
            assert union.endpoints("ab") is owner.endpoints("ab")
            assert union.path_sequence("p") is owner.path_sequence("p")
            # "b" really merges: a copy, the operands' dicts untouched
            assert union.labels("b") == {"B", "Z"}
            assert union.property("b", "k") == {1, 2, 5}
            assert union._props["b"] is not owner._props["b"]

    def test_minus_and_intersect_keep_the_left_objects(self):
        owner = owned(BASE)
        minus = graph_difference(owner, PathPropertyGraph(["c"]))
        inter = graph_intersect(owner, OTHER)
        assert minus.fragment_owner() is inter.fragment_owner() is owner
        for obj in ("a", "b", "ab", "p"):
            assert minus._labels.get(obj) is owner._labels.get(obj)
            assert minus._props.get(obj) is owner._props.get(obj)
        assert minus.path_sequence("p") is owner.path_sequence("p")
        # intersections equal to the left's: "a" whole, "ab"'s properties
        assert inter.labels("a") is owner.labels("a")
        assert inter._props["a"] is owner._props["a"]
        assert inter._props["ab"] is owner._props["ab"]
        assert inter.endpoints("ab") is owner.endpoints("ab")


class TestConstructResults:
    """CONSTRUCT results splice only what they pass through untouched."""

    TOUCHED = ("CONSTRUCT (n:Star), (m {rank := 1}), (=n), (o) SET o.seen := 1 "
               "MATCH (n:Person)-[e:knows]->(m:Person)-[f:knows]->(o:Person)")

    def test_touched_elements_are_encoded_fresh_and_never_stored(self):
        engine = social_engine()
        owner = engine.graph("social_graph")
        result = engine.run(self.TOUCHED)
        assert result.fragment_owner() is None  # nothing adopted
        assert encode_graph(result) == json.dumps(graph_to_dict(result)).encode()
        assert owner.wire_fragment_count() == 0
        # the same elements untouched are spliced, and the store grows
        plain = engine.run("CONSTRUCT (n), (m) MATCH (n:Person)-[e:knows]->(m:Person)")
        assert plain.fragment_owner() is owner
        assert encode_graph(plain) == json.dumps(graph_to_dict(plain)).encode()
        assert owner.wire_fragment_count() == len(plain.nodes)
        # ...and a touched result encoded after them still comes out fresh
        assert encode_graph(result) == json.dumps(graph_to_dict(result)).encode()
        assert all(owner.labels(n) != result.labels(n) or
                   owner.properties(n) != result.properties(n)
                   for n in result.nodes & owner.nodes)

    def test_owner_is_the_graph_most_elements_come_from(self):
        engine = social_engine()
        engine.register_graph("companies", load("paper").graphs["company_graph"])
        result = engine.run(
            "CONSTRUCT (c)<-[:worksAt]-(n) MATCH (c:Company) ON companies, "
            "(n:Person) ON social_graph "
            "WHERE c.name IN n.employer AND c.name <> 'MIT'")
        persons = result.nodes & engine.graph("social_graph").nodes
        assert len(persons) > len(result.nodes & engine.graph("companies").nodes)
        assert result.fragment_owner() is engine.graph("social_graph")
        assert encode_graph(result) == json.dumps(graph_to_dict(result)).encode()


class TestChunkedBody:
    """The document reaches the socket as a few chunks: a section wholly
    the owner's is its cached body, any other is joined per request."""

    @pytest.fixture(scope="class")
    def snb(self):
        engine = GCoreEngine()
        load("snb", scale=40, seed=3).install(engine)
        return engine

    def chunks(self, result):
        chunks = encode_graph_chunks(result)
        assert len(chunks) == 7  # head and three (body, closer) pairs
        assert encode_graph(result) == b"".join(chunks) == json.dumps(
            graph_to_dict(result)).encode("utf-8")
        owner = result.fragment_owner()
        return chunks[1::2], [section[3] for section in owner._wire_sections]

    def test_union_base_shape_sends_the_owners_bodies(self, snb):
        result = snb.run("CONSTRUCT (n) MATCH (n:Person) WHERE n.employer <> 'x' "
                         "UNION snb")
        for _ in range(2):  # built once, then the very bytes again
            bodies, cached = self.chunks(result)
            assert all(body is mine for body, mine in zip(bodies, cached))

    def test_minus_msgs_shape_masks_a_section(self, snb):
        result = snb.run("snb MINUS (CONSTRUCT (m) MATCH (m:Comment) "
                         "WHERE m.content <> 'x')")
        (nodes, edges, paths), cached = self.chunks(result)
        assert nodes is not cached[0] and len(nodes) < len(cached[0])
        assert edges is not cached[1] and len(edges) < len(cached[1])
        assert (paths is cached[2]) == (result.paths == snb.graph("snb").paths)
