"""Wire byte-identity of graph results that splice cached fragments.

:func:`repro.model.io.encode_graph` reuses a catalog graph's encoded
objects in the results derived from it. Whatever it reuses, a response
must be the bytes the plain formula gives:
``json.dumps({..., "graph": graph_to_dict(g), ...}, separators=(", ", ": "))``.
Every case encodes the owner first, so a wrong reuse would be served from
a warm store.
"""

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro import GCoreEngine
from repro.catalog import Catalog
from repro.datasets import social_graph
from repro.datasets.registry import load
from repro.model.delta import GraphDelta
from repro.model.graph import PathPropertyGraph
from repro.model.io import graph_to_dict
from repro.model.setops import graph_difference, graph_intersect, graph_union
from repro.model.values import Date
from repro.server.protocol import dumps, serialize_result


def plain_bytes(graph):
    """The response body as built before fragments existed."""
    return json.dumps(
        {
            "kind": "graph",
            "graph": graph_to_dict(graph),
            "node_count": len(graph.nodes),
            "edge_count": len(graph.edges),
            "path_count": len(graph.paths),
            "truncated": False,
        },
        separators=(", ", ": "),
    ).encode("utf-8")


def assert_wire(graph):
    for _ in range(2):  # cold, then warm
        assert dumps(serialize_result(graph, None)) == plain_bytes(graph)


def owned(graph, name="base"):
    """*graph* as a catalog registers it: a named copy, its own owner."""
    catalog = Catalog()
    catalog.register_graph(name, graph)
    owner = catalog.graph(name)
    assert owner.fragment_owner() is owner
    assert_wire(owner)
    return owner


def object_count(graph):
    return len(graph.nodes) + len(graph.edges) + len(graph.paths)


def ppg(nodes, edges=None, paths=None, labels=None, props=None):
    return PathPropertyGraph(nodes, edges, paths, labels, props)


BASE = ppg(
    ["a", "b", "c", 1, 2],
    edges={"ab": ("a", "b"), 7: ("b", 1), "x": ("c", 2)},
    paths={"p": ("a", "ab", "b"), "q": ("c", "x", 2)},
    labels={"a": ["A"], "b": ["B"], 1: ["A"], "ab": ["knows"], "p": ["P"]},
    props={"a": {"k": 1}, 1: {"k": [1, 2]}, "ab": {"w": 0.5},
           "p": {"d": Date.parse("2020-01-02")}},
)


# ---------------------------------------------------------------------------
# One case per way a derived graph can differ from its owner
# ---------------------------------------------------------------------------

class TestCases:
    def test_owner_itself(self):
        owned(BASE)

    @pytest.mark.parametrize("op", [graph_union, graph_difference,
                                    graph_intersect])
    def test_set_operations_on_either_side_and_chained(self, op):
        owner = owned(BASE)
        small = ppg(["a", "c"], labels={"a": ["A"]}, props={"a": {"k": 1}})
        for derived in (op(owner, small), op(small, owner)):
            assert_wire(derived)
        chained = op(graph_difference(graph_union(small, owner), ppg(["c"])),
                     small)
        assert chained.fragment_owner() is owner
        assert_wire(chained)

    def test_merged_label_set(self):
        owner = owned(BASE)
        derived = graph_union(owner, ppg(["a"], labels={"a": ["Z"]}))
        assert derived.labels("a") == {"A", "Z"}
        assert_wire(derived)

    def test_merged_property_set(self):
        owner = owned(BASE)
        derived = graph_union(ppg([1], props={1: {"k": 3}}), owner)
        assert derived.property(1, "k") == {1, 2, 3}
        assert_wire(derived)

    @pytest.mark.parametrize("spelling", [1.0, True])
    def test_equal_ids_spelled_differently(self, spelling):
        owner = owned(BASE)
        # The union keeps the left operand's id object and, for an equal
        # merge, the owner's label set and property dict.
        other = ppg([spelling], labels={spelling: ["A"]},
                    props={spelling: {"k": [1, 2]}})
        derived = graph_union(other, owner)
        assert derived.fragment_owner() is owner
        (node,) = [n for n in derived.nodes if n == 1]
        assert type(node) is type(spelling)
        assert derived.labels(node) is owner.labels(1)
        assert_wire(derived)
        assert_wire(graph_intersect(other, owner))

    def test_owner_edge_becomes_a_node(self):
        owner = owned(BASE)
        # Drop edge "x" (its endpoint "c" goes), then bring "x" back as a
        # bare node: same id, no labels or properties, another kind.
        trimmed = graph_difference(owner, ppg(["c"]))
        derived = graph_union(trimmed, ppg(["x"]))
        assert derived.fragment_owner() is owner and "x" in derived.nodes
        assert_wire(derived)

    def test_owner_node_becomes_an_edge(self):
        owner = owned(BASE)
        trimmed = graph_difference(owner, ppg(["c"]))
        derived = graph_union(
            trimmed, ppg(["b", 2], edges={"c": ("b", 2)}))
        assert derived.fragment_owner() is owner and "c" in derived.edges
        assert_wire(derived)

    def test_owner_edge_with_other_endpoints(self):
        owner = owned(BASE)
        trimmed = graph_difference(owner, ppg(["c"]))
        derived = graph_union(trimmed, ppg(["a", 2], edges={"x": ("a", 2)}))
        assert derived.fragment_owner() is owner
        assert_wire(derived)

    def test_owner_path_with_another_sequence(self):
        owner = owned(BASE)
        trimmed = graph_difference(owner, ppg(["c"]))
        other = ppg(["a", 2], edges={"y": ("a", 2)},
                    paths={"q": ("a", "y", 2)})
        derived = graph_union(trimmed, other)
        assert derived.fragment_owner() is owner
        assert derived.path_sequence("q") != owner.path_sequence("q")
        assert_wire(derived)

    def test_construct_union_base_through_the_engine(self):
        engine = GCoreEngine()
        engine.register_graph("social_graph", social_graph(), default=True)
        text = ("CONSTRUCT (n)-[e:likes]->(m) MATCH (n:Person)-[:knows]->(m) "
                "UNION social_graph")
        for _ in range(2):
            result = engine.run(text)
            assert result.fragment_owner() is engine.graph("social_graph")
            assert_wire(result)
        assert engine.graph("social_graph").wire_fragment_count() > 0

    def test_new_epoch_after_apply_update(self):
        engine = GCoreEngine()
        engine.register_graph("social_graph", social_graph(), default=True)
        text = "CONSTRUCT (n) MATCH (n:Person) UNION social_graph"
        assert_wire(engine.run(text))
        before = engine.graph("social_graph")
        delta = GraphDelta()
        delta.set_property("john", "employer", "Initech")
        delta.add_label("peter", "Manager")
        engine.apply_update("social_graph", delta)
        after = engine.graph("social_graph")
        assert after is not before and after.wire_fragment_count() == 0
        result = engine.run(text)
        assert result.fragment_owner() is after
        assert result.property("john", "employer") == {"Initech"}
        assert_wire(result)
        assert 0 < after.wire_fragment_count() <= object_count(after)

    def test_four_threads_through_one_cold_store(self):
        engine = GCoreEngine()
        load("snb", scale=40, seed=3).install(engine)
        owner = engine.graph("snb")
        assert owner.wire_fragment_count() == 0
        texts = [
            "CONSTRUCT (n) MATCH (n:Person) UNION snb",
            "snb MINUS (CONSTRUCT (m) MATCH (m:Comment))",
            "snb INTERSECT snb",
            "CONSTRUCT (n)-[e:seen]->(m) MATCH (n:Person)-[:knows]->(m) "
            "UNION snb",
        ]
        results = [engine.run(text) for text in texts]
        expected = [plain_bytes(result) for result in results]

        def encode(index):
            return dumps(serialize_result(results[index % 4], None))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads' store writes
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                encoded = list(pool.map(encode, range(16), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert encoded == [expected[i % 4] for i in range(16)]
        # no entry was lost to a race: a serial pass stores nothing new
        stored = owner.wire_fragment_count()
        assert 0 < stored <= object_count(owner)
        for index in range(4):
            encode(index)
        assert owner.wire_fragment_count() == stored


# ---------------------------------------------------------------------------
# Random graphs: owner ids and derived ids drawn from one pool
# ---------------------------------------------------------------------------

#: "one" stands for the identifier 1, spelled 1, 1.0 or True per graph.
NODE_POOL = ["a", "b", 2, "one"]
EDGE_POOL = {"ab": ("a", "b"), 7: ("b", "one"), "a2": ("a", 2)}
PATH_POOL = {"p": ("a", "ab", "b"), 9: ("a", "a2", 2)}
VALUES = st.sampled_from([0, 1, "x", 2.5, True, Date.parse("2021-03-04")])


@st.composite
def graphs(draw):
    one = draw(st.sampled_from([1, 1.0, True]))

    def spell(obj):
        return one if obj == "one" else obj

    nodes = {spell(n) for n in draw(st.sets(st.sampled_from(NODE_POOL)))}
    edges = {
        edge: tuple(map(spell, ends))
        for edge, ends in EDGE_POOL.items()
        if {spell(end) for end in ends} <= nodes and draw(st.booleans())
    }
    paths = {
        pid: seq
        for pid, seq in PATH_POOL.items()
        if seq[1] in edges and draw(st.booleans())
    }
    objects = [*nodes, *edges, *paths]
    labels = {obj: draw(st.sets(st.sampled_from("AB"))) for obj in objects}
    props = {
        obj: {key: draw(st.sets(VALUES, min_size=1, max_size=2))
              for key in draw(st.sets(st.sampled_from("kq")))}
        for obj in objects
    }
    return ppg(nodes, edges, paths, labels, props)


OPS = st.sampled_from([graph_union, graph_difference, graph_intersect])


@given(graphs(), st.lists(st.tuples(OPS, st.booleans(), graphs()),
                          max_size=3))
@settings(max_examples=200, deadline=None)
def test_random_derivations_match_plain_bytes(base, steps):
    owner = owned(base)
    derived = owner
    for op, owner_left, other in steps:
        derived = op(derived, other) if owner_left else op(other, derived)
        assert_wire(derived)
    assert_wire(owner)
    assert owner.wire_fragment_count() <= object_count(owner)


# ---------------------------------------------------------------------------
# CONSTRUCT results: untouched bound elements spliced, the rest fresh
# ---------------------------------------------------------------------------

CONSTRUCTS = [
    "CONSTRUCT (n) MATCH (n)",
    "CONSTRUCT (n)-[e]->(m) MATCH (n)-[e]->(m)",
    "CONSTRUCT (n), (m:Z) MATCH (n)-[e]->(m)",
    "CONSTRUCT (n {k := 7})-[e]->(m) MATCH (n)-[e]->(m)",
    "CONSTRUCT (n)-[e]->(m) SET e.w := 1 MATCH (n)-[e]->(m)",
    "CONSTRUCT (n) REMOVE n:A MATCH (n)",
    "CONSTRUCT (=n), (n) MATCH (n:B)",
    "CONSTRUCT (x GROUP n.k)-[:r]->(n) MATCH (n)",
    "CONSTRUCT (n)-/@p/->(m) MATCH (n)-/@p/->(m)",
    "CONSTRUCT (n) MATCH (n) UNION base",
]


def own_entries(owner):
    """The owner's encoded entry of each of its objects."""
    data = graph_to_dict(owner)
    return {entry["id"]: json.dumps(entry).encode("utf-8")
            for section in ("nodes", "edges", "paths") for entry in data[section]}


def untouched(result, owner):
    """Objects of *result* an encoder may splice from *owner*'s store."""
    return {
        obj for key in ("nodes", "edges", "paths")
        for obj in getattr(result, key)
        if type(obj) in (str, int) and obj in getattr(owner, key)
        and result._labels.get(obj) is owner._labels.get(obj)
        and result._props.get(obj) is owner._props.get(obj)
        and result._rho.get(obj) is owner._rho.get(obj)
        and result._delta.get(obj) is owner._delta.get(obj)
    }


@given(graphs(), st.lists(st.sampled_from(CONSTRUCTS), min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_construct_results_match_plain_bytes(base, texts):
    engine = GCoreEngine()
    engine.register_graph("base", base, default=True)
    owner = engine.graph("base")
    own = own_entries(owner)
    for text in texts:
        result = engine.run(text)
        spliced = untouched(result, owner)
        new = spliced - set(owner._fragments)
        before = owner.wire_fragment_count()
        assert_wire(result)
        stored = owner._fragments
        # untouched elements are spliced (the store rises to hold them);
        # whatever the store holds is the owner's own entry, never a
        # relabelled, assigned, SET or copied element's
        if result.fragment_owner() is owner:
            assert spliced <= set(stored)
            assert owner.wire_fragment_count() == before + len(new)
        assert all(stored[obj] == own[obj] for obj in stored)
    assert owner.wire_fragment_count() <= object_count(owner)
