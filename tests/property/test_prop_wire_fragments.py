"""Wire byte-identity of graph results that splice cached fragments.

:func:`repro.model.io.encode_graph` reuses a catalog graph's encoded
objects in the results derived from it, per object or — for a
set-operation result that records what it changed — by filtering the
owner's whole encoded body. Whatever it reuses, a response must be the
bytes the plain formula gives:
``json.dumps({..., "graph": graph_to_dict(g), ...}, separators=(", ", ": "))``.
Every case encodes the owner first, so a wrong reuse would be served from
a warm store.
"""

import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st
from subgraphs import assert_union_ids, reference_union, subgraphs

from repro import GCoreEngine
from repro.catalog import Catalog
from repro.datasets import load
from repro.model.delta import GraphDelta
from repro.model.graph import PathPropertyGraph
from repro.model import io
from repro.model.io import encode_graph, graph_to_dict
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
        engine.register_graph("social_graph", load("paper").graphs["social_graph"], default=True)
        text = ("CONSTRUCT (n)-[e:likes]->(m) MATCH (n:Person)-[:knows]->(m) "
                "UNION social_graph")
        for _ in range(2):
            result = engine.run(text)
            assert result.fragment_owner() is engine.graph("social_graph")
            assert_wire(result)
        assert engine.graph("social_graph").wire_fragment_count() > 0

    def test_new_epoch_after_apply_update(self):
        engine = GCoreEngine()
        engine.register_graph("social_graph", load("paper").graphs["social_graph"], default=True)
        text = "CONSTRUCT (n) MATCH (n:Person) UNION social_graph"
        assert_wire(engine.run(text))
        before = engine.graph("social_graph")
        delta = GraphDelta()
        delta.set_property("john", "employer", "Initech")
        delta.add_label("peter", "Manager")
        assert before.wire_fragment_count() == object_count(before)
        engine.apply_update("social_graph", delta)
        after = engine.graph("social_graph")
        # the new epoch inherits every entry but those of the touched objects
        assert after is not before and after.wire_fragment_count() == object_count(before) - 2
        assert "john" not in after._fragments and "peter" not in after._fragments
        result = engine.run(text)
        assert result.fragment_owner() is after
        assert result.property("john", "employer") == {"Initech"}
        assert_wire(result)
        assert after.wire_fragment_count() == object_count(after)
        assert before.wire_fragment_count() == object_count(before)

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

#: "one" stands for the identifier 1, spelled 1, 1.0 or True per graph;
#: "1" is the string, which str() spells like the int.
NODE_POOL = ["a", "b", 2, "one", "1"]
EDGE_POOL = {"ab": ("a", "b"), 7: ("b", "one"), "a2": ("a", 2)}
PATH_POOL = {"p": ("a", "ab", "b"), 9: ("a", "a2", 2)}
VALUES = st.sampled_from([0, 1, "x", 2.5, True, Date.parse("2021-03-04")])


@st.composite
def graphs(draw, ones=(1, 1.0, True), pool=tuple(NODE_POOL)):
    one = draw(st.sampled_from(ones))

    def spell(obj):
        return one if obj == "one" else obj

    nodes = {spell(n) for n in draw(st.sets(st.sampled_from(pool)))}
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


# ---------------------------------------------------------------------------
# Change records: which encoder branch runs, and that what it trusts holds
# ---------------------------------------------------------------------------

SECTIONS = ("nodes", "edges", "paths")


@pytest.fixture()
def branches(monkeypatch):
    """Names the encoder branch of each encode_graph call, in order."""
    taken = []
    owner_sections, spliced_section = io._owner_sections, io._spliced_section

    def spy_owner(*args):
        sections = owner_sections(*args)
        taken.append("owner" if sections is not None else "declined")
        return sections

    def spy_spliced(*args):
        if args[-1] == "nodes":  # once per encode: the first section
            taken.append("object")
        return spliced_section(*args)

    monkeypatch.setattr(io, "_owner_sections", spy_owner)
    monkeypatch.setattr(io, "_spliced_section", spy_spliced)
    return taken


def assert_record_holds(graph):
    """Every object outside the change record is the owner's own."""
    owner, changed = graph.fragment_owner(), graph.changed_objects()
    if owner is None or changed is None:
        return
    for key in SECTIONS:
        for obj in getattr(graph, key):
            if obj in changed or obj not in getattr(owner, key):
                continue
            assert graph._labels.get(obj) is owner._labels.get(obj)
            assert graph._props.get(obj) is owner._props.get(obj)
            assert graph._rho.get(obj) is owner._rho.get(obj)
            assert graph._delta.get(obj) is owner._delta.get(obj)


def stores(graph):
    """*graph*'s ids and store entries (with each property dict's items)."""
    maps = (graph._labels, graph._props, graph._rho, graph._delta)
    return ((graph.nodes, graph.edges, graph.paths),
            [list(store.items()) for store in maps],
            [list(props.items()) for props in graph._props.values()])


def assert_untouched(graph, before):
    ids, entries, props = stores(graph)
    assert (ids, entries, props) == before
    for old, new in zip(before[1], entries):  # the very objects, too
        assert all(a[1] is b[1] for a, b in zip(old, new))


class TestOwnerBranch:
    @pytest.fixture()
    def snb(self):
        engine = GCoreEngine()
        load("snb", scale=40, seed=3).install(engine)
        return engine

    @pytest.mark.parametrize("text", [
        "CONSTRUCT (n) MATCH (n:Person) WHERE n.firstName <> 'x' UNION snb",
        "snb MINUS (CONSTRUCT (m) MATCH (m:Comment))",
        "snb INTERSECT snb",
    ])
    def test_union_base_and_minus_msgs_shapes_splice_the_body(
            self, snb, branches, text):
        result = snb.run(text)
        owner = snb.graph("snb")
        assert result.fragment_owner() is owner
        assert result.changed_objects() is not None
        assert_wire(result)
        assert branches == ["owner"] * 2
        assert owner.wire_fragment_count() == object_count(owner)

    def test_filter_employer_shape_goes_per_object(self, snb, branches):
        owner = snb.graph("snb")
        employer = min(value for person in owner.nodes_with_label("Person")
                       for value in owner.property(person, "employer"))
        result = snb.run("CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = $e",
                         params={"e": employer})
        assert result.nodes and result.fragment_owner() is owner
        assert result.changed_objects() is None  # CONSTRUCT: unknown
        assert_wire(result)
        assert branches == ["object"] * 2

    def test_small_set_operation_result_goes_per_object(self, snb, branches):
        owner = snb.graph("snb")
        persons = snb.run("CONSTRUCT (n) MATCH (n:Person)")
        small = graph_intersect(owner, persons)
        assert small.changed_objects() == set()
        assert object_count(small) < io._OWNER_SHARE * object_count(owner)
        assert_wire(small)
        assert branches == ["object"] * 2

    def test_changed_and_new_objects_are_encoded_fresh(self, snb, branches):
        owner = snb.graph("snb")
        assert_wire(owner)
        persons = snb.run("CONSTRUCT (n :Star {seen := 1}), (x :New) "
                          "MATCH (n:Person)")
        derived = graph_union(persons, owner)
        assert derived.changed_objects() >= persons.nodes
        assert_wire(derived)
        assert branches[-2:] == ["owner"] * 2
        stored, body = owner._fragments, encode_graph(derived)
        assert len(stored) == object_count(owner)
        entries = {entry["id"]: json.dumps(entry).encode()
                   for entry in graph_to_dict(derived)["nodes"]}
        for obj in derived.nodes:
            assert entries[obj] in body
            if obj not in owner.nodes:  # a new node: never stored
                assert obj not in stored
            elif obj in persons.nodes:  # relabelled and assigned: fresh
                assert b'"Star"' in entries[obj] and stored[obj] != entries[obj]

    def test_ids_spelled_alike_decline_the_branch(self, branches):
        owner = owned(ppg(["a", 1, "1"], labels={1: ["A"], "1": ["B"]}))
        branches.clear()
        assert_wire(graph_difference(owner, ppg(["a"])))
        assert branches == ["declined", "object"] * 2
        owner = owned(ppg(["a", 1]))
        branches.clear()
        assert_wire(graph_union(owner, ppg(["1"])))  # the new "1" beside 1
        assert branches == ["declined", "object"] * 2


#: Graphs whose ids all qualify for the owner branch (str/int, no two
#: spelled alike), mixed with ones that do not.
CHAIN_GRAPHS = st.one_of(graphs(), graphs(ones=(1,), pool=("a", "b", 2, "one")))


def derivations():
    """One step of a chain: (op name, derived graph on the left, the
    other operand, whether that operand derives from the owner too)."""
    return st.tuples(
        st.sampled_from(["union", "intersect", "minus", "with_name"]),
        st.booleans(), CHAIN_GRAPHS, st.booleans())


@given(CHAIN_GRAPHS, st.lists(derivations(), max_size=4))
@settings(max_examples=200, deadline=None)
def test_change_records_hold_along_random_chains(base, steps):
    owner = owned(base)
    operands = [(owner, stores(owner))]
    derived = owner
    for name, derived_left, other, share_owner in steps:
        if share_owner:  # the other operand derives from the owner, too
            other = graph_difference(owner, other)
        operands.append((derived, stores(derived)))
        operands.append((other, stores(other)))
        if name == "with_name":
            result = derived.with_name("")
        else:
            op = {"union": graph_union, "intersect": graph_intersect,
                  "minus": graph_difference}[name]
            result = op(derived, other) if derived_left else op(other, derived)
        assert encode_graph(result) == json.dumps(
            graph_to_dict(result)).encode("utf-8")
        assert_record_holds(result)
        assert_wire(result)
        derived = result
    for graph, before in operands:
        assert_untouched(graph, before)
    assert owner.wire_fragment_count() <= object_count(owner)


@given(st.data(), CHAIN_GRAPHS, st.booleans(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_unions_with_a_subgraph_of_the_owner(data, base, owner_left, named):
    """The owner and one of its sub-graphs (its very objects, equal
    copies or fewer labels and properties; 1 as 1, 1.0 or TRUE), either
    way round: the A.5 union, its records hold, its bytes are plain."""
    owner = owned(base)
    sub = data.draw(subgraphs(owner))
    sub = owned(sub, "sub") if named else sub
    left, right = (owner, sub) if owner_left else (sub, owner)
    union = graph_union(left, right)
    assert union == reference_union(left, right)
    assert_union_ids(union, left, right)
    assert union.plain_ids() == plain_scan(union)
    assert_record_holds(union)
    assert_wire(union)
    assert owner.wire_fragment_count() <= object_count(owner)


# ---------------------------------------------------------------------------
# The entry writer on awkward ids and values, on every encoder branch
# ---------------------------------------------------------------------------

#: characters JSON escapes or spells as ``\uXXXX`` (lone surrogates too)
AWKWARD = st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\x7f", "é", " ",
                           "\ud800", "\udfff", "日", "\U0001f600", "a", "1"])
TEXTS = st.one_of(st.text(AWKWARD, max_size=3), st.text(max_size=3))
INTS = st.one_of(st.integers(-2 ** 70, 2 ** 70),
                 st.sampled_from([2 ** 53, 2 ** 53 + 1, -2 ** 53 - 1, -1, 0]))
FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]),
                   st.floats())
DATES = st.builds(Date, st.integers(1, 9999), st.integers(1, 12), st.integers(1, 28))
WIRE_VALUES = st.one_of(TEXTS, INTS, FLOATS, st.booleans(), DATES)
#: ``str`` and ``int`` ids mixed, and the identifier 1 in all its spellings
WIRE_IDS = st.one_of(TEXTS, INTS, st.sampled_from([1, 1.0, True]))


def labels_and_props(draw, objects):
    labels = {obj: draw(st.sets(TEXTS, max_size=2)) for obj in objects}
    props = {obj: {key: draw(st.sets(WIRE_VALUES, min_size=1, max_size=3))
                   for key in draw(st.sets(TEXTS, max_size=2))}
             for obj in objects}
    return labels, props


@st.composite
def wire_graphs(draw):
    """Nodes, edges between them and walks over those edges as paths."""
    ids = draw(st.lists(WIRE_IDS, unique=True, max_size=10))
    cut = draw(st.integers(0, len(ids)))
    nodes, edges, paths = ids[:cut], {}, {}
    for obj in ids[cut:]:
        if nodes and (not edges or draw(st.booleans())):
            edges[obj] = (draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes)))
            continue
        sequence = [draw(st.sampled_from(nodes))] if nodes else []
        for _ in range(draw(st.integers(0, 2)) if nodes else 0):
            steps = [(edge, ends[1] if ends[0] == sequence[-1] else ends[0])
                     for edge, ends in edges.items() if sequence[-1] in ends]
            if steps:
                sequence += draw(st.sampled_from(steps))
        if sequence:
            paths[obj] = tuple(sequence)
    labels, props = labels_and_props(draw, [*nodes, *edges, *paths])
    return ppg(nodes, edges, paths, labels, props)


@st.composite
def wire_derivations(draw):
    """A graph, and one that shares some of its objects (as they are or
    relabelled and reassigned, the identifier 1 perhaps respelled)."""
    base = draw(wire_graphs())
    kept = {obj for obj in sorted(base.nodes, key=repr) if draw(st.booleans())}
    edges = {edge: ends for edge, ends in sorted(base._rho.items(), key=repr)
             if set(ends) <= kept and draw(st.booleans())}
    paths = {pid: seq for pid, seq in sorted(base._delta.items(), key=repr)
             if set(seq) <= kept | set(edges) and draw(st.booleans())}
    objects = [*kept, *edges, *paths]
    labels, props = labels_and_props(draw, objects)
    same = {obj for obj in objects if draw(st.booleans())}
    labels.update((obj, base.labels(obj)) for obj in same)
    props.update((obj, base.properties(obj)) for obj in same)
    one = draw(st.sampled_from([1, 1.0, True]))

    def spell(obj):
        return one if obj == 1 else obj

    other = ppg(map(spell, kept),
                {spell(e): tuple(map(spell, ends)) for e, ends in edges.items()},
                {spell(p): tuple(map(spell, seq)) for p, seq in paths.items()},
                {spell(o): ls for o, ls in labels.items()},
                {spell(o): ps for o, ps in props.items()})
    return base, other


def plain_scan(graph):
    return all(type(obj) in (str, int) for key in SECTIONS for obj in getattr(graph, key))


@given(wire_graphs())
@settings(max_examples=300, deadline=None)
def test_ownerless_graphs_with_awkward_values_match_plain_bytes(graph):
    assert graph.fragment_owner() is None
    assert_wire(graph)
    labels = {}
    for key in SECTIONS:
        for obj in getattr(graph, key):
            assert io._encoded(graph, obj, labels) == json.dumps(
                io._entry(graph, obj)).encode("utf-8")


@given(wire_derivations(), OPS, st.booleans())
@settings(max_examples=300, deadline=None)
def test_awkward_values_and_ids_on_the_owner_and_per_object_branches(
        pair, op, owner_left):
    base, other = pair
    owner = owned(base)  # the owner branch when its ids allow it
    derived = op(owner, other) if owner_left else op(other, owner)
    assert_wire(derived)
    assert derived.plain_ids() == plain_scan(derived)
    per_object = PathPropertyGraph._assemble_normalized(
        derived.nodes, derived._rho, derived._delta, derived._labels,
        derived._props, owner=derived.fragment_owner())
    assert per_object.changed_objects() is None
    assert_wire(per_object)


@pytest.mark.parametrize("shape", ["ownerless", "object", "owner"])
def test_each_branch_writes_awkward_entries(branches, shape):
    nodes = ["\ud800\"", 2 ** 60, -3, "é\\\x00"]
    base = ppg(nodes, edges={" ": (2 ** 60, -3)},
               paths={-7: (2 ** 60, " ", -3), "solo": ("é\\\x00",)},
               labels={-3: ["L\"", "\udfff"], 2 ** 60: ["L\""]},
               props={-3: {"k\n": [math.nan, -0.0, 5e-324, math.inf]},
                      2 ** 60: {"d": [Date(2020, 1, 2), True, 2 ** 53 + 1, "x"]},
                      " ": {"w": -math.inf}})
    if shape == "ownerless":
        assert_wire(base)
        assert branches == []
        return
    owner = owned(base)
    branches.clear()
    if shape == "object":
        derived = graph_union(owner, ppg([-3], labels={-3: ["New"]}))
        derived = PathPropertyGraph._assemble_normalized(
            derived.nodes, derived._rho, derived._delta, derived._labels,
            derived._props, owner=owner)
    else:
        derived = graph_union(ppg([-3, "fresh\ud800"], labels={-3: ["New"]},
                                  props={"fresh\ud800": {"q": [math.nan]}}), owner)
    assert_wire(derived)
    assert branches == [shape] * 2


@given(CHAIN_GRAPHS, st.lists(st.tuples(OPS, st.booleans(), CHAIN_GRAPHS), max_size=4))
@settings(max_examples=300, deadline=None)
def test_plain_ids_along_set_operation_chains_is_a_fresh_scan(base, steps):
    derived = owned(base)
    assert derived.plain_ids() == plain_scan(derived)
    for op, derived_left, other in steps:
        derived = op(derived, other) if derived_left else op(other, derived)
        assert derived.plain_ids() == plain_scan(derived)
        assert derived.with_name("").plain_ids() == plain_scan(derived)
    assert_wire(derived)
