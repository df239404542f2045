"""Property: an epoch's inherited indexes equal a fresh build, exactly.

``apply_delta`` hands the new graph every index its base has built —
label buckets, adjacency (label-bucketed, and the unlabelled buckets
``out_edges``/``in_edges`` read) and value indexes — patched from the delta's effects instead of rebuilt. Random
graphs with stored paths go through random delta sequences; before each
step a random subset of the indexes is built on the base. After the
step every index the new graph holds must equal a fresh build on the
same parts (adjacency tuples in exact order, value indexes as
``{value: set}`` because a probe only reads carriers as a set), the new
graph must hold exactly the indexes its base holds, and the base's
indexes, stores and property dicts must equal their copies from before
the step: readers pinned to it see nothing change.

The wire-fragment store is inherited too, less what the delta touched:
through an engine, each kept entry must equal a fresh encoding on the
new epoch, and results derived from it must still encode to the plain
``json.dumps(graph_to_dict(...))``.

Deltas mix cascading node removals (through edges and stored paths),
self-loops, objects added and removed in one delta, identifiers
recycled across kinds, labels removed until none are left, and
multi-valued and ``1`` / ``1.0`` / ``TRUE`` values.
"""

import copy
import json
import sys
import threading
import time

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import GCoreEngine, GraphBuilder, GraphDelta, apply_delta
from repro.model.graph import PathPropertyGraph
from repro.model.io import _encoded, encode_graph, graph_to_dict

NODE_LABELS = ["A", "B"]
EDGE_LABELS = ["r", "s"]
KEYS = ["k", "w"]
VALUES = [1, 1.0, True, "1", "x", 2, None, [1, 2], [True, "x"], [1.0, "y"]]
ADJACENCY_KEYS = [
    (direction, label)
    for direction in ("out", "in")
    for label in (None, "r", "s", "nolabel")
]


def draw_props(draw):
    props = {}
    for key in KEYS:
        value = draw(st.sampled_from(VALUES))
        if value is not None and draw(st.booleans()):
            props[key] = value
    return props


@st.composite
def graphs(draw):
    builder = GraphBuilder(name="g")
    nodes = [f"n{i}" for i in range(draw(st.integers(1, 6)))]
    for node in nodes:
        builder.add_node(
            node,
            labels=draw(st.lists(st.sampled_from(NODE_LABELS), unique=True)),
            properties=draw_props(draw),
        )
    out = {node: [] for node in nodes}
    for index in range(draw(st.integers(0, 10))):
        src = draw(st.sampled_from(nodes))
        dst = draw(st.sampled_from(nodes))  # self-loops included
        edge = f"e{index}"
        builder.add_edge(
            src, dst, edge_id=edge,
            labels=draw(st.lists(st.sampled_from(EDGE_LABELS), unique=True)),
            properties=draw_props(draw),
        )
        out[src].append((edge, dst))
    for index in range(draw(st.integers(0, 3))):
        at = draw(st.sampled_from(nodes))
        sequence = [at]
        for _ in range(draw(st.integers(0, 3))):
            if not out[at]:
                break
            edge, at = draw(st.sampled_from(out[at]))
            sequence += [edge, at]
        builder.add_path(
            sequence, path_id=f"p{index}",
            labels=draw(st.lists(st.sampled_from(["P"]), unique=True)),
            properties=draw_props(draw),
        )
    return builder.build()


def unindexed(graph):
    """An equal graph holding no index (the fresh-build oracle)."""
    return PathPropertyGraph(
        nodes=graph.nodes, edges=graph.rho, paths=graph.delta,
        labels=graph.label_map(), properties=graph.property_map(),
    )


def draw_delta(draw, graph, counter):
    """Up to six operations, each valid against the state before it."""
    delta = GraphDelta()
    scratch = unindexed(graph)
    current = scratch
    retired = []  # ids removed earlier, free to come back as any kind
    for step in range(draw(st.integers(1, 6))):
        objects = sorted(current.objects(), key=str)
        nodes = sorted(current.nodes, key=str)
        choices = ["add_node"]
        if nodes:
            choices += ["add_edge", "remove_node", "add_label",
                        "remove_label", "set_property", "remove_property"]
        if current.edges:
            choices.append("remove_edge")
        kind = draw(st.sampled_from(choices))
        fresh = [f"x{counter}_{step}"] + [
            obj for obj in retired if obj not in current
        ]
        if kind == "add_node":
            delta.add_node(
                draw(st.sampled_from(fresh)),
                labels=draw(st.lists(st.sampled_from(NODE_LABELS), unique=True)),
                properties=draw_props(draw),
            )
        elif kind == "add_edge":
            delta.add_edge(
                draw(st.sampled_from(fresh)),
                draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes)),
                labels=draw(st.lists(st.sampled_from(EDGE_LABELS), unique=True)),
                properties=draw_props(draw),
            )
        elif kind == "remove_node":
            delta.remove_node(draw(st.sampled_from(nodes)))
        elif kind == "remove_edge":
            delta.remove_edge(draw(st.sampled_from(sorted(current.edges, key=str))))
        elif kind == "add_label":
            delta.add_label(
                draw(st.sampled_from(objects)),
                draw(st.sampled_from(NODE_LABELS + EDGE_LABELS)),
            )
        elif kind == "remove_label":
            obj = draw(st.sampled_from(objects))
            held = sorted(current.labels(obj)) or ["A"]
            delta.remove_label(obj, draw(st.sampled_from(held)))
        elif kind == "set_property":
            delta.set_property(
                draw(st.sampled_from(objects)), draw(st.sampled_from(KEYS)),
                draw(st.sampled_from(VALUES)),
            )
        else:
            delta.remove_property(
                draw(st.sampled_from(objects)), draw(st.sampled_from(KEYS))
            )
        before = set(current.objects())
        current, _ = apply_delta(scratch, delta)
        retired += sorted(before - set(current.objects()), key=str)
    return delta


def build_some_indexes(draw, graph):
    if draw(st.booleans(), label="label indexes"):
        graph.nodes_with_label("A")
    if draw(st.booleans(), label="incidence lists"):
        graph.out_edges("n0")
        graph.in_edges("n0")
    for direction, label in draw(
        st.lists(st.sampled_from(ADJACENCY_KEYS), unique=True),
        label="adjacency",
    ):
        graph._adjacency(direction == "out", label)
    for key in draw(
        st.lists(st.sampled_from(KEYS + ["absent"]), unique=True),
        label="value indexes",
    ):
        graph.property_index(key)


INDEX_SLOTS = ("_node_label_index", "_edge_label_index", "_path_label_index")


def state_of(graph):
    """A deep copy of everything a reader of *graph* can observe."""
    return copy.deepcopy({
        "stores": (graph._nodes, graph._rho, graph._delta, graph._labels,
                   graph._props),
        "slots": {slot: getattr(graph, slot) for slot in INDEX_SLOTS},
        "adjacency": graph._adjacency_cache,
        "values": graph._property_indexes,
    })


def as_sets(index):
    return {value: set(carriers) for value, carriers in index.items()}


def assert_built_indexes_are_fresh(graph):
    oracle = unindexed(graph)
    if graph._path_label_index is not None:
        oracle._build_label_indexes()
        for slot in INDEX_SLOTS[:3]:
            assert getattr(graph, slot) == getattr(oracle, slot), slot
    for (direction, label), index in graph._adjacency_cache.items():
        assert index == oracle._adjacency(direction == "out", label), (
            direction, label,
        )
    for key, index in graph._property_indexes.items():
        assert as_sets(index) == as_sets(oracle._build_property_index(key)), key


def assert_inherited_indexes_are_fresh(new, base):
    assert (new._path_label_index is None) == (base._path_label_index is None)
    assert set(new._adjacency_cache) == set(base._adjacency_cache)
    assert new.built_property_indexes() == base.built_property_indexes()
    assert_built_indexes_are_fresh(new)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=graphs(), steps=st.integers(1, 4), data=st.data())
def test_inherited_indexes_equal_a_fresh_build(graph, steps, data):
    for step in range(steps):
        build_some_indexes(data.draw, graph)
        delta = draw_delta(data.draw, graph, step)
        before = state_of(graph)
        new, _ = apply_delta(graph, delta)
        after = state_of(graph)
        # the base may have built its unlabelled adjacency for a cascade;
        # every index it held before, and everything else, is untouched
        for slot, index in before["slots"].items():
            if index is not None:
                assert after["slots"][slot] == index, slot
        assert after["stores"] == before["stores"]
        for key, index in before["adjacency"].items():
            assert after["adjacency"][key] == index, key
        built = set(after["adjacency"]) - set(before["adjacency"])
        assert built <= {("out", None), ("in", None)}, built
        assert after["values"] == before["values"]
        assert_inherited_indexes_are_fresh(new, graph)
        graph = new


def test_readers_building_indexes_while_a_writer_inherits_them():
    """Readers lazily build a graph's indexes while the writer derives
    the next epoch from it: no error, and every index of every epoch
    equals a fresh build. Each base is published without indexes, so the
    writer reads slots and caches that readers are filling."""
    builder = GraphBuilder(name="g")
    for i in range(200):
        builder.add_node(f"n{i}", labels=["A"], properties={"k": i % 3})
    for i in range(400):
        builder.add_edge(f"n{i % 200}", f"n{i * 7 % 200}", edge_id=f"e{i}",
                         labels=["r" if i % 3 else "s"])
    bases = [builder.build()]
    epochs = []
    errors = []
    done = threading.Event()

    def reader(label, key):
        try:
            while not done.is_set():
                graph = bases[-1]
                graph.nodes_with_label("A")
                graph.in_edges("n1")
                graph.out_adjacency(label)
                graph.property_index(key)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    def writer():
        try:
            for i in range(150):
                delta = (
                    GraphDelta()
                    .add_node(f"x{i}", labels=["A"], properties={"k": i % 3})
                    .add_edge(f"y{i}", f"x{i}", f"n{i % 200}", labels=["r", "s"])
                    .set_property(f"n{i % 200}", "k", 5)
                    .set_property(f"n{i % 200}", "r", 1)
                )
                bases.append(unindexed(bases[-1]))
                time.sleep(0.0005)  # readers start building its indexes
                epochs.append(apply_delta(bases[-1], delta)[0])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)
        finally:
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=reader, args=pair)
            for pair in (("r", "k"), ("s", "r"), (None, "k"))
        ]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(epochs) == 150
    for graph in epochs:
        assert_built_indexes_are_fresh(graph)


def test_unchanged_indexes_are_shared_and_changed_ones_copied():
    builder = GraphBuilder(name="g")
    builder.add_node("a", labels=["A"], properties={"k": 1})
    builder.add_node("b", labels=["B"], properties={"k": 2})
    builder.add_edge("a", "b", edge_id="ab", labels=["r"])
    graph = builder.build()
    graph.nodes_with_label("A")
    graph.out_edges("a")
    graph.out_adjacency("r")
    graph.property_index("k")
    graph.property_index("w")
    new, _ = apply_delta(graph, GraphDelta().set_property("a", "k", 3))
    # a value change touches only that key's value index
    assert new._node_label_index is graph._node_label_index
    assert new._adjacency_cache[("out", None)] is graph._adjacency_cache[("out", None)]
    assert new._adjacency_cache[("out", "r")] is graph._adjacency_cache[("out", "r")]
    assert new._property_indexes["w"] is graph._property_indexes["w"]
    assert new._property_indexes["k"] is not graph._property_indexes["k"]
    assert as_sets(new.property_index("k")) == {2: {"b"}, 3: {"a"}}
    assert as_sets(graph.property_index("k")) == {1: {"a"}, 2: {"b"}}
    # the caches themselves are the new epoch's own
    assert new._adjacency_cache is not graph._adjacency_cache
    assert new._property_indexes is not graph._property_indexes
    # and only the changed object's property dict is copied
    assert new._props["b"] is graph._props["b"]
    assert new._props["a"] is not graph._props["a"]


#: The shapes of the benchmark's graph results over a catalog graph g:
#: union_base, minus_msgs and a bare CONSTRUCT.
WIRE_QUERIES = [
    "CONSTRUCT (n) MATCH (n:A) UNION g",
    "g MINUS (CONSTRUCT (m) MATCH (m:B))",
    "CONSTRUCT (n) MATCH (n)",
]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=graphs(), steps=st.integers(1, 4), data=st.data())
def test_new_epoch_inherits_the_untouched_wire_fragments(graph, steps, data):
    engine = GCoreEngine()
    engine.register_graph("g", graph, default=True)
    for step in range(steps):
        base = engine.graph("g")
        for text in data.draw(st.lists(st.sampled_from(WIRE_QUERIES), unique=True)):
            result = engine.run(text)
            assert encode_graph(result) == json.dumps(graph_to_dict(result)).encode()
        delta = draw_delta(data.draw, base, step)
        stored = dict(base._fragments)
        touched = apply_delta(base, delta)[1].touched
        engine.apply_update("g", delta)
        new = engine.graph("g")
        assert base._fragments == stored  # readers pinned to base see it whole
        assert set(new._fragments) == set(stored) - touched
        for obj, entry in new._fragments.items():
            assert entry == _encoded(new, obj, {}), obj
    for text in WIRE_QUERIES:
        result = engine.run(text)
        assert encode_graph(result) == json.dumps(graph_to_dict(result)).encode()
