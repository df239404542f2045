"""Binary snapshots: round trips, rejection paths, engine + pool wiring."""

import pickle
import struct

import pytest

from repro import GCoreEngine
from repro.datasets import load
from repro.errors import (
    SnapshotFormatError,
    SnapshotVersionError,
    UnknownGraphError,
    UnknownTableError,
)
from repro.model.graph import PathPropertyGraph
from repro.storage import (
    FORMAT_VERSION,
    FlatPathPropertyGraph,
    attach,
    open_snapshot,
)
from repro.storage.format import _HEADER, MAGIC
from repro.storage.snapshot import detach_all

STATISTICS_FIELDS = (
    "node_count",
    "edge_count",
    "path_count",
    "node_label_counts",
    "edge_label_counts",
    "path_label_counts",
    "edge_label_sources",
    "edge_label_targets",
    "_node_prop_sel",
    "_edge_prop_sel",
    "_path_prop_sel",
)


def make_engine(dataset="paper", **knobs):
    engine = GCoreEngine()
    load(dataset, **knobs).install(engine)
    return engine


def saved(tmp_path, engine, name="catalog.gsnap"):
    path = str(tmp_path / name)
    engine.save(path)
    return path


def assert_graph_equal(flat, oracle):
    assert isinstance(flat, FlatPathPropertyGraph)
    assert flat == oracle  # nodes, rho, delta, labels, props
    assert oracle == flat  # reflected: dict slots vs lazy mappings
    for node in oracle.nodes:
        assert flat.labels(node) == oracle.labels(node)
        assert flat.properties(node) == oracle.properties(node)
        assert flat.out_edges(node) == oracle.out_edges(node)
        assert flat.in_edges(node) == oracle.in_edges(node)
    for edge in oracle.edges:
        assert flat.endpoints(edge) == oracle.endpoints(edge)
    for path in oracle.paths:
        assert flat.path_sequence(path) == oracle.path_sequence(path)
    flat_stats, oracle_stats = flat.statistics(), oracle.statistics()
    for field in STATISTICS_FIELDS:
        assert getattr(flat_stats, field) == getattr(oracle_stats, field)


@pytest.fixture(autouse=True)
def _fresh_attach_cache():
    yield
    detach_all()


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dataset", ["paper", "figure2", "company"])
def test_round_trip_datasets(tmp_path, dataset):
    engine = make_engine(dataset)
    path = saved(tmp_path, engine)
    with open_snapshot(path) as snapshot:
        assert sorted(snapshot.graph_names()) == sorted(
            engine.catalog.graph_names()
        )
        for name in engine.catalog.graph_names():
            assert_graph_equal(snapshot.graph(name), engine.catalog.graph(name))
        for name in engine.catalog.table_names():
            assert snapshot.table(name) == engine.catalog.table(name)
        assert snapshot.default_graph_name == engine.catalog.default_graph_name


def test_round_trip_snb_and_mmap_off(tmp_path):
    engine = make_engine("snb", scale=60, seed=11)
    path = saved(tmp_path, engine)
    for mmap_flag in (True, False):
        with open_snapshot(path, mmap=mmap_flag) as snapshot:
            if not mmap_flag:
                assert not snapshot.mapped
            assert_graph_equal(snapshot.graph("snb"), engine.catalog.graph("snb"))
            snapshot.verify()


def test_adjacency_matches_oracle(tmp_path):
    engine = make_engine("snb", scale=40, seed=5)
    oracle = engine.catalog.graph("snb")
    path = saved(tmp_path, engine)
    with open_snapshot(path) as snapshot:
        flat = snapshot.graph("snb")
        for forward in (True, False):
            for label in (None, "knows", "hasInterest", "no_such_label"):
                assert flat._adjacency(forward, label) == oracle._adjacency(
                    forward, label
                )


def test_unknown_names_raise(tmp_path):
    path = saved(tmp_path, make_engine())
    with open_snapshot(path) as snapshot:
        with pytest.raises(UnknownGraphError):
            snapshot.graph("nope")
        with pytest.raises(UnknownTableError):
            snapshot.table("nope")


def test_engine_open_round_trip(tmp_path):
    engine = make_engine()
    path = saved(tmp_path, engine)
    reopened = GCoreEngine.open(path)
    assert sorted(reopened.catalog.graph_names()) == sorted(
        engine.catalog.graph_names()
    )
    assert reopened.catalog.default_graph_name == "social_graph"
    assert reopened.catalog.table("orders") == engine.catalog.table("orders")
    query = "SELECT n MATCH (n:Person) ON social_graph"
    assert reopened.run(query) == engine.run(query)


def test_with_name_keeps_flat_class(tmp_path):
    path = saved(tmp_path, make_engine("figure2"))
    with open_snapshot(path) as snapshot:
        graph = snapshot.graph("figure2")
        renamed = graph.with_name("other")
        assert isinstance(renamed, FlatPathPropertyGraph)
        assert renamed.name == "other"
        assert renamed == graph


def test_copy_on_write_update(tmp_path):
    from repro import GraphDelta

    engine = GCoreEngine.open(saved(tmp_path, make_engine("figure2")))
    before = engine.catalog.graph("figure2")
    node_count = len(before.nodes)
    delta = GraphDelta().add_node(
        900, labels=["Tag"], properties={"name": "Bruckner"}
    )
    engine.apply_update("figure2", delta)
    after = engine.catalog.graph("figure2")
    assert not isinstance(after, FlatPathPropertyGraph)
    assert isinstance(after, PathPropertyGraph)
    assert len(after.nodes) == node_count + 1
    # the mapped original is untouched
    assert isinstance(before, FlatPathPropertyGraph)
    assert len(before.nodes) == node_count
    assert 900 not in before.nodes


# ---------------------------------------------------------------------------
# Rejection paths
# ---------------------------------------------------------------------------

def test_bad_magic_rejected(tmp_path):
    path = saved(tmp_path, make_engine("figure2"))
    with open(path, "r+b") as handle:
        handle.write(b"NOTASNAP")
    with pytest.raises(SnapshotFormatError) as excinfo:
        open_snapshot(path)
    assert excinfo.value.code == "snapshot_format_error"
    assert excinfo.value.http_status == 422


def test_truncated_file_rejected(tmp_path):
    path = saved(tmp_path, make_engine("figure2"))
    with open(path, "rb") as handle:
        payload = handle.read()
    for cut in (4, len(payload) // 2, len(payload) - 3):
        short = str(tmp_path / f"cut{cut}.gsnap")
        with open(short, "wb") as handle:
            handle.write(payload[:cut])
        with pytest.raises(SnapshotFormatError):
            open_snapshot(short)


def test_corrupted_section_rejected(tmp_path):
    path = saved(tmp_path, make_engine("figure2"))
    with open(path, "r+b") as handle:
        handle.seek(_HEADER.size + 2)
        byte = handle.read(1)
        handle.seek(_HEADER.size + 2)
        handle.write(bytes([byte[0] ^ 0xFF]))
    with open_snapshot(path) as snapshot:
        with pytest.raises(SnapshotFormatError):
            snapshot.verify()


def test_version_mismatch_rejected(tmp_path):
    path = saved(tmp_path, make_engine("figure2"))
    with open(path, "r+b") as handle:
        handle.seek(len(MAGIC))
        handle.write(struct.pack("<H", FORMAT_VERSION + 1))
    with pytest.raises(SnapshotVersionError) as excinfo:
        open_snapshot(path)
    error = excinfo.value
    assert error.found == FORMAT_VERSION + 1
    assert error.supported == FORMAT_VERSION
    assert error.code == "snapshot_version_error"
    assert error.http_status == 422
    assert isinstance(error, SnapshotFormatError)


# ---------------------------------------------------------------------------
# Pickled graph references
# ---------------------------------------------------------------------------

def test_pickle_reopens_through_attach(tmp_path):
    path = saved(tmp_path, make_engine("figure2"))
    graph = GCoreEngine.open(path).catalog.graph("figure2")
    clone = pickle.loads(pickle.dumps(graph))
    assert isinstance(clone, FlatPathPropertyGraph)
    assert clone == graph
    assert clone.name == graph.name
    # attach() caches per path: a second unpickle shares the mapping
    again = pickle.loads(pickle.dumps(graph))
    assert again.store.reader is clone.store.reader


def test_attach_is_cached_per_path(tmp_path):
    path = saved(tmp_path, make_engine("figure2"))
    assert attach(path) is attach(path)
