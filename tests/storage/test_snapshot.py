"""Binary snapshots: round trips, rejection paths, engine wiring."""

import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import repro
from repro import GCoreEngine
from repro.datasets import load
from repro.errors import (
    SnapshotFormatError,
    SnapshotVersionError,
    UnknownGraphError,
    UnknownTableError,
)
from repro.storage import (
    FORMAT_VERSION,
    SnapshotReader,
    SnapshotWriter,
    open_snapshot,
)
from repro.storage.format import _HEADER, MAGIC, decode_entry_table, decode_id, pack_u32

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

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


def make_engine(dataset="paper", **knobs):
    engine = GCoreEngine()
    load(dataset, **knobs).install(engine)
    return engine


def saved(tmp_path, engine, name="catalog.gsnap"):
    path = str(tmp_path / name)
    engine.save(path)
    return path


def run_python(args, timeout=120):
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        timeout=timeout, env=env,
    )


def assert_graph_equal(opened, oracle):
    assert opened == oracle  # nodes, rho, delta, labels, props
    assert oracle == opened
    for node in oracle.nodes:
        assert opened.labels(node) == oracle.labels(node)
        assert opened.properties(node) == oracle.properties(node)
        assert opened.out_edges(node) == oracle.out_edges(node)
        assert opened.in_edges(node) == oracle.in_edges(node)
    for edge in oracle.edges:
        assert opened.endpoints(edge) == oracle.endpoints(edge)
    for path in oracle.paths:
        assert opened.path_sequence(path) == oracle.path_sequence(path)
    opened_stats, oracle_stats = opened.statistics(), oracle.statistics()
    for field in STATISTICS_FIELDS:
        assert getattr(opened_stats, field) == getattr(oracle_stats, field)


def section_offset(path, name):
    """Where section *name* starts, read from the file's own directory."""
    with open(path, "rb") as handle:
        data = handle.read()
    _magic, _version, _flags, offset, length, _crc = _HEADER.unpack(
        data[: _HEADER.size]
    )
    directory = json.loads(data[offset : offset + length])
    section_start, section_length, _crc = directory["sections"][name]
    assert section_length > 0, f"section {name!r} is empty"
    return section_start


def flip_byte(path, offset):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


def figure2_section_names():
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "figure2.gsnap")
        make_engine("figure2").save(path)
        return sorted(SnapshotReader(path)._sections)


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dataset", ["paper", "figure2", "company"])
def test_round_trip_datasets(tmp_path, dataset):
    engine = make_engine(dataset)
    snapshot = open_snapshot(saved(tmp_path, engine))
    assert sorted(snapshot.graph_names()) == sorted(
        engine.catalog.graph_names()
    )
    for name in engine.catalog.graph_names():
        assert_graph_equal(snapshot.graph(name), engine.catalog.graph(name))
    for name in engine.catalog.table_names():
        assert snapshot.table(name) == engine.catalog.table(name)
    assert snapshot.default_graph_name == engine.catalog.default_graph_name


def test_round_trip_snb(tmp_path):
    engine = make_engine("snb", scale=60, seed=11)
    snapshot = open_snapshot(saved(tmp_path, engine))
    opened = snapshot.graph("snb")
    assert_graph_equal(opened, engine.catalog.graph("snb"))
    # the stored statistics are adopted, not rebuilt
    assert opened.cached_statistics() is not None


def test_decoded_value_and_label_sets_are_shared(tmp_path):
    engine = make_engine("snb", scale=60, seed=11)
    opened = open_snapshot(saved(tmp_path, engine)).graph("snb")
    persons = opened.nodes_with_label("Person")
    assert len({id(opened.labels(node)) for node in persons}) == 1
    employers = [
        opened.property(node, "employer") for node in persons
        if opened.property(node, "employer")
    ]
    assert len(set(employers)) > 1
    assert len({id(value_set) for value_set in employers}) == len(
        set(employers)
    )


def test_adjacency_matches_oracle(tmp_path):
    engine = make_engine("snb", scale=40, seed=5)
    oracle = engine.catalog.graph("snb")
    opened = open_snapshot(saved(tmp_path, engine)).graph("snb")
    for forward in (True, False):
        for label in (None, "knows", "hasInterest", "no_such_label"):
            assert opened._adjacency(forward, label) == oracle._adjacency(
                forward, label
            )


def legacy_csr(adjacency, index):
    """The adjacency CSR earlier writers stored (never read back)."""
    nodes = sorted(adjacency, key=index.__getitem__)
    starts, edges = [0], []
    for node in nodes:
        edges.extend(index[edge] for edge in adjacency[node])
        starts.append(len(edges))
    return pack_u32(
        [len(nodes), len(edges)] + [index[node] for node in nodes] + starts + edges
    )


def with_legacy_adjacency(path, out):
    """Rewrite the snapshot at *path* into *out* as earlier writers laid
    it out: plus one ``adj:out:`` / ``adj:in:`` CSR per edge label (and
    ``*`` for all edges), listed in the manifest."""
    reader = SnapshotReader(path)
    writer = SnapshotWriter()
    for name in sorted(reader._sections):
        writer.add(name, bytes(reader.section(name)))
    snapshot = open_snapshot(path)
    manifest = json.loads(json.dumps(reader.manifest))
    for entry in manifest["graphs"]:
        prefix, graph = entry["prefix"], snapshot.graph(entry["name"])
        ids = decode_entry_table(reader.section(prefix + "ids"), decode_id)
        index = {obj: position for position, obj in enumerate(ids)}
        label_names = sorted({l for obj in ids for l in graph.labels(obj)})
        edge_labels = sorted({l for edge in graph.edges for l in graph.labels(edge)})
        keys = []
        for label in [None, *edge_labels]:
            key = "*" if label is None else str(label_names.index(label))
            writer.add(f"{prefix}adj:out:{key}", legacy_csr(graph.out_adjacency(label), index))
            writer.add(f"{prefix}adj:in:{key}", legacy_csr(graph.in_adjacency(label), index))
            keys.append(key)
        entry["adj_out"] = entry["adj_in"] = keys
    writer.write(out, manifest)
    return out


def test_new_files_carry_no_adjacency(tmp_path):
    reader = SnapshotReader(saved(tmp_path, make_engine("snb", scale=40, seed=5)))
    assert not [name for name in reader._sections if ":adj:" in name]
    assert all("adj_out" not in entry for entry in reader.manifest["graphs"])
    assert FORMAT_VERSION == 1


@pytest.mark.parametrize("dataset, knobs", [("paper", {}), ("snb", {"scale": 40, "seed": 5})])
def test_files_with_adjacency_sections_open_unchanged(tmp_path, dataset, knobs):
    engine = make_engine(dataset, **knobs)
    path = saved(tmp_path, engine)
    legacy = with_legacy_adjacency(path, str(tmp_path / "legacy.gsnap"))
    assert os.path.getsize(legacy) > os.path.getsize(path)
    assert any(":adj:out:" in name for name in SnapshotReader(legacy)._sections)
    snapshot = open_snapshot(legacy)
    for name in engine.catalog.graph_names():
        assert_graph_equal(snapshot.graph(name), engine.catalog.graph(name))
    # their bytes are still checksummed like every section's
    flip_byte(legacy, section_offset(legacy, "g0:adj:in:*"))
    with pytest.raises(SnapshotFormatError, match="checksum mismatch"):
        open_snapshot(legacy)


def test_unknown_names_raise(tmp_path):
    snapshot = open_snapshot(saved(tmp_path, make_engine()))
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
    assert len(after.nodes) == node_count + 1
    # the pre-update epoch is untouched
    assert len(before.nodes) == node_count
    assert 900 not in before.nodes


SAVE_OVER_SCRIPT = """
import os, sys
from repro import GCoreEngine
from repro.datasets import load

def engine_for(dataset, **knobs):
    engine = GCoreEngine()
    load(dataset, **knobs).install(engine)
    return engine

path = sys.argv[1]
names = "SELECT n.firstName AS name MATCH (n:Person) ON social_graph ORDER BY name"
friends = ("SELECT a.firstName AS a, b.firstName AS b "
           "MATCH (a:Person)-[:knows]->(b:Person) ON social_graph ORDER BY a, b")
oracle = engine_for("paper")
oracle.save(path)
size = os.path.getsize(path)
served = GCoreEngine.open(path)

engine_for("figure2").save(path)
assert os.path.getsize(path) < size
assert served.run(names) == oracle.run(names)

engine_for("snb", scale=60, seed=3).save(path)
assert os.path.getsize(path) > size
assert served.run(friends) == oracle.run(friends)
print("ok")
"""


def test_saving_over_the_opened_path_leaves_the_engine_intact(tmp_path):
    # A subprocess, so that a crash (SIGBUS on a truncated mapping) is
    # reported as a failure instead of killing the test run.
    path = str(tmp_path / "served.gsnap")
    proc = run_python(["-c", SAVE_OVER_SCRIPT, path])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


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


@pytest.mark.parametrize("section", figure2_section_names())
def test_corrupt_section_fails_open(tmp_path, section):
    path = saved(tmp_path, make_engine("figure2"))
    flip_byte(path, section_offset(path, section))
    with pytest.raises(SnapshotFormatError, match="checksum mismatch"):
        GCoreEngine.open(path)


def test_rho_past_the_id_table_rejected(tmp_path):
    # CRC-valid bytes that were never a graph: the endpoint array points
    # past the identifier table.
    reader = SnapshotReader(saved(tmp_path, make_engine("figure2")))
    writer = SnapshotWriter()
    for name in sorted(reader._sections):
        payload = bytes(reader.section(name))
        if name.endswith(":rho"):
            payload = pack_u32([10**6] * (len(payload) // 4))
        writer.add(name, payload)
    bad = str(tmp_path / "bad.gsnap")
    writer.write(bad, reader.manifest)
    with pytest.raises(SnapshotFormatError, match="out of range"):
        GCoreEngine.open(bad)


def test_server_refuses_a_corrupt_snapshot(tmp_path):
    path = saved(tmp_path, make_engine("figure2"))
    flip_byte(path, section_offset(path, "g0:propcols"))
    proc = run_python(
        ["-m", "repro.server", "--snapshot", path, "--port", "0"], timeout=60
    )
    assert proc.returncode != 0
    assert "listening" not in proc.stdout
    assert "checksum mismatch" in proc.stderr


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
