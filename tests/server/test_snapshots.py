"""Snapshots: isolation, version lifetime, concurrent consistency.

Grown from the interleaved-update stress suite
(``tests/integration/test_update_consistency.py``): where that suite
checks that *sequential* update/query interleavings stay fresh, this one
checks the opposite guarantee for *concurrent* readers — a snapshot
taken before an update keeps answering from its own catalog version
(repeatable reads, never torn, never stale beyond the snapshot), and a
superseded version is freed once its last holder drops it. See
``docs/consistency.md`` for the model.
"""

import gc
import random
import threading
import weakref

import pytest

from repro import GCoreEngine, GraphBuilder, GraphDelta
from repro.catalog import Catalog
from repro.errors import SemanticError
from repro.table import Table

# Workload mirrors tests/integration/test_update_consistency.py (tests
# are not an importable package, so the helpers are restated here).
SELECT_QUERY = (
    "SELECT a.name, b.name MATCH (a:Person)-[e:knows]->(b:Person) "
    "WHERE a.score = $s ORDER BY a.name, b.name"
)


def seed_graph(n=12, rng=None):
    rng = rng or random.Random(7)
    b = GraphBuilder(name="g")
    names = [f"p{i}" for i in range(n)]
    for i, node in enumerate(names):
        b.add_node(node, labels=["Person"],
                   properties={"name": node, "score": i % 3})
    for j in range(2 * n):
        b.add_edge(rng.choice(names), rng.choice(names), edge_id=f"e{j}",
                   labels=["knows"])
    return b.build()


def random_delta(rng, graph, tag):
    nodes = sorted(graph.nodes, key=str)
    edges = sorted(graph.edges, key=str)
    delta = GraphDelta()
    kind = rng.choice(["grow", "shrink", "mutate"])
    if kind == "grow" or not edges:
        delta.add_node(f"q{tag}", labels=["Person"],
                       properties={"name": f"q{tag}",
                                   "score": rng.randint(0, 2)})
        delta.add_edge(f"k{tag}", f"q{tag}", rng.choice(nodes),
                       labels=["knows"])
    elif kind == "shrink":
        if rng.random() < 0.5 and len(nodes) > 4:
            delta.remove_node(rng.choice(nodes))
        else:
            delta.remove_edge(rng.choice(edges))
    else:
        delta.set_property(rng.choice(nodes), "score", rng.randint(0, 2))
    return delta


COUNT_QUERY = "SELECT COUNT(*) AS n MATCH (a:Person) ON g"
EDGE_QUERY = (
    "SELECT a.name, b.name MATCH (a:Person)-[e:knows]->(b:Person) ON g "
    "ORDER BY a.name, b.name"
)


def freed(refs, engine):
    """Whether every superseded graph version in *refs* (weak
    references) is gone: plan memos hold no graph, so nothing but a
    reader keeps one alive."""
    gc.collect()
    current = {id(engine.graph(name)) for name in engine.catalog.graph_names()}
    return all(ref() is None or id(ref()) in current for ref in refs)


def make_engine(seed=7):
    engine = GCoreEngine()
    engine.register_graph("g", seed_graph(rng=random.Random(seed)),
                          default=True)
    return engine


class TestSnapshotIsolation:
    def test_snapshot_pins_graph_version_across_updates(self):
        engine = make_engine()
        with engine.snapshot() as snap:
            pinned_graph = snap.graph("g")
            pinned_epoch = snap.epoch("g")
            before = snap.run(COUNT_QUERY).rows
            engine.apply_update(
                "g", GraphDelta().add_node("zz", labels=["Person"],
                                           properties={"name": "zz"}))
            # the engine moved on ...
            assert engine.catalog.epoch("g") == pinned_epoch + 1
            assert "zz" in engine.graph("g").nodes
            # ... the snapshot did not
            assert snap.graph("g") is pinned_graph
            assert snap.epoch("g") == pinned_epoch
            assert snap.run(COUNT_QUERY).rows == before
        # a fresh snapshot sees the new version
        with engine.snapshot() as snap2:
            assert "zz" in snap2.graph("g").nodes
            assert snap2.epoch("g") == pinned_epoch + 1

    def test_superseded_version_freed_when_its_holder_drops_it(self):
        engine = make_engine()
        snap = engine.snapshot()
        old = weakref.ref(snap.graph("g"))
        engine.apply_update(
            "g", GraphDelta().add_node("r1", labels=["Person"],
                                       properties={"name": "r1"}))
        gc.collect()
        # the superseded version lives while the reader holds it
        assert snap.graph("g") is old() is not engine.graph("g")
        del snap
        gc.collect()
        assert old() is None

    def test_snapshot_is_the_current_version_and_needs_no_release(self):
        engine = make_engine()
        with engine.snapshot() as snap:
            assert snap.catalog is engine.catalog
        # reads keep working after the with block: nothing was released
        assert snap.run(COUNT_QUERY).rows
        engine.apply_update("g", GraphDelta().add_node("n1"))
        assert snap.catalog is not engine.catalog
        assert snap.epoch("g") == engine.catalog.epoch("g") - 1

    def test_overlapping_snapshots_pin_distinct_epochs(self):
        engine = make_engine()
        snaps = []
        for step in range(4):
            snaps.append(engine.snapshot())
            engine.apply_update(
                "g", GraphDelta().add_node(f"s{step}", labels=["Person"],
                                           properties={"name": f"s{step}"}))
        epochs = [snap.epoch("g") for snap in snaps]
        assert epochs == sorted(epochs) and len(set(epochs)) == 4
        counts = [snap.run(COUNT_QUERY).rows[0][0] for snap in snaps]
        assert counts == [counts[0] + i for i in range(4)]
        # every snapshot was followed by an update, so all four versions
        # are superseded, alive while held and freed once dropped
        refs = [weakref.ref(snap.graph("g")) for snap in snaps]
        gc.collect()
        assert all(ref() is not None for ref in refs)
        del snaps
        assert freed(refs, engine)

    def test_shared_version_freed_only_after_last_holder(self):
        engine = make_engine()
        first = engine.snapshot()
        second = engine.snapshot()
        old = weakref.ref(first.graph("g"))
        engine.apply_update(
            "g", GraphDelta().add_node("x1", labels=["Person"],
                                       properties={"name": "x1"}))
        del first
        gc.collect()
        assert old() is second.graph("g")
        del second
        gc.collect()
        assert old() is None

    def test_snapshot_rejects_catalog_writes(self):
        engine = make_engine()
        with engine.snapshot() as snap:
            with pytest.raises(SemanticError):
                snap.run("GRAPH VIEW v AS (CONSTRUCT (n) MATCH (n:Person))")

    def test_snapshot_explain_matches_engine_explain(self):
        engine = make_engine()
        with engine.snapshot() as snap:
            assert snap.explain(EDGE_QUERY) == engine.explain(EDGE_QUERY)


def three_persons():
    b = GraphBuilder(name="g")
    for i in range(3):
        b.add_node(f"p{i}", labels=["Person"])
    return b.build()


class TestVersionsAreValues:
    """Each commit publishes a new catalog; no write touches an old one."""

    def test_statement_reads_one_version_while_writes_land(self, monkeypatch):
        """A write lands at every graph lookup of the statement; it
        still counts 3 x 3 pairs of one version (torn reads mixed
        versions: 7 x 8 = 56)."""
        engine = GCoreEngine()
        engine.register_graph("g", three_persons(), default=True)
        engine.run("GRAPH VIEW v AS (CONSTRUCT (n) MATCH (n:Person) ON g)")
        lookup, main, writes = Catalog.graph, threading.current_thread(), []

        def graph(catalog, name):
            if threading.current_thread() is main:
                writes.append(name)
                writer = threading.Thread(
                    target=engine.apply_update,
                    args=("g", GraphDelta().add_node(
                        f"w{len(writes)}", labels=["Person"])),
                )
                writer.start()
                writer.join()
            return lookup(catalog, name)

        monkeypatch.setattr(Catalog, "graph", graph)
        rows = engine.run("SELECT COUNT(*) AS c MATCH (a:Person) ON g, "
                          "(b:Person) ON v").rows
        monkeypatch.undo()
        assert writes and rows == ((9,),)
        assert len(engine.graph("g").nodes) == 3 + len(writes)

    @staticmethod
    def state(catalog):
        names = catalog.graph_names()
        return (
            {name: catalog.graph(name) for name in names},
            {name: catalog.table(name) for name in catalog.table_names()},
            {name: catalog.view_query(name) for name in catalog.view_names()},
            {name: catalog.path_view(name)
             for name in catalog.path_view_names()},
            catalog.default_graph_name,
            {name: catalog.epoch(name)
             for name in (*names, *catalog.table_names())},
        )

    def test_no_write_changes_a_published_version(self):
        engine = GCoreEngine()
        engine.register_graph("g", three_persons(), default=True)
        engine.register_graph("h", three_persons())
        engine.register_table("t", Table(("a",), [(1,)]))
        engine.register_path_view("PATH w = (x)-[e:knows]->(y)")
        captured, snap = engine.catalog, engine.snapshot()
        before = self.state(captured)
        writes = [
            lambda: engine.apply_update("g", GraphDelta().add_node("q")),
            lambda: engine.register_graph("g", seed_graph()),
            lambda: engine.register_table("t", Table(("a",), [(2,)])),
            lambda: engine.set_default_graph("h"),
            lambda: engine.register_path_view("PATH w = (x)-[e:r]->(y)"),
            lambda: engine.run("GRAPH VIEW v AS (CONSTRUCT (n) MATCH (n))"),
        ]
        for write in writes:
            write()
            assert self.state(captured) == before
            assert engine.catalog is not captured
            assert snap.catalog is captured
        assert self.state(engine.catalog) != before


class TestPreparedUnderSupersede:
    def test_prepared_query_on_pinned_snapshot_survives_update(self):
        """Regression: a reader executing a prepared query while
        ``apply_update`` supersedes its graph must serve the pinned
        epoch — not error, not see the new data."""
        engine = make_engine()
        prepared = engine.prepare(SELECT_QUERY)
        snap = engine.snapshot()
        baseline = {
            s: snap.execute_prepared(prepared, params={"s": s}).rows
            for s in (0, 1, 2)
        }
        # supersede the pinned graph; purges the prepared query's plan
        # memos for the old graph object
        engine.apply_update(
            "g", GraphDelta().add_node("q0", labels=["Person"],
                                       properties={"name": "q0", "score": 0}))
        engine.run(SELECT_QUERY, params={"s": 0})  # replan on new graph
        for s in (0, 1, 2):
            again = snap.execute_prepared(prepared, params={"s": s}).rows
            assert again == baseline[s], f"s={s} drifted after update"
        # and the current engine sees the new node
        fresh = engine.run(SELECT_QUERY, params={"s": 0})
        assert fresh.rows != baseline[0] or "q0" not in str(baseline[0])

    def test_plan_cache_concurrent_with_readers(self):
        """Writers publishing new versions while readers replay one
        prepared query never drop a reader into an error or a drifted
        result, and the held query pins none of the old versions."""
        engine = make_engine()
        prepared = engine.prepare(EDGE_QUERY)
        stop = threading.Event()
        errors = []

        seen = []

        def reader():
            with engine.snapshot() as snap:
                seen.append(weakref.ref(snap.graph("g")))
                expected = snap.execute_prepared(prepared).rows
                while not stop.is_set():
                    try:
                        got = snap.execute_prepared(prepared).rows
                    except Exception as error:  # noqa: BLE001 - recorded
                        errors.append(repr(error))
                        return
                    if got != expected:
                        errors.append("pinned result drifted")
                        return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        rng = random.Random(13)
        try:
            for step in range(30):
                delta = random_delta(rng, engine.graph("g"), step)
                engine.apply_update("g", delta)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not errors, errors
        assert freed(seen, engine)


class TestConcurrentConsistencyHarness:
    """The multi-client harness: N readers vs. M writers, cross-checked."""

    READERS = 4
    WRITERS = 2
    STEPS = 15

    def test_readers_never_see_torn_or_stale_beyond_pin_snapshots(self):
        engine = make_engine(seed=23)
        engine.prepare(EDGE_QUERY)
        start = threading.Barrier(self.READERS + self.WRITERS)
        done_writing = threading.Event()
        failures = []
        seen = []

        def reader(index):
            start.wait()
            # every reader reads at least once, even if the writers are
            # already done when it is first scheduled
            while True:
                with engine.snapshot() as snap:
                    pinned = snap.graph("g")
                    seen.append(weakref.ref(pinned))
                    epoch = snap.epoch("g")
                    # two reads inside one snapshot must agree with each
                    # other and with an oracle over the pinned graph
                    first = snap.run(EDGE_QUERY).rows
                    second = snap.run(EDGE_QUERY).rows
                    if first != second:
                        failures.append(f"reader {index}: torn read")
                        return
                    oracle = GCoreEngine()
                    oracle.register_graph("g", pinned, default=True)
                    expected = oracle.run(EDGE_QUERY).rows
                    if first != expected:
                        failures.append(
                            f"reader {index}: snapshot at epoch {epoch} "
                            f"disagrees with its own pinned graph"
                        )
                        return
                    if snap.graph("g") is not pinned:
                        failures.append(f"reader {index}: pin moved")
                        return
                if done_writing.is_set():
                    return

        def writer(index):
            rng = random.Random(2000 + index)
            start.wait()
            for step in range(self.STEPS):
                tag = f"{index}_{step}"
                for attempt in range(20):
                    delta = random_delta(rng, engine.graph("g"), tag)
                    try:
                        engine.apply_update("g", delta)
                        break
                    except Exception:
                        # concurrent writer removed our chosen node/edge
                        # between graph() and apply; retry with a fresh
                        # view of the graph
                        continue

        threads = [
            threading.Thread(target=reader, args=(i,), name=f"reader-{i}")
            for i in range(self.READERS)
        ] + [
            threading.Thread(target=writer, args=(i,), name=f"writer-{i}")
            for i in range(self.WRITERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            if thread.name.startswith("writer"):
                thread.join(timeout=120)
        done_writing.set()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures

        # every reader is done: each superseded version it read is freed
        assert len(seen) > 1
        assert freed(seen, engine)
        # and the final graph is coherent with a from-scratch oracle
        oracle = GCoreEngine()
        oracle.register_graph("g", engine.graph("g"), default=True)
        assert engine.run(EDGE_QUERY).rows == oracle.run(EDGE_QUERY).rows
