"""EXP-S1 — snapshot cold start vs rebuild, and shared-mapping RSS.

Two claims justify the storage subsystem (ISSUE 8):

* ``cold_start`` — ``GCoreEngine.open(path)`` on a saved snapshot must
  beat regenerating and registering the same dataset by >= 20x (the
  acceptance gate, asserted in full mode where the dataset is big
  enough for the ratio to be meaningful; smoke mode records timings
  only). The open is mmap + directory decode; the rebuild pays
  generation, validation and index construction.
* ``worker_rss`` — N worker processes attaching to one snapshot share
  its pages; the per-worker peak RSS (recorded in ``extra_info``)
  stays flat as the mapped graph grows, where fork-inherited dicts
  would be copied on write.
"""

import multiprocessing
import os
import resource
import time

import pytest

from repro import GCoreEngine
from repro.datasets import load

from .conftest import SMOKE, full_persons

PERSONS = full_persons(300) if not SMOKE else 40
SEED = 13
WORKERS = 4

_FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()


def rebuild_engine():
    engine = GCoreEngine()
    load("snb", scale=PERSONS, seed=SEED).install(engine)
    return engine


@pytest.fixture(scope="module")
def snapshot_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("bench_snapshot") / "snb.gsnap")
    rebuild_engine().save(path)
    return path


def test_cold_start_open(benchmark, snapshot_path):
    engine = benchmark(GCoreEngine.open, snapshot_path)
    assert "snb" in engine.catalog.graph_names()
    benchmark.extra_info["snapshot_bytes"] = os.path.getsize(snapshot_path)


def test_cold_start_rebuild(benchmark):
    engine = benchmark(rebuild_engine)
    assert "snb" in engine.catalog.graph_names()


@pytest.mark.skipif(SMOKE, reason="ratio is meaningless at smoke scale")
def test_cold_start_speedup_floor(snapshot_path):
    """The acceptance gate: snapshot open >= 20x faster than rebuild."""
    started = time.perf_counter()
    rebuild_engine()
    rebuild_seconds = time.perf_counter() - started

    best_open = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        GCoreEngine.open(snapshot_path)
        best_open = min(best_open, time.perf_counter() - started)

    assert best_open > 0
    speedup = rebuild_seconds / best_open
    assert speedup >= 20, (
        f"snapshot open {best_open:.4f}s vs rebuild {rebuild_seconds:.4f}s "
        f"= {speedup:.1f}x (< 20x floor)"
    )


def _attach_and_report(path, queue):
    from repro.storage import attach

    snapshot = attach(path)
    graph = snapshot.graph("snb")
    # Touch the hot read surfaces so the pages are genuinely resident.
    total = sum(1 for _ in graph.nodes)
    total += sum(len(graph.out_edges(node)) for node in graph.nodes)
    queue.put((total, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))


@pytest.mark.skipif(not _FORK_AVAILABLE, reason="needs process workers")
def test_worker_rss(benchmark, snapshot_path):
    """Peak RSS of N workers attached to one mapping, in extra_info."""
    ctx = multiprocessing.get_context("fork")

    def attach_workers():
        queue = ctx.Queue()
        procs = [
            ctx.Process(target=_attach_and_report, args=(snapshot_path, queue))
            for _ in range(WORKERS)
        ]
        for proc in procs:
            proc.start()
        reports = [queue.get(timeout=60) for _ in procs]
        for proc in procs:
            proc.join(timeout=60)
        return reports

    reports = benchmark.pedantic(attach_workers, rounds=1, iterations=1)
    touched, rss_kib = zip(*reports)
    assert all(count > 0 for count in touched)
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["peak_rss_kib_max"] = max(rss_kib)
    benchmark.extra_info["peak_rss_kib_mean"] = sum(rss_kib) // len(rss_kib)
    benchmark.extra_info["snapshot_bytes"] = os.path.getsize(snapshot_path)
