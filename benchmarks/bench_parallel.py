"""EXP-P1 — morsel-driven parallel scaling at 1/2/4 workers.

Two workloads whose hot loops the worker pool covers end to end:

* ``exp_b1_join`` — the EXP-B1 triangle-ish multi-atom join from the
  planner ablation (hash-join probes dominate; the block tail after the
  first scan is dispatched as row-range morsels),
* ``filter_heavy_match`` — the EXP-E1 two-hop MATCH with pushable and
  join conjuncts (compiled WHERE kernels run per morsel).

Each runs at ``parallelism`` 1 (serial — no pool involved), 2 and 4 via
:class:`repro.config.ExecutionConfig`; the timing JSON is the scaling
ablation. ``test_parallel_matches_serial`` pins exactness (rows, order,
columns) and ``test_four_worker_floor`` enforces the ISSUE 7 acceptance
bar — >= 1.8x at 4 workers on snb100 — when the host actually has 4
cores to scale onto (the floor is meaningless on smaller machines, where
only parity is asserted).
"""

import os
import time

import pytest

from repro.config import DEFAULT_CONFIG, ExecutionConfig

from .conftest import SMOKE, full_persons, sizes, snb_engine

EXP_B1 = (
    "MATCH (m), (n:Person)-[:hasInterest]->(t:Tag {name='Wagner'}), "
    "(n)-[:knows]->(m) WHERE (m:Person)"
)

FILTER_HEAVY = (
    "SELECT n.firstName AS fn, m.firstName AS mf "
    "MATCH (n:Person)-[:knows]->(m:Person) "
    "WHERE n.employer = 'Acme' AND m.lastName >= 'M' "
    "AND m.firstName < n.firstName"
)

WORKERS = (1, 2, 4)

PERSONS = sizes([full_persons(100)], [20])


def _config(workers):
    return DEFAULT_CONFIG if workers <= 1 else ExecutionConfig(
        parallelism=workers
    )


def _cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def run_bindings(engine, text, workers):
    return engine.bindings(text, config=_config(workers))


def run_select(engine, statement, workers):
    return engine.run(statement, config=_config(workers))


@pytest.fixture(scope="module", params=PERSONS)
def engine(request):
    eng = snb_engine(request.param)
    eng.graph("snb").statistics()  # statistics amortize; warm them
    # Warm the worker pool + graph export once so fork/export cost does
    # not land inside the first timed round.
    eng.bindings(EXP_B1, config=ExecutionConfig(parallelism=4))
    return eng


@pytest.mark.parametrize("workers", WORKERS)
def test_exp_b1_join(benchmark, engine, workers):
    table = benchmark(run_bindings, engine, EXP_B1, workers)
    assert table is not None


@pytest.mark.parametrize("workers", WORKERS)
def test_filter_heavy_match(benchmark, engine, workers):
    statement = engine.parse(FILTER_HEAVY)
    table = benchmark(run_select, engine, statement, workers)
    assert table is not None


@pytest.mark.parametrize("text", [EXP_B1, FILTER_HEAVY])
def test_parallel_matches_serial(engine, text):
    """Every worker count yields the identical table — rows AND order."""
    if text.startswith("MATCH"):
        results = [run_bindings(engine, text, w) for w in WORKERS]
        reference = results[0]
        for other in results[1:]:
            assert other.variables == reference.variables
            assert list(other.rows) == list(reference.rows)
    else:
        statement = engine.parse(text)
        results = [run_select(engine, statement, w) for w in WORKERS]
        reference = results[0]
        for other in results[1:]:
            assert other.columns == reference.columns
            assert other.rows == reference.rows


def test_four_worker_floor(engine):
    """The ISSUE 7 acceptance bar, measured like the view-refresh gate.

    Only enforced where it is physically possible: a host with >= 4
    usable cores and the full-size graph. Elsewhere the workloads still
    run at 4 workers (parity is asserted above) but the speedup is not a
    property of this code, so it is not gated.
    """
    statement = engine.parse(FILTER_HEAVY)

    def best(callable_, repeats):
        elapsed = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            callable_()
            elapsed = min(elapsed, time.perf_counter() - start)
        return elapsed

    repeats = 3 if SMOKE else 5
    serial_time = best(lambda: run_select(engine, statement, 1), repeats)
    parallel_time = best(lambda: run_select(engine, statement, 4), repeats)

    if SMOKE or _cores() < 4:
        return  # measured for the record, floor not assertable here

    speedup = serial_time / parallel_time
    assert speedup >= 1.8, (
        f"4-worker run only {speedup:.2f}x faster than serial "
        f"(serial {serial_time * 1000:.1f}ms, parallel "
        f"{parallel_time * 1000:.1f}ms, floor 1.8x)"
    )
