"""Reference-speed scaling and the per-op aggregation of Phase 1."""

from pathlib import Path

import pytest

from benchmarks.e2e.loadgen import (
    REFERENCE_KERNEL_MS,
    PassResult,
    Plan,
    latency_metrics,
    op_speed_factors,
)
from benchmarks.e2e.workloads import BY_NAME, Op, class_names

SLOW = 2 * REFERENCE_KERNEL_MS  # a kernel run on a machine at half speed


def test_an_op_is_scaled_by_the_kernel_samples_around_it():
    samples = [(0.90, REFERENCE_KERNEL_MS), (1.00, SLOW), (1.11, SLOW),
               (5.00, REFERENCE_KERNEL_MS)]
    # op 1 ran 1.0 .. 1.1 s: three samples lie within a quarter second
    # op 2 ran 2.0 .. 2.1 s: none does, so the nearest before and after count
    factors = op_speed_factors([1.0, 2.0], [100.0, 100.0], samples)
    assert factors[0] == pytest.approx(0.5)
    assert factors[1] == pytest.approx(REFERENCE_KERNEL_MS / ((SLOW + REFERENCE_KERNEL_MS) / 2))


def _pass(latencies, ok=True):
    started = [float(i) for i in range(len(latencies))]
    # one kernel run at reference speed right before and after every op
    speed = [(t - 0.001, REFERENCE_KERNEL_MS) for t in started]
    speed.append((started[-1] + 0.5, REFERENCE_KERNEL_MS))
    return PassResult(started, list(latencies), [ok] * len(latencies),
                      [1.0] * len(latencies), speed)


def test_an_ops_latency_is_the_median_over_its_replays():
    workload = BY_NAME["join_mix"]
    ops = [Op(cls, "/query", {}) for cls in class_names(workload)]
    plan = Plan(workload, Path("unused"), ops, [""] * len(ops))
    passes = [_pass([10.0, 20.0, 30.0, 40.0]),
              _pass([10.0, 20.0, 30.0, 400.0]),  # a replay that hit a hiccup
              _pass([10.0, 20.0, 30.0, 40.0])]
    metrics = latency_metrics(plan, passes)
    assert metrics["latency_p50_ms"] == pytest.approx(25.0)
    assert metrics["latency_p90_ms"] == pytest.approx(37.0)
    assert metrics["throughput_rps"] == pytest.approx(4 / 0.1)
    assert metrics["server.http_overhead_ms"] == pytest.approx(1.0)
    assert metrics[f"server.class_p50_ms.{ops[3].cls}"] == pytest.approx(40.0)


def test_an_op_that_failed_once_is_not_counted_as_answered():
    workload = BY_NAME["join_mix"]
    ops = [Op(cls, "/query", {}) for cls in class_names(workload)]
    plan = Plan(workload, Path("unused"), ops, [""] * len(ops))
    good, bad = _pass([10.0] * 4), _pass([10.0] * 4)
    bad.ok[2] = False
    assert latency_metrics(plan, [good, bad])["throughput_rps"] == pytest.approx(3 / 0.04)
