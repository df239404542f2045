"""Command line of the end-to-end benchmark.

Two ways in, one code path:

* the **driver contract** — ``--workload NAME --seed N --seconds S
  --trace 0|1`` runs one workload and prints, as the last line of
  stdout, ``{"correct", "attempted", "failed", "metrics"}`` with every
  end-to-end metric (``--trace 0``) or every per-layer metric
  (``--trace 1``) of ``BENCHMARK.json``;
* the **full run** — no ``--trace``: both phases, every workload (or the
  one named), rounds of different workloads interleaved so machine drift
  hits them alike; prints every metric with unit, spread and sample
  count and writes ``result.json`` for ``compare.py``.

Metric names, units and bounds are read from ``BENCHMARK.json``; this
module never spells a second copy of them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from . import loadgen, tracing
from .stats import over_rounds
from .workloads import BY_NAME, WORKLOADS, Workload

REPO_ROOT = loadgen.REPO_ROOT
DEFAULT_OUT = Path(__file__).resolve().parent / "out"
ROUNDS = 3
SMOKE_SCALE = 60
SCALING_SCALES = (100, 200)


def load_spec() -> Dict[str, Any]:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def environment(seed: int) -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "load_avg_start": loadgen.load_average(),
    }


def summarize(
    spec: Dict[str, Any],
    plan: loadgen.Plan,
    rounds: Sequence[loadgen.RoundResult],
    traced: Optional[Dict[str, float]],
) -> Dict[str, Any]:
    """One workload's entry of the result document.

    Latency statistics are taken over the passes of **all** rounds
    together (an op's median then rests on 6-18 replays, enough to shed
    the replays a collection or a hiccup hit); set-up time and peak RSS,
    which a round yields once, are medians over the rounds. Beside each
    value stand the same statistic of every single round and their
    min-max, the spread ``compare.py`` reads.
    """
    per_round = [
        {**loadgen.latency_metrics(plan, r.passes),
         "setup_s": r.setup_s, "server_peak_rss_mb": r.peak_rss_mb}
        for r in rounds
    ]
    hits = sum(r.plan_cache_hits for r in rounds)
    misses = sum(r.plan_cache_misses for r in rounds)
    measured = {
        **loadgen.latency_metrics(plan, [p for r in rounds for p in r.passes]),
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "server_peak_rss_mb": statistics.median(r.peak_rss_mb for r in rounds),
        "server.health_rtt_ms": statistics.median(r.health_rtt_ms for r in rounds),
        "engine.plan_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        **(traced or {}),
    }
    ok = [x for r in rounds for x in r.ok]
    return {
        "end_to_end": {
            m["name"]: over_rounds([r[m["name"]] for r in per_round],
                                   measured[m["name"]])
            for m in spec["end_to_end"]
        },
        # 0 where this workload has none: a class of another workload, a
        # layer the run did not exercise
        "per_layer": {m["name"]: measured.get(m["name"], 0.0)
                      for m in spec["per_layer"]},
        "attempted": len(ok),
        "failed": ok.count(False),
        "error_rate": ok.count(False) / len(ok),
        "correct": all(ok),
        "samples_per_round": [len(plan.ops) * len(r.passes) for r in rounds],
        "passes_per_round": [len(r.passes) for r in rounds],
        "noisy": any(r.noisy for r in rounds),
        "speed_factor_per_round": [r.speed_factor for r in rounds],
    }


def print_report(spec: Dict[str, Any], result: Dict[str, Any],
                 with_layers: bool) -> None:
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for name, summary in result["workloads"].items():
        samples = summary["samples_per_round"]
        print(f"\n== {name}  (samples per round: {samples}, "
              f"passes: {summary['passes_per_round']}"
              f"{', NOISY' if summary['noisy'] else ''})")
        for metric, entry in summary["end_to_end"].items():
            print(f"  {metric:<28} {entry['value']:>12.4f} {units[metric]:<6}"
                  f" [{entry['min']:.4f} .. {entry['max']:.4f}]"
                  f"  n={sum(samples)}")
        print(f"  {'error_rate':<28} {summary['error_rate']:>12.4f} fraction"
              f"  ({summary['failed']} of {summary['attempted']})")
        if with_layers:
            for metric, value in summary["per_layer"].items():
                if value:
                    print(f"    {metric:<42} {value:>14.4f} {units[metric]}")


def run(
    workloads: Sequence[Workload],
    seed: int,
    seconds: float,
    trace: Optional[int],
    smoke: bool,
    out_dir: Path,
    update_golden: bool = False,
) -> Dict[str, Any]:
    """Run the benchmark and return the result document."""
    spec = load_spec()
    env = environment(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    rounds = 1 if smoke or trace == 1 else ROUNDS
    round_seconds = 0.0 if smoke else seconds / ROUNDS

    plans = {
        w.name: loadgen.make_plan(
            w, seed, SMOKE_SCALE if smoke else w.scale, out_dir / "cache",
            update_golden=update_golden,
        )
        for w in workloads
    }
    measured: Dict[str, List[loadgen.RoundResult]] = {w.name: [] for w in workloads}
    for _ in range(rounds):  # round-robin: drift hits every workload alike
        for w in workloads:
            measured[w.name].append(
                loadgen.run_round(plans[w.name], round_seconds)
            )

    traced: Dict[str, Optional[Dict[str, float]]] = {w.name: None for w in workloads}
    if trace != 0:
        small, large = (SMOKE_SCALE // 2, SMOKE_SCALE) if smoke else SCALING_SCALES
        for w in workloads:
            outcome = tracing.trace_workload(plans[w.name], out_dir)
            traced[w.name] = {
                **outcome["metrics"],
                **tracing.scaling_exponents(w, seed, small, large),
            }
            (out_dir / f"trace-{w.name}.json").write_text(
                json.dumps({"workload": w.name, "seed": seed,
                            "spans": outcome["spans"]})
            )

    env["load_avg_end"] = loadgen.load_average()
    return {
        "environment": env,
        "seconds": seconds,
        "smoke": smoke,
        "workloads": {
            w.name: summarize(spec, plans[w.name], measured[w.name], traced[w.name])
            for w in workloads
        },
        "claim": None,
    }


def driver_line(spec: Dict[str, Any], summary: Dict[str, Any],
                trace: int) -> str:
    """The one-line result the benchmark driver parses."""
    if trace == 0:
        metrics = {
            m["name"]: {"value": summary["end_to_end"][m["name"]]["value"],
                        "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    else:
        metrics = {
            m["name"]: {"value": summary["per_layer"][m["name"]],
                        "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    return json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    })


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=sorted(BY_NAME),
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured seconds per workload, over all rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only; 1: per-layer only; "
                             "omitted: both phases")
    parser.add_argument("--smoke", action="store_true",
                        help=f"snb{SMOKE_SCALE}, 1 round, 1 pass")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite golden/<workload>.json (seed 42 only)")
    args = parser.parse_args(argv)
    if args.update_golden and (args.seed != 42 or args.smoke):
        parser.error("--update-golden needs --seed 42 at full scale")

    workloads = [BY_NAME[args.workload]] if args.workload else list(WORKLOADS)
    # SIGTERM must unwind the ``with ServerProcess`` blocks: no orphans.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    loadgen.pin_to_one_cpu()
    started = time.perf_counter()
    result = run(workloads, args.seed, args.seconds, args.trace, args.smoke,
                 args.out, update_golden=args.update_golden)
    result["wall_s"] = time.perf_counter() - started
    result["claim"] = result.pop("claim")  # keep it the document's last key
    (args.out / "result.json").write_text(json.dumps(result, indent=1) + "\n")

    print_report(spec, result, with_layers=args.trace != 0)
    print(f"\nwall time {result['wall_s']:.1f} s; "
          f"result written to {args.out / 'result.json'}")
    if args.workload and args.trace is not None:
        print(driver_line(spec, result["workloads"][args.workload], args.trace))
    return 0 if all(s["correct"] for s in result["workloads"].values()) else 1
