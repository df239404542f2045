"""Judge a change against its parent with the bounds of ``BENCHMARK.json``.

::

    python -m benchmarks.e2e.compare PARENT/result.json CHANGE/result.json
    python -m benchmarks.e2e.compare --self-check

Prints one row per workload x end-to-end metric — parent, change, the
ratio with its base, and a verdict: *improved*, *unchanged*, *regressed*,
or *unresolved* when either side ran under outside load or its rounds
spread wider than the metric's bound (the data cannot tell a move of
that size from noise, so it is never reported as unchanged). Exits 1 on
any regression.

``--self-check`` runs the whole benchmark twice on the current tree and
exits 1 unless every row comes out *unchanged*.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .stats import verdict

REPO_ROOT = Path(__file__).resolve().parents[2]

Row = Tuple[str, str, float, float, str]


def compare(parent: Dict[str, Any], change: Dict[str, Any],
            spec: Dict[str, Any]) -> List[Row]:
    """(workload, metric, parent value, change value, verdict) rows."""
    rows: List[Row] = []
    for name in (w["name"] for w in spec["workloads"]):
        if name not in parent["workloads"] or name not in change["workloads"]:
            continue
        p, c = parent["workloads"][name], change["workloads"][name]
        noisy = p["noisy"] or c["noisy"]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            rows.append((
                name, key,
                p["end_to_end"][key]["value"], c["end_to_end"][key]["value"],
                verdict(p["end_to_end"][key], c["end_to_end"][key],
                        metric["better"], metric["bound"], noisy),
            ))
        # error_rate has no bound to be within: any increase regresses.
        rates = [{"value": s["error_rate"], "min": s["error_rate"],
                  "max": s["error_rate"]} for s in (p, c)]
        rows.append((name, "error_rate", p["error_rate"], c["error_rate"],
                     verdict(rates[0], rates[1], "lower", 0.0)))
    return rows


def print_rows(rows: Sequence[Row]) -> None:
    print(f"{'workload':<14} {'metric':<20} {'parent':>12} {'change':>12} "
          f"{'change/parent':>14}  verdict")
    for workload, metric, parent, change, outcome in rows:
        ratio = f"{change / parent:.3f}" if parent else "n/a"
        print(f"{workload:<14} {metric:<20} {parent:>12.4f} {change:>12.4f} "
              f"{ratio:>14}  {outcome}")


def self_check(spec: Dict[str, Any]) -> List[Row]:
    """Run the benchmark twice (end-to-end phase) and compare the two."""
    results = []
    scratch = REPO_ROOT / spec["paths"][0] / "out"  # git-ignored
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for side in ("first", "second"):
            out = Path(tmp) / side
            subprocess.run(
                spec["command"] + ["--trace", "0", "--out", str(out)],
                cwd=REPO_ROOT, check=True, stdout=subprocess.DEVNULL,
            )
            results.append(json.loads((out / "result.json").read_text()))
    return compare(results[0], results[1], spec)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e.compare",
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("results", nargs="*", type=Path,
                        metavar="RESULT.json", help="parent, then change")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    if args.self_check:
        rows = self_check(spec)
        bad = {"regressed", "improved", "unresolved"}
    elif len(args.results) == 2:
        parent, change = (json.loads(p.read_text()) for p in args.results)
        rows = compare(parent, change, spec)
        bad = {"regressed"}
    else:
        parser.error("give PARENT.json and CHANGE.json, or --self-check")
    print_rows(rows)
    failures = [row for row in rows if row[4] in bad]
    if failures:
        print(f"\n{len(failures)} row(s) {'/'.join(sorted(bad))}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
