"""CLI for the differential fuzzer: ``python -m repro.fuzz``.

Fuzzing mode (the default) generates seed-addressed statements, filters
them through the static analyzer, executes each survivor across the
requested :class:`~repro.config.ExecutionConfig` lattice points plus the
strict-analysis oracle, and — on the first divergence — shrinks it to a
minimal reproducer and reports the deterministic JSON counterexample on
stdout (and to ``--out`` when given). Exit status 1 signals a
counterexample, 0 a clean run, 2 a usage error.

Replay mode (``--replay FILE`` / ``--replay-dir DIR``) re-runs committed
corpus entries: entries record *fixed* bugs, so a clean replay exits 0
and a reproducing divergence exits 1 (that is the regression the corpus
guards against — see ``tests/fuzz/test_corpus_replay.py`` and the
``fuzz-smoke`` CI job).

Examples::

    python -m repro.fuzz --seeds 500
    python -m repro.fuzz --seeds 200 --configs default naive-planner --time-budget 30
    python -m repro.fuzz --replay tests/fuzz/corpus/0001-lazy-path-view-resolution.json
    python -m repro.fuzz --replay-dir tests/fuzz/corpus
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from ..errors import GCoreError
from .corpus import Counterexample, load_counterexample
from .differential import (
    DEFAULT_LATTICE,
    DifferentialTester,
    build_engine,
    parse_configs,
)
from .generate import QueryGenerator
from .grammar import Vocabulary
from .shrink import shrink_case

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="differential fuzzer over the ExecutionConfig lattice",
    )
    parser.add_argument(
        "--seeds", type=int, default=200,
        help="number of generator seeds to try (default: 200)",
    )
    parser.add_argument(
        "--start", type=int, default=0,
        help="first seed (default: 0; seeds are start..start+N-1)",
    )
    parser.add_argument(
        "--time-budget", type=float, default=None, metavar="S",
        help="stop after S seconds even if seeds remain",
    )
    parser.add_argument(
        "--configs", nargs="+", default=list(DEFAULT_LATTICE),
        help="lattice points to compare against the oracle: preset names "
             "or axis=value[,axis=value] specs",
    )
    parser.add_argument(
        "--out", type=Path, default=None, metavar="FILE",
        help="also write the (shrunk) counterexample JSON to FILE",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="report the raw divergence without delta-debugging it",
    )
    parser.add_argument(
        "--replay", type=Path, default=None, metavar="FILE",
        help="replay one corpus counterexample instead of fuzzing",
    )
    parser.add_argument(
        "--replay-dir", type=Path, default=None, metavar="DIR",
        help="replay every *.json counterexample under DIR",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="print each executed seed",
    )
    return parser


def _replay_files(paths: List[Path]) -> int:
    from .differential import replay_counterexample

    engine = build_engine()
    failures = 0
    for path in paths:
        try:
            entry = load_counterexample(path)
        except (OSError, ValueError, KeyError) as exc:
            print(f"REPLAY ERROR {path}: {exc}")
            failures += 1
            continue
        fresh = replay_counterexample(entry, engine=engine)
        if fresh is None:
            print(f"ok {path} (seed {entry.seed}, kind {entry.kind or '-'})")
        else:
            failures += 1
            print(f"DIVERGES {path} (kind {fresh.kind})")
            print(fresh.to_json())
    if failures:
        print(f"{failures} corpus entr{'y' if failures == 1 else 'ies'} diverging")
    return 1 if failures else 0


def _shrink(
    tester: DifferentialTester,
    counterexample: Counterexample,
    generator: QueryGenerator,
) -> Counterexample:
    """Delta-debug the failing statement down to a minimal reproducer."""
    original_kind = counterexample.kind
    shrink_tester = DifferentialTester(engine=tester.engine, configs=tester.configs)

    def still_diverges(text: str, params) -> bool:
        fresh = shrink_tester.check_text(text, params, counterexample.seed)
        return fresh is not None and fresh.kind == original_kind

    statement = generator.statement(counterexample.seed).statement
    text, params = shrink_case(
        counterexample.query,
        counterexample.params,
        statement,
        still_diverges,
    )
    final = shrink_tester.check_text(text, params, counterexample.seed)
    return final if final is not None else counterexample


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)

    if args.replay or args.replay_dir:
        paths: List[Path] = []
        if args.replay:
            paths.append(args.replay)
        if args.replay_dir:
            paths.extend(sorted(args.replay_dir.glob("*.json")))
        if not paths:
            print(f"no corpus files under {args.replay_dir}", file=sys.stderr)
            return 2
        return _replay_files(paths)

    try:
        configs = parse_configs(args.configs)
    except GCoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    engine = build_engine()
    tester = DifferentialTester(engine=engine, configs=configs)
    generator = QueryGenerator(Vocabulary.from_engine(engine))
    deadline = (
        time.monotonic() + args.time_budget
        if args.time_budget is not None
        else None
    )

    checked = 0
    for seed in range(args.start, args.start + args.seeds):
        if deadline is not None and time.monotonic() >= deadline:
            print(f"time budget exhausted after {checked} seeds")
            break
        case = generator.statement(seed)
        if args.verbose:
            print(f"seed {seed}: {case.text}")
        counterexample = tester.check_case(case)
        checked += 1
        if counterexample is None:
            continue
        if not args.no_shrink:
            counterexample = _shrink(tester, counterexample, generator)
        print(f"counterexample at seed {seed} (kind {counterexample.kind}):")
        print(counterexample.to_json())
        if args.out is not None:
            counterexample.save(args.out)
            print(f"written to {args.out}")
        return 1

    stats = tester.stats
    print(
        f"{checked} seeds checked: {stats['executed']} executed, "
        f"{stats['parity_checked']} error-parity, {stats['skipped']} "
        f"filtered, 0 counterexamples"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
