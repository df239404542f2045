"""Percentiles, median-of-rounds and the regression-bound verdicts.

Shared by the runner (to aggregate rounds) and ``compare.py`` (to judge
a change against its parent with the bounds of ``BENCHMARK.json``).
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0-100) with linear interpolation."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def over_rounds(rounds: Sequence[float],
                value: Optional[float] = None) -> Dict[str, object]:
    """A metric's entry: its *value* (default: the median over rounds)
    and the min-max of the rounds as its spread."""
    return {
        "value": statistics.median(rounds) if value is None else value,
        "min": min(rounds),
        "max": max(rounds),
        "rounds": list(rounds),
    }


def relative_spread(entry: Dict[str, object]) -> float:
    """(max - min) / median of a metric's rounds; 0 for a zero median."""
    value = float(entry["value"])  # type: ignore[arg-type]
    if value == 0:
        return 0.0
    return (float(entry["max"]) - float(entry["min"])) / abs(value)  # type: ignore[arg-type]


def worsening(parent: float, change: float, better: str) -> Optional[float]:
    """By what share of *parent* did *change* get worse (negative: better).

    None when the parent is 0 and no ratio exists (``error_rate``).
    """
    if parent == 0:
        return None
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def verdict(
    parent: Dict[str, object],
    change: Dict[str, object],
    better: str,
    bound: float,
    noisy: bool = False,
) -> str:
    """improved / unchanged / regressed / unresolved for one metric.

    *unresolved* — never *unchanged* — when either side ran under outside
    load or its rounds spread wider than the bound: the data cannot
    separate a move of that size from noise. A zero parent (``error_rate``)
    admits no ratio: any increase regresses.
    """
    p, c = float(parent["value"]), float(change["value"])  # type: ignore[arg-type]
    worse = worsening(p, c, better)
    if worse is None:
        if c == p:
            return "unchanged"
        return "regressed" if (c > p) == (better == "lower") else "improved"
    if noisy or max(relative_spread(parent), relative_spread(change)) > bound:
        return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"

