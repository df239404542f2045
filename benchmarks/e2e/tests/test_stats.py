"""Percentile, median-of-rounds and bound-verdict helpers."""

import pytest

from benchmarks.e2e.stats import (
    over_rounds,
    percentile,
    relative_spread,
    verdict,
    worsening,
)


def test_percentile_interpolates_between_ranks():
    values = [40.0, 10.0, 30.0, 20.0]
    assert percentile(values, 0) == 10.0
    assert percentile(values, 50) == 25.0
    assert percentile(values, 90) == pytest.approx(37.0)
    assert percentile(values, 100) == 40.0
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_over_rounds_reports_median_and_min_max():
    entry = over_rounds([12.0, 10.0, 11.0])
    assert (entry["value"], entry["min"], entry["max"]) == (11.0, 10.0, 12.0)
    assert relative_spread(entry) == pytest.approx(2 / 11)


def test_worsening_follows_the_metric_direction():
    assert worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert worsening(0.0, 0.5, "lower") is None


def _steady(value):
    return over_rounds([value, value, value])


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        (100.0, 104.0, "lower", "unchanged"),
        (100.0, 111.0, "lower", "regressed"),
        (100.0, 89.0, "lower", "improved"),
        (100.0, 89.0, "higher", "regressed"),
        (100.0, 111.0, "higher", "improved"),
    ],
)
def test_verdict_applies_the_bound(parent, change, better, expected):
    assert verdict(_steady(parent), _steady(change), better, 0.10) == expected


def test_verdict_is_unresolved_when_rounds_spread_wider_than_the_bound():
    shaky = over_rounds([90.0, 100.0, 112.0])
    assert verdict(_steady(100.0), shaky, "lower", 0.10) == "unresolved"
    assert verdict(shaky, _steady(100.0), "lower", 0.10) == "unresolved"
    # ... and a noisy run is never reported as unchanged
    assert verdict(_steady(100.0), _steady(100.0), "lower", 0.10,
                   noisy=True) == "unresolved"


def test_any_increase_of_a_zero_metric_regresses():
    assert verdict(_steady(0.0), _steady(0.0), "lower", 0.0) == "unchanged"
    assert verdict(_steady(0.0), _steady(0.01), "lower", 0.0) == "regressed"
