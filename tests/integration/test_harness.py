"""Smoke tests for the experiment harness (python -m repro.bench)."""

import pytest

from repro.bench.harness import (
    EXPERIMENTS,
    report_complexity,
    report_figure1,
    report_figure2,
    report_figure4,
    report_figure5,
    report_table1,
    run_experiment,
)


class TestReports:
    def test_figure1_contains_survey_and_witnesses(self):
        text = report_figure1()
        assert "graph reachability" in text and "36" in text
        assert text.count("ms]") == 5
        assert "-> 0 nodes" not in text  # every feature class matches

    def test_figure2_contains_formal_components(self):
        text = report_figure2()
        assert "N = [101, 102, 103, 104, 105, 106]" in text
        assert "delta = {301 -> [105, 207, 103, 202, 102]}" in text

    def test_figure4_reproduces_tables(self):
        text = report_figure4()
        assert '"acme" | "alice"' in text.replace("  ", " ") or "acme" in text
        assert "20 rows" in text

    def test_figure5_final_result(self):
        text = report_figure5()
        assert "john -> peter -> celine" in text
        assert "score: 2" in text

    def test_table1_all_rows_ok(self):
        text = report_table1()
        assert "MISMATCH" not in text and "FAIL" not in text
        assert text.count(" OK ") >= 20

    def test_complexity_small_sizes(self):
        text = report_complexity(sizes=(10, 20))
        assert "slope" in text and "simple paths" in text

    def test_registry_and_dispatch(self):
        assert set(EXPERIMENTS) == {
            "figure1", "figure2", "figure4", "figure5", "table1",
            "complexity",
        }
        with pytest.raises(KeyError):
            run_experiment("figure99")
