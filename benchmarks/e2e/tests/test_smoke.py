"""A --smoke run emits exactly the names BENCHMARK.json lists."""

import json
import subprocess
import sys

from benchmarks.e2e.cli import REPO_ROOT, driver_line, load_spec


def test_smoke_run_emits_exactly_the_names_of_the_spec(tmp_path):
    spec = load_spec()
    assert spec["command"][0] == "python3"
    finished = subprocess.run(
        [sys.executable] + spec["command"][1:] + ["--smoke", "--out", str(tmp_path)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert finished.returncode == 0, finished.stderr[-2000:]
    result = json.loads((tmp_path / "result.json").read_text())
    assert list(result)[-1] == "claim" and result["claim"] is None
    assert set(result["environment"]) >= {
        "git_commit", "python", "nproc", "seed",
        "load_avg_start", "load_avg_end",
    }

    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert list(result["workloads"]) == [w["name"] for w in spec["workloads"]]
    for name, summary in result["workloads"].items():
        assert list(summary["end_to_end"]) == end_to_end, name
        assert list(summary["per_layer"]) == per_layer, name
        assert summary["correct"] and summary["failed"] == 0, name
        assert summary["error_rate"] == 0.0
        assert all(entry["value"] > 0 for entry in summary["end_to_end"].values())
        assert 0.5 < summary["per_layer"]["trace.coverage"] < 1.5, name
        for trace, names in ((0, end_to_end), (1, per_layer)):
            line = json.loads(driver_line(spec, summary, trace))
            assert list(line) == ["correct", "attempted", "failed", "metrics"]
            assert list(line["metrics"]) == names
            assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())
    for name in result["workloads"]:
        spans = json.loads((tmp_path / f"trace-{name}.json").read_text())["spans"]
        assert {"name", "start", "end", "parent", "request"} == set(spans[0])
