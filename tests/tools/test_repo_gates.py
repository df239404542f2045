"""The CI gate scripts: ``tools/lint_repo.py`` and ``tools/run_mypy.py``.

Both are plain scripts (not part of the ``repro`` package), so they are
loaded by file path. The live repo must pass the repo lint; the
synthetic cases prove each invariant actually detects its violation.
"""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lint_repo = load_tool("lint_repo")
run_mypy = load_tool("run_mypy")


class TestLintRepoLive:
    def test_the_repo_is_clean(self):
        assert lint_repo.run_lint(REPO_ROOT) == []

    def test_main_exit_code(self, capsys):
        assert lint_repo.main(["--root", str(REPO_ROOT)]) == 0
        assert "lint_repo: clean" in capsys.readouterr().out


@pytest.fixture()
def fake_repo(tmp_path):
    """A minimal tree satisfying every lint invariant."""
    errors = tmp_path / "src" / "repro" / "errors.py"
    errors.parent.mkdir(parents=True)
    errors.write_text(
        "class GCoreError(Exception):\n"
        '    code = "internal"\n'
        "    http_status = 500\n",
        encoding="utf-8",
    )
    protocol = tmp_path / "src" / "repro" / "server" / "protocol.py"
    protocol.parent.mkdir(parents=True)
    protocol.write_text(
        "class ApiError(Exception):\n"
        '    code = "api"\n'
        "    http_status = 500\n",
        encoding="utf-8",
    )
    delta = tmp_path / "src" / "repro" / "model" / "delta.py"
    delta.parent.mkdir(parents=True)
    delta.write_text(
        "def apply_delta(graph, delta):\n"
        "    return dict(graph._rho), delta.ops\n",
        encoding="utf-8",
    )
    corpus = tmp_path / "tests" / "fuzz" / "corpus"
    corpus.mkdir(parents=True)
    from repro.fuzz import Counterexample

    Counterexample(
        seed=0,
        query="SELECT n.firstName AS a MATCH (n:Person)",
        params={},
        expected={},
        actual={},
        kind="rows",
        note="synthetic clean entry for the gate tests",
    ).save(corpus / "0001-clean.json")
    return tmp_path


class TestLintRepoSynthetic:
    def test_clean_fake_repo(self, fake_repo):
        assert lint_repo.run_lint(fake_repo) == []

    def test_error_class_missing_http_status(self, fake_repo):
        errors = fake_repo / "src" / "repro" / "errors.py"
        errors.write_text(
            errors.read_text(encoding="utf-8")
            + "\n\nclass BrokenError(GCoreError):\n    code = 'broken'\n",
            encoding="utf-8",
        )
        problems = lint_repo.run_lint(fake_repo)
        assert len(problems) == 1
        assert "BrokenError" in problems[0]
        assert "http_status" in problems[0]

    def test_indirect_subclass_is_covered(self, fake_repo):
        errors = fake_repo / "src" / "repro" / "errors.py"
        errors.write_text(
            errors.read_text(encoding="utf-8")
            + "\n\nclass Mid(GCoreError):\n"
            "    code = 'mid'\n    http_status = 400\n"
            "\n\nclass Leaf(Mid):\n    pass\n",
            encoding="utf-8",
        )
        problems = lint_repo.run_lint(fake_repo)
        assert {p.split("class ")[1].split(" ")[0] for p in problems} == {
            "Leaf"
        }

    def test_unrelated_class_not_checked(self, fake_repo):
        errors = fake_repo / "src" / "repro" / "errors.py"
        errors.write_text(
            errors.read_text(encoding="utf-8")
            + "\n\nclass NotAnError:\n    pass\n",
            encoding="utf-8",
        )
        assert lint_repo.run_lint(fake_repo) == []

    def test_missing_corpus_dir_flagged(self, fake_repo):
        corpus = fake_repo / "tests" / "fuzz" / "corpus"
        (corpus / "0001-clean.json").unlink()
        corpus.rmdir()
        problems = lint_repo.run_lint(fake_repo)
        assert len(problems) == 1
        assert "corpus directory missing" in problems[0]

    def test_empty_corpus_flagged(self, fake_repo):
        (fake_repo / "tests" / "fuzz" / "corpus" / "0001-clean.json").unlink()
        problems = lint_repo.run_lint(fake_repo)
        assert len(problems) == 1
        assert "corpus is empty" in problems[0]

    def test_unloadable_corpus_entry_flagged(self, fake_repo):
        corpus = fake_repo / "tests" / "fuzz" / "corpus"
        (corpus / "0002-broken.json").write_text("{not json", encoding="utf-8")
        problems = lint_repo.run_lint(fake_repo)
        assert len(problems) == 1
        assert "0002-broken.json" in problems[0]
        assert "not a loadable counterexample" in problems[0]

    def test_unparseable_corpus_query_flagged(self, fake_repo):
        import json

        corpus = fake_repo / "tests" / "fuzz" / "corpus"
        entry = json.loads(
            (corpus / "0001-clean.json").read_text(encoding="utf-8")
        )
        entry["query"] = "SELECT 1 +"
        (corpus / "0003-syntax.json").write_text(
            json.dumps(entry), encoding="utf-8"
        )
        problems = lint_repo.run_lint(fake_repo)
        assert len(problems) == 1
        assert "0003-syntax.json" in problems[0]
        assert "does not parse" in problems[0]

    @pytest.mark.parametrize("read", [
        "graph.property_map()", "graph.label_map()", "graph.rho",
        "dict(graph.delta)",
    ])
    def test_whole_graph_copy_in_delta_flagged(self, fake_repo, read):
        delta = fake_repo / "src" / "repro" / "model" / "delta.py"
        delta.write_text(
            delta.read_text(encoding="utf-8")
            + f"\n\ndef slow(graph):\n    return {read}\n",
            encoding="utf-8",
        )
        problems = lint_repo.run_lint(fake_repo)
        assert len(problems) == 1
        assert "delta.py:6" in problems[0]
        assert "O(delta)" in problems[0]

    def test_rediverging_corpus_entry_flagged(self, fake_repo, monkeypatch):
        import repro.fuzz as fuzz_pkg

        monkeypatch.setattr(
            fuzz_pkg,
            "replay_counterexample",
            lambda entry, engine=None: entry,
        )
        problems = lint_repo.run_lint(fake_repo)
        assert len(problems) == 1
        assert "replay diverges again" in problems[0]


class TestMypyGateLogic:
    GLOBS = ["src/repro/engine.py", "src/repro/eval/*"]

    def test_is_baselined(self):
        assert run_mypy.is_baselined("src/repro/engine.py", self.GLOBS)
        assert run_mypy.is_baselined("src/repro/eval/match.py", self.GLOBS)
        assert not run_mypy.is_baselined(
            "src/repro/analysis/analyzer.py", self.GLOBS
        )

    def test_split_report_buckets_by_path(self):
        output = (
            "src/repro/engine.py:10: error: boom  [misc]\n"
            "src/repro/engine.py:10: note: see docs\n"
            "src/repro/analysis/analyzer.py:5: error: real problem  [misc]\n"
            "Found 2 errors in 2 files (checked 40 source files)\n"
        )
        blocking, baselined = run_mypy.split_report(output, self.GLOBS)
        assert any("real problem" in line for line in blocking)
        assert all("engine.py" not in line for line in blocking)
        assert any("boom" in line for line in baselined)
        assert any("note" in line for line in baselined)

    def test_split_report_clean_run(self):
        blocking, baselined = run_mypy.split_report(
            "Success: no issues found in 40 source files\n", self.GLOBS
        )
        assert blocking == []
        assert baselined == []

    def test_committed_baseline_parses(self):
        globs = run_mypy.load_baseline()
        assert globs, "baseline file should list legacy module globs"
        assert all(not g.startswith("#") for g in globs)
        # the analysis package must never be baselined (eval/analysis.py,
        # the legacy raising reporter, is a different module), nor the
        # planner, the pushdown module, the expression kernels, CONSTRUCT,
        # MATCH, the wire encoder and the set operations, which were
        # burned down
        assert not any("repro/analysis" in g for g in globs)
        assert not any(
            run_mypy.is_baselined(path, globs)
            for path in (
                "src/repro/analysis/cost.py",
                "src/repro/eval/planner.py",
                "src/repro/eval/pushdown.py",
                "src/repro/eval/kernels.py",
                "src/repro/eval/construct.py",
                "src/repro/eval/match.py",
                "src/repro/model/io.py",
                "src/repro/model/setops.py",
            )
        )
        assert run_mypy.is_baselined("src/repro/model/graph.py", globs)

    def test_every_baseline_glob_matches_a_file(self):
        """An entry for a deleted module must not linger."""
        stale = [
            glob for glob in run_mypy.load_baseline()
            if not any(REPO_ROOT.glob(glob))
        ]
        assert stale == []
