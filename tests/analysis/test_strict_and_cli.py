"""Strict mode, EXPLAIN surfacing, snapshots, REPL and the batch CLI."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import AnalysisError, GCoreEngine
from repro.analysis.__main__ import lint_paths, split_statements
from repro.datasets import load

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

ERROR_QUERY = "SELECT m.name MATCH (n:Person)"  # GC204 (error)
WARN_QUERY = "CONSTRUCT (n), (m) MATCH (n), (m)"  # GC401 (warning)
CLEAN_QUERY = "SELECT n.name MATCH (n:Person) ORDER BY n.name"


@pytest.fixture()
def engine():
    eng = GCoreEngine()
    eng.register_graph("social_graph", load("paper").graphs["social_graph"], default=True)
    return eng


class TestStrictMode:
    def test_error_diagnostic_blocks_before_planning(self, engine):
        with pytest.raises(AnalysisError) as excinfo:
            engine.run(ERROR_QUERY, strict=True)
        error = excinfo.value
        assert error.code == "analysis_error"
        assert error.http_status == 400
        assert "GC204" in str(error)
        assert [d.code for d in error.result] == ["GC204"]

    def test_non_strict_run_still_succeeds(self, engine):
        table = engine.run(ERROR_QUERY)
        # the runtime silently evaluates the unbound var to empty values
        assert all(value is None for (value,) in table.rows)

    def test_warnings_do_not_block(self, engine):
        graph = engine.run(WARN_QUERY, strict=True)
        assert len(graph.nodes) > 0

    def test_clean_query_unaffected(self, engine):
        table = engine.run(CLEAN_QUERY, strict=True)
        assert len(table.rows) > 0

    def test_snapshot_strict_and_analyze(self, engine):
        with engine.snapshot() as snapshot:
            result = snapshot.analyze(ERROR_QUERY)
            assert [d.code for d in result] == ["GC204"]
            with pytest.raises(AnalysisError):
                snapshot.run(ERROR_QUERY, strict=True)
            assert len(snapshot.run(CLEAN_QUERY, strict=True).rows) > 0


class TestExplainSurfacing:
    def test_explain_lists_diagnostics(self, engine):
        plan = engine.explain(WARN_QUERY)
        assert "diagnostics:" in plan
        assert "GC401" in plan

    def test_explain_clean_query_says_none(self, engine):
        assert "diagnostics: none" in engine.explain(CLEAN_QUERY)


class TestSplitStatements:
    def test_semicolons_comments_and_line_offsets(self):
        text = (
            "SELECT a FROM t;  # trailing comment\n"
            "# full line\n"
            "SELECT b FROM t;\n"
        )
        assert split_statements(text) == [
            (1, "SELECT a FROM t"),
            (3, "SELECT b FROM t"),
        ]

    def test_semicolon_inside_quotes_is_kept(self):
        statements = split_statements("SELECT n.name MATCH (n {name: 'a;b'})")
        assert len(statements) == 1
        assert "a;b" in statements[0][1]

    def test_double_quoted_semicolon_is_kept(self):
        statements = split_statements('SELECT n.name MATCH (n {name: "a;#b"})')
        assert len(statements) == 1


class TestBatchCli:
    def lint(self, tmp_path, text):
        query_file = tmp_path / "queries.gcore"
        query_file.write_text(text, encoding="utf-8")
        out = io.StringIO()
        exit_code = lint_paths([str(query_file)], out=out)
        return exit_code, out.getvalue()

    def test_clean_file_exits_zero(self, tmp_path):
        exit_code, output = self.lint(tmp_path, f"{CLEAN_QUERY};\n")
        assert exit_code == 0
        assert "checked 1 statement(s)" in output

    def test_warning_file_exits_one(self, tmp_path):
        exit_code, output = self.lint(tmp_path, WARN_QUERY)
        assert exit_code == 1
        assert "GC401" in output

    def test_error_file_exits_two(self, tmp_path):
        exit_code, output = self.lint(
            tmp_path, f"{CLEAN_QUERY};\n{ERROR_QUERY};"
        )
        assert exit_code == 2
        assert "GC204" in output
        assert "queries.gcore:2:" in output

    def test_missing_file_exits_two(self, tmp_path):
        out = io.StringIO()
        exit_code = lint_paths([str(tmp_path / "absent.gcore")], out=out)
        assert exit_code == 2

    def test_module_entry_point(self, tmp_path):
        query_file = tmp_path / "q.gcore"
        query_file.write_text(f"{WARN_QUERY};", encoding="utf-8")
        env = {"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin"}
        # a run that writes no bytecode leaves no src/**/__pycache__ here either
        if "PYTHONDONTWRITEBYTECODE" in os.environ:
            env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(query_file)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 1
        assert "GC401" in proc.stdout


class TestRepl:
    def test_lint_command(self, engine, capsys):
        from repro.__main__ import handle_command

        assert handle_command(engine, f".lint {ERROR_QUERY}")
        captured = capsys.readouterr()
        assert "GC204" in captured.out
