"""Smoke tests for the interactive shell (python -m repro)."""

import subprocess
import sys

import pytest

from repro import GCoreEngine
from repro.__main__ import execute, handle_command, make_engine
from repro.model.io import dumps_graph


def run_shell(script: str) -> str:
    process = subprocess.run(
        [sys.executable, "-m", "repro"],
        input=script,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert process.returncode == 0, process.stderr
    return process.stdout


class TestShell:
    def test_query_and_composability(self):
        out = run_shell(
            "CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'\n"
            "SELECT n.firstName AS f MATCH (n) ON last ORDER BY f\n"
            ".quit\n"
        )
        assert "alice" in out and "john" in out
        assert "Alice" in out and "John" in out

    def test_dot_graphs(self):
        out = run_shell(".graphs\n.quit\n")
        assert "social_graph" in out and "orders" in out

    def test_error_reported_not_fatal(self):
        out = run_shell("CONSTRUCT MATCH\nSELECT 1 AS one MATCH (n:Tag)\n.quit\n")
        assert "error:" in out
        assert "one" in out  # the shell kept going

    def test_multiline_continuation(self):
        out = run_shell(
            "CONSTRUCT (n) \\\nMATCH (n:Tag)\n.quit\n"
        )
        assert "wagner" in out

    def test_explain_command(self):
        out = run_shell(".explain CONSTRUCT (n) MATCH (n:Person)\n.quit\n")
        assert "CONSTRUCT" in out and "MATCH" in out

    def test_view_registration(self):
        out = run_shell(
            "GRAPH VIEW v AS (CONSTRUCT (t) MATCH (t:Tag))\n"
            ".show v\n.quit\n"
        )
        assert "view v registered" in out
        assert "wagner" in out


@pytest.fixture
def shell(capsys):
    """The shell's engine over the toy instances, its banner swallowed."""
    engine = make_engine([])
    capsys.readouterr()
    return engine


class TestDotCommands:
    """In-process checks of :func:`repro.__main__.handle_command`."""

    @pytest.mark.parametrize("command", [".quit", ".exit"])
    def test_quit_ends_the_shell(self, shell, command):
        assert handle_command(shell, command) is False

    def test_config_is_an_unknown_command(self, shell, capsys):
        """The engine has one mode: there is nothing to configure."""
        assert handle_command(shell, ".config planner=naive")
        assert "unknown command '.config'" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command", [".default", ".show", ".stats", ".explain", ".lint", ".load"]
    )
    def test_command_without_its_argument_is_unknown(self, shell, capsys, command):
        assert handle_command(shell, command)
        assert f"unknown command {command!r}" in capsys.readouterr().out

    def test_help_lists_the_dot_commands(self, shell, capsys):
        assert handle_command(shell, ".help")
        out = capsys.readouterr().out
        assert ".explain <query>" in out and ".cache" in out
        assert ".config" not in out

    def test_default_switches_the_default_graph(self, shell, capsys):
        assert handle_command(shell, ".default company_graph")
        assert handle_command(shell, ".graphs")
        out = capsys.readouterr().out
        assert "default graph is now company_graph" in out
        assert "default: company_graph" in out
        assert shell.catalog.default_graph_name == "company_graph"

    def test_stats_prints_planner_statistics(self, shell, capsys):
        assert handle_command(shell, ".stats social_graph")
        out = capsys.readouterr().out
        assert "nodes=18 edges=35" in out and "Person=5" in out

    def test_cache_counts_hits_and_misses(self, shell, capsys):
        query = "SELECT n.firstName AS f MATCH (n:Person)"
        execute(shell, query)
        execute(shell, query)
        capsys.readouterr()
        assert handle_command(shell, ".cache")
        assert "1 hits, 1 misses" in capsys.readouterr().out

    def test_load_registers_a_json_graph(self, shell, capsys, tmp_path):
        path = tmp_path / "companies.json"
        path.write_text(dumps_graph(shell.graph("company_graph")))
        engine = GCoreEngine()
        assert handle_command(engine, f".load {path}")
        assert "registered company_graph" in capsys.readouterr().out
        assert len(engine.graph("company_graph").nodes) == 4


class TestExecute:
    def test_table_result_is_pretty_printed(self, shell, capsys):
        execute(shell, "SELECT n.firstName AS f MATCH (n:Person) ORDER BY f")
        lines = capsys.readouterr().out.split()
        assert lines[0] == "f" and lines[2:] == [
            "Alice", "Celine", "Frank", "John", "Peter"
        ]

    def test_graph_result_is_registered_as_last(self, shell, capsys):
        execute(shell, "CONSTRUCT (n) MATCH (n:Tag)")
        assert "wagner" in capsys.readouterr().out
        assert shell.graph("last").nodes == {"wagner"}

    def test_view_result_is_announced(self, shell, capsys):
        execute(shell, "GRAPH VIEW v AS (CONSTRUCT (t) MATCH (t:Tag))")
        assert "view v registered" in capsys.readouterr().out
        assert "v" in shell.catalog.view_names()

    def test_graph_files_replace_the_toy_instances(self, shell, capsys, tmp_path):
        path = tmp_path / "companies.json"
        path.write_text(dumps_graph(shell.graph("company_graph")))
        engine = make_engine([str(path)])
        assert "loaded company_graph" in capsys.readouterr().out
        assert engine.catalog.graph_names() == ["company_graph"]
