"""One plan per MATCH block: EXPLAIN shows it, execution runs it.

The statements are the 19 read classes of ``benchmarks/e2e/workloads.py``
(loaded by path, never edited) at the scale ``join_mix`` runs them.
"""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

from repro import GCoreEngine
from repro.datasets import load
from repro.eval import match as match_module
from repro.eval.context import EvalContext
from repro.eval.match import evaluate_match, match_rows_touching
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser

REPO_ROOT = Path(__file__).resolve().parents[2]
SCALE = 200


def _load_workloads():
    name = "_e2e_workloads"
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "benchmarks" / "e2e" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
READ_CLASSES = {
    cls.name: cls for workload in workloads.WORKLOADS for cls in workload.classes
}


@pytest.fixture(scope="module")
def engine():
    eng = GCoreEngine()
    load("snb", scale=SCALE, seed=42).install(eng)
    load("company").install(eng, set_default=False)
    return eng


@pytest.fixture(scope="module")
def params(engine):
    """One parameter set per class (seed 42's first op)."""
    graph = engine.catalog.graph(workloads.GRAPH)
    drawn = {}
    for workload in workloads.WORKLOADS:
        for op in workloads.build_ops(workload, graph, 42):
            if op.route == "/query":
                drawn.setdefault(op.cls, op.body["params"])
    return drawn


STEP = re.compile(
    r"^\s+(node|edge|path)\s+score=\S+\s+est~(\S+)\s+rows~\S+\s+binds=(\[.*?\])(.*)$"
)


def explained_blocks(text):
    """EXPLAIN's plan, one list of (kind, est, binds, probe) per block."""
    blocks = []
    for line in text.splitlines():
        if line.strip() in ("MATCH", "OPTIONAL"):
            blocks.append([])
        step = STEP.match(line)
        if step:
            kind, est, binds, rest = step.groups()
            probe = kind != "path" or "strategy=stored" in rest
            blocks[-1].append((kind, float(est), frozenset(ast.literal_eval(binds)), probe))
    return blocks


@pytest.fixture()
def executed(monkeypatch):
    """Spy on run_atom_sequence: (context depth, [(kind, binds), ...])."""
    original = match_module.run_atom_sequence
    calls = []

    def spy(atoms, table, ctx, *rest):
        calls.append((ctx.depth, [(a.kind, frozenset(a.binds())) for a in atoms]))
        return original(atoms, table, ctx, *rest)

    monkeypatch.setattr(match_module, "run_atom_sequence", spy)
    return calls


def test_there_are_19_read_statements():
    assert len(READ_CLASSES) == 19


@pytest.mark.parametrize("name", sorted(READ_CLASSES))
def test_explain_lists_the_order_execution_runs(name, engine, params, executed):
    text = READ_CLASSES[name].text
    planned = [
        [(kind, binds) for kind, _, binds, _ in block]
        for block in explained_blocks(engine.explain(text))
    ]
    engine.run(text, params=params[name])
    # Depth 0 is the statement's own blocks (PATH-view bodies run deeper).
    ran = [atoms for depth, atoms in executed if depth == 0]
    assert planned and ran == planned


def test_optional_blocks_are_explained_as_seeded(engine, executed):
    """EXPLAIN plans an OPTIONAL block from the variables bound so far,
    as execution does (the parent planned it from nothing)."""
    text = (
        "SELECT n.firstName AS a, t.name AS b MATCH (n:Person) "
        "WHERE n.employer = 'HAL' "
        "OPTIONAL (t:Tag)<-[:hasInterest]-(m:Person)<-[:knows]-(n)"
    )
    planned = [
        [(kind, binds) for kind, _, binds, _ in block]
        for block in explained_blocks(engine.explain(text))
    ]
    engine.run(text)
    assert [atoms for _depth, atoms in executed] == planned
    assert planned[1][0] == ("node", frozenset({"n"}))


def _forced_and_avoidable(block):
    """(steps the pattern forces to be disconnected, disconnected
    expansions taken although a connected index probe remained)."""
    forced = avoidable = 0
    bound = set()
    for index, (_kind, est, binds, _probe) in enumerate(block):
        rest = block[index:]
        if bound and not binds & bound:
            if not any(b & bound for _, _, b, _ in rest):
                forced += 1
            elif est > 1 and any(b & bound and p for _, _, b, p in rest):
                avoidable += 1
        bound |= binds
    return forced, avoidable


@pytest.mark.parametrize("name", sorted(READ_CLASSES))
def test_no_avoidable_cartesian_step_and_gc401_names_the_forced_ones(name, engine):
    text = READ_CLASSES[name].text
    explain = engine.explain(text)
    verdicts = [_forced_and_avoidable(b) for b in explained_blocks(explain)]
    assert all(avoidable == 0 for _, avoidable in verdicts)
    forced = any(count for count, _ in verdicts)
    assert forced == (name == "value_join")
    assert ("GC401" in explain) == forced


@pytest.mark.parametrize("name", ["all_paths", "k3_stored"])
def test_selective_endpoints_precede_the_search(name, engine):
    (block,) = explained_blocks(engine.explain(READ_CLASSES[name].text))
    assert [kind for kind, *_ in block] == ["node", "node", "path"]


class TestSeededBlocks:
    """A seeded block (delta rows, OPTIONAL, WHERE patterns) expands
    outward from its seed: every step touches what is already bound."""

    def assert_connected(self, calls, seed_vars):
        assert calls
        for _depth, atoms in calls:
            bound = set(seed_vars)
            for _kind, binds in atoms:
                assert binds & bound
                bound |= binds

    def match_clause(self, text):
        parser = Parser(tokenize(text))
        clause = parser._match_clause()
        parser.expect_eof()
        return clause

    def test_match_rows_touching(self, engine, executed):
        block = self.match_clause(
            "MATCH (n:Person)-[:knows]->(m:Person)-[:isLocatedIn]->(c:City)"
        ).block
        graph = engine.catalog.graph(workloads.GRAPH)
        touched = sorted(graph.nodes_with_label("City"))[:1]
        ctx = EvalContext(engine.catalog)
        rows = match_rows_touching(block, ctx, ["c"], touched)
        assert len(rows) > 0
        self.assert_connected(executed, {"c"})

    def test_optional_block(self, engine, executed):
        clause = self.match_clause(
            "MATCH (n:Person) WHERE n.employer = 'HAL' "
            "OPTIONAL (n)-[:knows]->(m:Person)-[:hasInterest]->(t:Tag)"
        )
        evaluate_match(clause, EvalContext(engine.catalog))
        main, optional = executed
        self.assert_connected([optional], {"n"})

    def test_where_pattern_predicate(self, engine, executed):
        clause = self.match_clause(
            "MATCH (n:Person), (c:City) WHERE n.employer = 'HAL' "
            "AND (n)-[:knows]->(:Person)-[:isLocatedIn]->(c)"
        )
        table = evaluate_match(clause, EvalContext(engine.catalog))
        assert len(table) > 0
        # The first call is the outer block; the rest are chain_matches.
        self.assert_connected(executed[1:], {"n", "c"})
