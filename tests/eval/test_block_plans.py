"""One plan per MATCH block: EXPLAIN shows it, execution runs it —
the atom order and the WHERE assignment alike.

The statements are the 19 read classes of ``benchmarks/e2e/workloads.py``
(loaded by path, never edited) at the scale ``join_mix`` runs them.
"""

import ast
import importlib.util
import json
import re
import sys
import threading
from pathlib import Path

import pytest
from atom_orders import (
    allowed_orders,
    check_block_orders,
    connected_orders,
    every_block_checked,
)

from repro import GCoreEngine, GraphBuilder
from repro.datasets import load
from repro.eval import match as match_module
from repro.eval.context import EvalContext
from repro.eval.match import evaluate_match, match_rows_touching
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser
from repro.lang.pretty import pretty_expr
from repro.paths.automaton import compile_regex
from repro.paths.product import PathFinder

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


def _engine(scale):
    eng = GCoreEngine()
    load("snb", scale=scale, seed=42).install(eng)
    load("company").install(eng, set_default=False)
    return eng


def _params(engine):
    """One parameter set per class (seed 42's first op)."""
    graph = engine.catalog.graph(workloads.GRAPH)
    drawn = {}
    for workload in workloads.WORKLOADS:
        for op in workloads.build_ops(workload, graph, 42):
            if op.route == "/query":
                drawn.setdefault(op.cls, op.body["params"])
    return drawn


@pytest.fixture(scope="module")
def engine():
    return _engine(SCALE)


@pytest.fixture(scope="module")
def params(engine):
    return _params(engine)


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

    def spy(steps, table, ctx, *rest):
        calls.append((
            ctx.depth,
            [(s.atom.kind, frozenset(s.atom.binds())) for s in steps],
        ))
        return original(steps, table, ctx, *rest)

    monkeypatch.setattr(match_module, "run_atom_sequence", spy)
    return calls


def test_there_are_19_read_statements():
    assert len(READ_CLASSES) == 19


#: EXPLAIN of each read statement on a fresh engine.
EXPLAIN_RECORD = Path(__file__).with_name("explain_e2e.json")


def test_explain_of_the_read_statements_is_byte_identical_to_the_record():
    fresh = GCoreEngine()
    load("snb", scale=SCALE, seed=42).install(fresh)
    load("company").install(fresh, set_default=False)
    recorded = json.loads(EXPLAIN_RECORD.read_text(encoding="utf-8"))
    assert sorted(recorded) == sorted(READ_CLASSES)
    for name, cls in READ_CLASSES.items():
        assert fresh.explain(cls.text) == recorded[name], name


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


#: The scale the every-order check runs at, and the largest block it
#: runs every allowed order of; larger blocks run sampled connected orders.
ORDERS_SCALE = 40
EVERY_ORDER_ATOMS = 5


@pytest.fixture(scope="module")
def small_engine():
    return _engine(ORDERS_SCALE)


def _orders(atoms, bound):
    if len(atoms) <= EVERY_ORDER_ATOMS:
        return allowed_orders(atoms)
    return connected_orders(atoms, bound)


@pytest.mark.parametrize("name", sorted(READ_CLASSES))
def test_every_allowed_order_returns_the_cost_plans_rows(name, small_engine):
    """Each block the statement evaluates (PATH-view bodies included)
    runs in every allowed order, syntax order first, through the plan's
    step path, and returns the cost plan's row multiset."""
    with every_block_checked(_orders) as checked:
        small_engine.run(READ_CLASSES[name].text, params=_params(small_engine)[name])
    assert checked and all(checked)


WHERE_LINE = re.compile(r"^\s+((?:pushed|residual) .*)$")


def _applied_lines(steps, ctx):
    """The EXPLAIN lines of what *steps* apply of the WHERE, rendered
    from the steps execution received and the lookup chain it runs
    under (the one ``CandidateProbe.narrow`` consults)."""
    lines = []
    for step in steps:
        atom = step.atom
        for conjunct in step.probe:
            (var,) = conjunct.variables
            universe = getattr(atom.graph, atom.probe_universe(var))
            indexed = conjunct.lookup is not None and ctx.property_reads_stay_in(
                atom.graph, universe
            )
            tag = "index" if indexed else "probe"
            lines.append(
                f"pushed {pretty_expr(conjunct.expr)} -> {atom.explain_label()} [{tag}]"
            )
        for expr in step.post:
            lines.append(f"pushed {pretty_expr(expr)} -> {atom.explain_label()} [filter]")
    return lines


@pytest.mark.parametrize("name", sorted(READ_CLASSES))
def test_explain_lists_the_where_assignment_execution_applies(
    name, engine, params, monkeypatch
):
    run_steps = match_module.run_atom_sequence
    finish = match_module.finish_block_where
    applied = []

    def steps_spy(steps, table, ctx, *rest):
        if ctx.depth == 0:
            applied.extend(_applied_lines(steps, ctx))
        return run_steps(steps, table, ctx, *rest)

    def residual_spy(table, residual, ctx, *rest):
        if ctx.depth == 0:
            applied.extend(f"residual {pretty_expr(expr)}" for expr in residual)
        return finish(table, residual, ctx, *rest)

    monkeypatch.setattr(match_module, "run_atom_sequence", steps_spy)
    monkeypatch.setattr(match_module, "finish_block_where", residual_spy)
    text = READ_CLASSES[name].text
    explained = [
        where.group(1)
        for where in map(WHERE_LINE.match, engine.explain(text).splitlines())
        if where
    ]
    engine.run(text, params=params[name])
    assert applied == explained


def test_engine_and_snapshot_runs_share_one_cached_block_plan(engine, monkeypatch):
    """Both prepared-execution paths replay the plan the first run made,
    with the $param conjunct pushed to the probe."""
    original = match_module.run_atom_sequence
    served = []

    def spy(steps, *rest):
        served.append(steps)
        return original(steps, *rest)

    monkeypatch.setattr(match_module, "run_atom_sequence", spy)
    graph = engine.catalog.graph(workloads.GRAPH)
    person = sorted(graph.nodes_with_label("Person"))[0]
    (first_name,) = graph.property(person, "firstName")
    prepared = engine.prepare(
        "SELECT n.lastName AS shared_plan MATCH (n:Person) WHERE n.firstName = $p"
    )
    by_engine = prepared.run(params={"p": first_name})
    with engine.snapshot() as snap:
        by_snapshot = snap.execute_prepared(prepared, params={"p": first_name})
    assert by_engine.rows and by_snapshot.rows == by_engine.rows
    from_engine, from_snapshot = served
    assert from_snapshot is from_engine
    assert len(prepared.plans) == 1 and prepared.plans.hits == 1
    (step,) = from_engine
    assert [pretty_expr(c.expr) for c in step.probe] == ["n.firstName = $p"]


#: One ``[index]`` conjunct at node(n)'s probe, one ``[filter]`` conjunct
#: after the edge that binds m.
SHARED_PLAN_QUERY = (
    "SELECT n.name AS a, m.name AS b "
    "MATCH (n:Person)-[:knows]->(m:Person) "
    "WHERE n.employer = $emp AND n.age >= m.age"
)
SHARED_PARAMS = {"emp": "Acme"}


def _shared_plan_engine():
    employers = ("Acme", "HAL", "CWI")
    builder = GraphBuilder(name="g")
    for index in range(8):
        builder.add_node(
            f"p{index}",
            labels=["Person"],
            properties={
                "name": f"p{index}",
                "age": 20 + index,
                "employer": employers[index % len(employers)],
            },
        )
    for index in range(8):
        builder.add_edge(
            f"p{index}",
            f"p{(index * 3 + 1) % 8}",
            edge_id=f"k{index}",
            labels=["knows"],
        )
    engine = GCoreEngine()
    engine.register_graph("g", builder.build(), default=True)
    explain = engine.explain(SHARED_PLAN_QUERY)
    assert "[index]" in explain and "[filter]" in explain
    return engine


def test_threads_replaying_one_cached_plan_match_serial():
    """Four threads run one prepared statement at the default config,
    all served by the block plan its first run cached."""
    prepared = _shared_plan_engine().prepare(SHARED_PLAN_QUERY)
    serial = prepared.run(params=SHARED_PARAMS)
    assert serial.rows
    runs = 25
    barrier = threading.Barrier(4)
    results = []

    def reader():
        barrier.wait()
        for _ in range(runs):
            results.append(prepared.run(params=SHARED_PARAMS))

    threads = [threading.Thread(target=reader) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the readers' plan reads
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 4 * runs
    for result in results:
        assert result.columns == serial.columns
        assert list(result.rows) == list(serial.rows)
    assert len(prepared.plans) == 1 and prepared.plans.hits == 4 * runs


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


#: Only the path's target is anchored: the plan binds the source by a
#: backward search from it (SHORTEST with a cost, and a reachability
#: test written right to left).
TARGET_ANCHORED = (
    "SELECT c.content AS reply, h AS hops "
    "MATCH (c:Comment)-/p<:reply_of*> COST h/->(m:Post) WHERE m.content = $content",
    "SELECT n.firstName AS fan "
    "MATCH (m:Person {firstName = $first})<-/<:knows*>/-(n:Person) "
    "WHERE m.lastName = $last",
)


@pytest.mark.parametrize("text", TARGET_ANCHORED)
def test_target_anchored_path_binds_its_source_backward(text, engine, monkeypatch):
    """EXPLAIN marks the search backward and execution runs that order;
    the path step's table has one row per input row and source that
    reaches its target forward, and the result is what every allowed
    order, syntax order (forward) included, returns."""
    graph = engine.catalog.graph(workloads.GRAPH)
    post = sorted(graph.nodes_with_label("Post"), key=str)[0]
    person = sorted(graph.nodes_with_label("Person"), key=str)[0]
    params = {
        "content": min(graph.property(post, "content")),
        "first": min(graph.property(person, "firstName")),
        "last": min(graph.property(person, "lastName")),
    }
    explain = engine.explain(text)
    (block,) = explained_blocks(explain)
    (path_line,) = [line for line in explain.splitlines() if line.lstrip().startswith("path")]
    assert path_line.endswith("strategy=bfs,batched,backward")

    original = match_module.run_atom_sequence
    steps_run = []

    def stepwise(steps, table, ctx, *rest):
        for step in steps:
            before = table
            table = original([step], table, ctx, *rest)
            steps_run.append((step.atom, before, table))
        return table

    monkeypatch.setattr(match_module, "run_atom_sequence", stepwise)
    result = engine.run(text, params=params)
    monkeypatch.undo()
    assert [(a.kind, frozenset(a.binds())) for a, _, _ in steps_run] == [
        (kind, binds) for kind, _, binds, _ in block
    ]
    bound = set()
    for atom, before, after in steps_run:
        if atom.kind == "path":
            assert atom.from_var not in bound and atom.to_var in bound
            finder = PathFinder(graph, compile_regex(atom.pattern.regex))
            reach = {node: finder.reachable_from(node) for node in graph.nodes}
            targets = before.column_values(atom.to_var)
            expected = sum(
                1 for target in targets for node in graph.nodes if target in reach[node]
            )
            assert expected and len(after) == expected
            sources = after.column_values(atom.from_var)
            ends = after.column_values(atom.to_var)
            assert all(end in reach[source] for source, end in zip(sources, ends))
        bound |= atom.binds()
    assert result.rows
    ctx = EvalContext(engine.catalog)
    ctx.params = params
    block = engine.parse(text).body.match.block
    assert check_block_orders(block, ctx) == 6


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
