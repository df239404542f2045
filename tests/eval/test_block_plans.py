"""One plan per MATCH block: EXPLAIN shows it, execution runs it —
the atom order and the WHERE assignment alike.

The statements are the 19 read classes of ``benchmarks/e2e/workloads.py``
(loaded by path, never edited) at the scale ``join_mix`` runs them.
"""

import ast
import importlib.util
import json
import math
import re
import sys
import threading
from pathlib import Path

import pytest
from atom_orders import (
    allowed_orders,
    block_regret,
    check_block_orders,
    connected_orders,
    every_block_checked,
    every_block_regret,
)

from repro import GCoreEngine, GraphBuilder
from repro.datasets import load
from repro.errors import GCoreError
from repro.fuzz import QueryGenerator, Vocabulary
from repro.eval import match as match_module
from repro.eval.context import EvalContext
from repro.eval.kernels import PatternTest
from repro.eval.match import block_atoms, evaluate_match, match_rows_touching
from repro.eval.planner import conjunct_text
from repro.lang import ast as ast_nodes
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser
from repro.lang.pretty import pretty_expr
from repro.model.graph import PathPropertyGraph
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


#: A step line; a block whose graph is unknown before execution shows
#: no estimates (read as nan).
STEP = re.compile(
    r"^\s+(node|edge|path)\s+(?:est~(\S+)\s+rows~\S+\s+)?binds=(\[.*?\])(.*)$"
)


NESTED = re.compile(r"^( +)runs once per (outer row|block|query|epoch):$")


def explained_blocks(text):
    """EXPLAIN's plan, one list of (kind, est, binds, probe) per block,
    nested blocks included, in the order their headers appear.

    A nested block's lines sit under a ``runs once per ...:`` header and
    are indented at least as far; a block's steps follow its patterns and
    any blocks nested in those."""
    blocks = []
    # (column of the nested header, the block whose steps come next)
    open_blocks = [(-1, None)]
    for line in text.splitlines():
        column = len(line) - len(line.lstrip())
        nested = NESTED.match(line)
        while open_blocks[-1][0] > column - bool(nested):
            open_blocks.pop()
        if nested:
            open_blocks.append((column, None))
        elif line.strip() in ("MATCH", "OPTIONAL"):
            blocks.append([])
            open_blocks[-1] = (open_blocks[-1][0], blocks[-1])
        step = STEP.match(line)
        if step:
            kind, est, binds, rest = step.groups()
            probe = kind != "path" or "strategy=stored" in rest
            binds = frozenset(ast.literal_eval(binds))
            open_blocks[-1][1].append((kind, float(est or "nan"), binds, probe))
    return blocks


@pytest.fixture()
def executed(monkeypatch):
    """Spy on run_atom_sequence: (context depth, [(kind, binds), ...])."""
    original = match_module.run_atom_sequence
    calls = []

    def spy(steps, graphs, table, ctx, *rest):
        calls.append((
            ctx.depth,
            [(s.atom.kind, frozenset(s.atom.binds())) for s in steps],
        ))
        return original(steps, graphs, table, ctx, *rest)

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


#: Statements with nested blocks: a WHERE pattern predicate, an EXISTS,
#: an ON (...) subquery, a GRAPH head and a PATH view with anonymous
#: elements besides its walk (ROADMAP's pair and EXISTS queries first).
NESTED_SHAPES = {
    "pair_query": "SELECT n.firstName AS f MATCH (n:Person),(m:Person) "
    "WHERE (n)-[:knows]->(m) AND n.lastName = $last",
    "exists_query": "SELECT n.firstName AS f MATCH (n:Person) WHERE EXISTS "
    "(CONSTRUCT () MATCH (n)-[:knows]->(m:Person) WHERE m.lastName = $last)",
    "on_subquery": "SELECT n.firstName AS f MATCH (n:Person) ON (CONSTRUCT (n) "
    "MATCH (n:Person)-[:knows]->(m:Person) WHERE m.lastName = $last)",
    "graph_head": "GRAPH friends AS (CONSTRUCT (n)-[e]->(m) "
    "MATCH (n:Person)-[e:knows]->(m:Person) WHERE m.lastName = $last) "
    "SELECT n.firstName AS f MATCH (n:Person) ON friends",
    "path_head": "PATH friendOf = (x:Person)-[:knows]->(y:Person), "
    "(y)-[:isLocatedIn]->(:City) SELECT m.firstName AS f "
    "MATCH (n:Person {lastName = $last})-/<~friendOf*>/->(m:Person)",
}


def _statement(name, engine, params):
    """A read class or nested shape, with its parameters."""
    if name in READ_CLASSES:
        return READ_CLASSES[name].text, params[name]
    graph = engine.catalog.graph(workloads.GRAPH)
    names = sorted(
        {v for p in graph.nodes_with_label("Person") for v in graph.property(p, "lastName")}
    )
    return NESTED_SHAPES[name], {"last": names[len(names) // 2]}


@pytest.mark.parametrize("name", sorted(READ_CLASSES) + sorted(NESTED_SHAPES))
def test_explain_lists_the_order_execution_runs(name, params, executed):
    """EXPLAIN's blocks, at every depth, are the distinct blocks
    execution runs, each in the order it runs its atoms."""
    engine = _engine(SCALE)  # cold: no PATH view's segments cached yet
    text, values = _statement(name, engine, params)
    planned = {
        tuple((kind, binds) for kind, _, binds, _ in block)
        for block in explained_blocks(engine.explain(text))
    }
    engine.run(text, params=values)
    assert planned and planned == {tuple(atoms) for _depth, atoms in executed}


def test_explain_names_the_pair_querys_nested_block(engine, params):
    explain = engine.explain(_statement("pair_query", engine, params)[0])
    residual = explain.splitlines().index("    residual (n)-[:knows]->(m)")
    assert explain.splitlines()[residual + 1 : residual + 4] == [
        "      runs once per outer row:",
        "        MATCH",
        "          pattern ON <default>: (n)-[:knows]->(m)",
    ]


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


#: The largest regret allowed: the planned order's work (summed table
#: sizes after its steps) over the least work of any allowed order.
MAX_REGRET = 1.5
#: The largest q-error of a step's ``rows~`` on the read statements;
#: measured 125.0, at wagner_fans_friends. A ``<>`` conjunct is priced
#: as keeping every candidate, so minus_msgs' step measures 1.0025.
MAX_Q_ERROR = 125


@pytest.fixture(scope="module")
def read_regrets(params):
    """(class name, Regret) for each block the read statements evaluate
    on a fresh engine (whose PATH views have not run yet)."""
    fresh = _engine(SCALE)
    measured = []
    for name, cls in sorted(READ_CLASSES.items()):
        with every_block_regret() as blocks:
            fresh.run(cls.text, params=params[name])
        measured += [(name, regret) for regret in blocks]
    return measured


def test_every_read_block_is_measured(read_regrets):
    # weighted_view's PATH view body is the twentieth block.
    assert len(read_regrets) == 20
    assert all(regret.best < math.inf for _, regret in read_regrets)


def test_planned_order_is_within_the_regret_bound(read_regrets):
    over = {name: regret.ratio for name, regret in read_regrets if regret.ratio > MAX_REGRET}
    assert not over


def test_planned_rows_are_within_the_q_error_bound(read_regrets):
    over = {
        name: max(regret.q_errors)
        for name, regret in read_regrets
        if max(regret.q_errors) > MAX_Q_ERROR
    }
    assert not over


#: Fuzz statements over the snb graph whose MATCH blocks of 2 to 6 atoms
#: the regret harness measures, and the share of them allowed past
#: MAX_REGRET. Measured 50 of 260: in 37 the best order meets an atom
#: no object matches first, which no statistic predicts, and the rest
#: are reachability estimates that miss label sequences the data never
#: has (ROADMAP item 4).
FUZZ_SEEDS = 600
FUZZ_SHARE_OVER = 0.2


def _match_clauses(node):
    if isinstance(node, ast_nodes.MatchClause):
        yield node
    if hasattr(node, "__dataclass_fields__"):
        for field in node.__dataclass_fields__:
            yield from _match_clauses(getattr(node, field))
    elif isinstance(node, tuple):
        for item in node:
            yield from _match_clauses(item)


def _fuzz_regrets(engine):
    """The Regret of each main block of 2 to 6 atoms, on named graphs, of
    the fuzz statements that prepare; a block raising is skipped, and so
    is one no order fits under the row cap."""
    generator = QueryGenerator(Vocabulary.from_engine(engine))
    for seed in range(FUZZ_SEEDS):
        case = generator.statement(seed)
        try:
            statement = engine.prepare(case.text).statement
        except GCoreError:
            continue  # the generator's deliberate faults
        for clause in _match_clauses(statement):
            block = clause.block
            if not 2 <= len(block_atoms(block)) <= 6 or any(
                isinstance(location.on, ast_nodes.Query) for location in block.patterns
            ):
                continue
            ctx = EvalContext(engine.catalog)
            ctx.params = case.params
            try:
                regret = block_regret(block, ctx)
            except GCoreError:
                continue
            if regret.best < math.inf:
                yield regret


def test_fuzz_blocks_stay_within_the_regret_bound_but_for_a_fifth():
    ratios = [regret.ratio for regret in _fuzz_regrets(_engine(SCALE))]
    over = sum(ratio > MAX_REGRET for ratio in ratios)
    assert len(ratios) >= 250 and over <= FUZZ_SHARE_OVER * len(ratios)


WHERE_LINE = re.compile(r"^\s+((?:pushed|residual) .*)$")


def _applied_lines(steps, graphs, ctx):
    """The EXPLAIN lines of what *steps* apply of the WHERE, rendered
    from the steps and graphs execution received and the lookup chain
    it runs under (the one ``CandidateProbe.narrow`` consults)."""
    lines = []
    for step in steps:
        atom = step.atom
        graph = graphs[atom.slot]
        for conjunct in step.probe:
            (var,) = conjunct.variables
            universe = getattr(graph, atom.probe_universe(var))
            indexed = conjunct.lookup is not None and (
                graphs[conjunct.expr.slot] is graph
                if isinstance(conjunct.expr, PatternTest)
                else ctx.property_reads_stay_in(graph, universe)
            )
            tag = "index" if indexed else "probe"
            lines.append(
                f"pushed {conjunct_text(conjunct.expr)} -> {atom.explain_label()} [{tag}]"
            )
        for expr in step.post:
            lines.append(f"pushed {conjunct_text(expr)} -> {atom.explain_label()} [filter]")
    return lines


@pytest.mark.parametrize("name", sorted(READ_CLASSES))
def test_explain_lists_the_where_assignment_execution_applies(
    name, engine, params, monkeypatch
):
    run_steps = match_module.run_atom_sequence
    finish = match_module.finish_block_where
    applied = []

    def steps_spy(steps, graphs, table, ctx, *rest):
        if ctx.depth == 0:
            applied.extend(_applied_lines(steps, graphs, ctx))
        return run_steps(steps, graphs, table, ctx, *rest)

    def residual_spy(table, residual, ctx, *rest):
        if ctx.depth == 0:
            applied.extend(f"residual {conjunct_text(expr)}" for expr in residual)
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


def _answer(result):
    """A result up to the fresh identifiers CONSTRUCT mints."""
    if isinstance(result, PathPropertyGraph):
        return result.nodes, result.edges, sorted(
            (result.path_sequence(p), repr(result.property(p, "distance")))
            for p in result.paths
        )
    return result.columns, list(result.rows)


def test_threads_on_one_snapshot_share_its_finders():
    """Eight threads run the six path_mix statements, all cold, against
    one snapshot — racing to build and fill the epoch's finders — and
    each gets the answers a sequential run on another engine gives."""
    names = [cls.name for cls in workloads.BY_NAME["path_mix"].classes]
    sequential_engine = _engine(60)
    drawn = _params(sequential_engine)
    sequential = [
        _answer(sequential_engine.run(READ_CLASSES[name].text, drawn[name]))
        for name in names
    ]
    snapshot = _engine(60).snapshot()
    barrier = threading.Barrier(8)
    results = []

    def reader(shift):
        barrier.wait()
        order = names[shift % 6:] + names[:shift % 6]
        answers = {
            name: _answer(snapshot.run(READ_CLASSES[name].text, drawn[name]))
            for name in order
        }
        results.append([answers[name] for name in names])

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the memo fills
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [sequential] * 8


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
#: What EXPLAIN names each search: ranked BFS, and the reachability DFS.
TARGET_ANCHORED_STRATEGY = dict(zip(TARGET_ANCHORED, ("bfs", "reach")))


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
    strategy = TARGET_ANCHORED_STRATEGY[text]
    assert path_line.endswith(f"strategy={strategy},batched,backward")

    original = match_module.run_atom_sequence
    steps_run = []

    def stepwise(steps, graphs, table, ctx, *rest):
        for step in steps:
            before = table
            table = original([step], graphs, table, ctx, *rest)
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
