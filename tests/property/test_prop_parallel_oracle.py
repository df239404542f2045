"""Property test: parallel execution vs. the serial oracle.

ISSUE 7's exactness bar: a worker pool is an implementation detail, so a
query run at ``parallelism=N`` must produce the *identical* result — the
same rows in the same order with the same columns, the same group merge
order under GROUP BY, the same ABSENT masks under OPTIONAL, and the same
skolem identities under CONSTRUCT — as the serial engine, at every point
of the mode lattice (both planners crossed with the parallelism axis).

The dispatch threshold is forced to 2 rows, so every block whose table
reaches two rows hands its tail to the pool in at least two morsels (no
vacuous parity through the size guard), on the thread backend for speed;
one test pins the fork backend end to end and a spy asserts morsels were
genuinely dispatched. Two more pin that one immutable block plan can be
shared: by threads replaying a prepared statement's cached plan, and by
the morsels of one parallel run.
"""

import sys
import threading

import pytest

from hypothesis import given, settings, strategies as st

from repro import GCoreEngine
from repro.config import ExecutionConfig
from repro.eval import parallel
from repro.model.builder import GraphBuilder
from repro.model.io import graph_to_dict

THRESHOLDS = ("MIN_PARALLEL_ROWS",)

PARALLEL = ExecutionConfig(parallelism=3)


@pytest.fixture(scope="module", autouse=True)
def force_dispatch():
    """Threshold -> 2 (a one-row unit table would be a single morsel),
    thread backend (fast)."""
    saved = {name: getattr(parallel, name) for name in THRESHOLDS}
    backend = parallel.DEFAULT_BACKEND
    for name in THRESHOLDS:
        setattr(parallel, name, 2)
    parallel.DEFAULT_BACKEND = "thread"
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(parallel, name, value)
        parallel.DEFAULT_BACKEND = backend
        parallel.shutdown_pools()


EMPLOYERS = ("Acme", "HAL", "CWI")


@st.composite
def social_graphs(draw):
    """Small random Person/knows graphs with filterable properties."""
    builder = GraphBuilder(name="g")
    count = draw(st.integers(3, 7))
    for index in range(count):
        builder.add_node(
            f"p{index}",
            labels=["Person"],
            properties={
                "name": f"p{index}",
                "age": draw(st.integers(20, 45)),
                "employer": draw(st.sampled_from(EMPLOYERS)),
            },
        )
    for index in range(draw(st.integers(0, 10))):
        source = draw(st.integers(0, count - 1))
        target = draw(st.integers(0, count - 1))
        builder.add_edge(
            f"p{source}", f"p{target}", edge_id=f"k{index}", labels=["knows"]
        )
    return builder.build()


def _companies():
    builder = GraphBuilder(name="c2")
    for name in ("p1", "Acme", "p3"):
        builder.add_node(
            f"c_{name}", labels=["Company"], properties={"name": name}
        )
    return builder.build()


def make_engine(graph):
    engine = GCoreEngine()
    engine.register_graph("g", graph, default=True)
    engine.register_graph("c2", _companies())
    return engine


#: A block over two graphs: the tail runs each atom against its own.
TWO_GRAPH_QUERY = (
    "SELECT n.name AS a, m.name AS b, c.name AS co "
    "MATCH (n:Person)-[:knows]->(m:Person) ON g, (c:Company) ON c2 "
    "WHERE n.name <> c.name"
)

# Each query leans on a different part of the block tail: pushed and
# residual WHERE conjuncts, GROUP BY over a morsel-merged table (merge
# order = group first-occurrence order — no ORDER BY on purpose),
# OPTIONAL ABSENT masks flowing through morsels, plain projection, and
# atoms on two graphs.
SELECT_QUERIES = [
    "SELECT n.name AS a, m.name AS b "
    "MATCH (n:Person)-[:knows]->(m:Person) "
    "WHERE n.age >= m.age AND n.employer = 'Acme'",
    "SELECT n.employer AS emp, COUNT(*) AS c, MIN(n.age) AS lo, "
    "COUNT(DISTINCT n.name) AS dn "
    "MATCH (n:Person) GROUP BY n.employer",
    "SELECT n.name AS name, m.name AS friend "
    "MATCH (n:Person) OPTIONAL (n)-[:knows]->(m:Person)",
    "SELECT n.name AS name, n.age + 1 AS next "
    "MATCH (n:Person) WHERE n.age >= 21 ORDER BY name",
    # e2e wagner_fans_friends' shape: a disconnected scan, a probe, a join.
    "SELECT n.name AS a, m.name AS b MATCH (m), "
    "(n:Person {employer='Acme'}), (n)-[:knows]->(m) WHERE (m:Person)",
    TWO_GRAPH_QUERY,
]


def assert_same_table(serial, parallel_result):
    assert parallel_result.columns == serial.columns
    assert list(parallel_result.rows) == list(serial.rows)


@given(social_graphs())
@settings(max_examples=40, deadline=None)
def test_select_queries_match_serial_exactly(graph):
    engine = make_engine(graph)
    for query in SELECT_QUERIES:
        serial = engine.run(query)
        assert_same_table(serial, engine.run(query, config=PARALLEL))


@given(social_graphs())
@settings(max_examples=30, deadline=None)
def test_path_bindings_match_serial_exactly(graph):
    """A path atom in a morsel-split block tail binds exactly as serially."""
    query = "MATCH (n:Person)-/<:knows*>/->(m:Person)"
    engine = make_engine(graph)
    serial = engine.bindings(query)
    parallel_table = engine.bindings(query, config=PARALLEL)
    assert parallel_table.variables == serial.variables
    assert list(parallel_table.rows) == list(serial.rows)


@given(social_graphs())
@settings(max_examples=30, deadline=None)
def test_construct_skolem_identities_match_serial(graph):
    """CONSTRUCT with an unbound variable mints one skolem node per
    binding — morsel execution must preserve the binding order those
    identities are derived from, so the result graphs are bit-identical.
    """
    query = (
        "CONSTRUCT (n)-[:flagged]->(x) "
        "MATCH (n:Person)-[:knows]->(m:Person) WHERE n.age >= m.age"
    )
    engine = make_engine(graph)
    serial = engine.run(query)
    parallel_graph = engine.run(query, config=PARALLEL)
    assert graph_to_dict(parallel_graph) == graph_to_dict(serial)


LATTICE = st.builds(ExecutionConfig, planner=st.sampled_from(("cost", "naive")))


@given(social_graphs(), LATTICE, st.sampled_from(SELECT_QUERIES))
@settings(max_examples=60, deadline=None)
def test_parallelism_axis_is_transparent_across_lattice(graph, config, query):
    """parallelism=N vs. serial at the *same* lattice point, for both
    planners."""
    engine = make_engine(graph)
    serial = engine.run(query, config=config)
    assert_same_table(
        serial, engine.run(query, config=config.with_(parallelism=3))
    )


def _fixed_graph():
    builder = GraphBuilder(name="g")
    for index in range(8):
        builder.add_node(
            f"p{index}",
            labels=["Person"],
            properties={
                "name": f"p{index}",
                "age": 20 + index,
                "employer": EMPLOYERS[index % len(EMPLOYERS)],
            },
        )
    for index in range(8):
        builder.add_edge(
            f"p{index}",
            f"p{(index * 3 + 1) % 8}",
            edge_id=f"k{index}",
            labels=["knows"],
        )
    return builder.build()


def _spy_on_dispatch(monkeypatch):
    calls = []
    original = parallel._run_tasks

    def spy(fn, payloads, config):
        calls.append(fn.__name__)
        return original(fn, payloads, config)

    monkeypatch.setattr(parallel, "_run_tasks", spy)
    return calls


def test_thread_backend_actually_dispatches(monkeypatch):
    """Guard against vacuous parity: the suite must ride the pool."""
    calls = _spy_on_dispatch(monkeypatch)
    engine = make_engine(_fixed_graph())
    for query in SELECT_QUERIES:
        assert_same_table(
            engine.run(query), engine.run(query, config=PARALLEL)
        )
    assert calls, "no query dispatched to the worker pool"


def test_two_graph_block_runs_its_tail_on_the_pool(monkeypatch):
    """A block whose patterns are ON different graphs dispatches its
    tail like any other columnar block."""
    calls = _spy_on_dispatch(monkeypatch)
    engine = make_engine(_fixed_graph())
    serial = engine.run(TWO_GRAPH_QUERY)
    assert serial.rows
    assert_same_table(serial, engine.run(TWO_GRAPH_QUERY, config=PARALLEL))
    assert calls == ["_block_tail_worker"]


@pytest.mark.skipif(
    not parallel._FORK_AVAILABLE, reason="fork start method unavailable"
)
def test_fork_backend_matches_serial(monkeypatch):
    """At least one end-to-end run on the production (fork) backend."""
    monkeypatch.setattr(parallel, "DEFAULT_BACKEND", "fork")
    calls = _spy_on_dispatch(monkeypatch)
    engine = make_engine(_fixed_graph())
    try:
        for query in SELECT_QUERIES:
            assert_same_table(
                engine.run(query),
                engine.run(query, config=ExecutionConfig(parallelism=2)),
            )
        # Reachability, then walks bound to p, which cross the pipe.
        for query in (
            "MATCH (n:Person)-/<:knows*>/->(m:Person)",
            "MATCH (n:Person)-/p<:knows*> COST c/->(m:Person)",
        ):
            serial = engine.bindings(query)
            forked = engine.bindings(
                query, config=ExecutionConfig(parallelism=2)
            )
            assert list(forked.rows) == list(serial.rows)
    finally:
        parallel.shutdown_pools()
    assert calls, "no query dispatched to the fork pool"


#: One ``[index]`` conjunct at node(n)'s probe, one ``[filter]`` conjunct
#: after the edge that binds m.
SHARED_PLAN_QUERY = (
    "SELECT n.name AS a, m.name AS b "
    "MATCH (n:Person)-[:knows]->(m:Person) "
    "WHERE n.employer = $emp AND n.age >= m.age"
)
SHARED_PARAMS = {"emp": "Acme"}


def _shared_plan_engine():
    engine = make_engine(_fixed_graph())
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
        assert_same_table(serial, result)
    assert len(prepared.plans) == 1 and prepared.plans.hits == 4 * runs


def test_morsels_of_one_run_share_its_steps(monkeypatch):
    """On the thread backend every morsel of a dispatch gets the very
    same step objects, pushed conjuncts included; each must still apply
    all of them."""
    dispatches = []
    original = parallel._run_tasks

    def spy(fn, payloads, config):
        if fn.__name__ == "_block_tail_worker":
            dispatches.append(payloads)
        return original(fn, payloads, config)

    monkeypatch.setattr(parallel, "_run_tasks", spy)
    prepared = _shared_plan_engine().prepare(SHARED_PLAN_QUERY)
    serial = prepared.run(params=SHARED_PARAMS)
    config = ExecutionConfig(parallelism=2)
    for _ in range(3):
        assert_same_table(serial, prepared.run(params=SHARED_PARAMS, config=config))
    assert len(dispatches) == 3
    for payloads in dispatches:
        assert len(payloads) >= 2
        shipped = [steps for _ctx, _graphs, _table, steps, *_rest in payloads]
        assert all(steps is shipped[0] for steps in shipped)
        assert any(step.post for step in shipped[0])
