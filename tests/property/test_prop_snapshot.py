"""Property tests: save → open is the identity, and an opened graph is
query-indistinguishable from the graph that was saved.

Two invariants back the storage tentpole:

* **Round trip** — for any generated graph, ``save_snapshot`` followed
  by ``open_snapshot`` reproduces the nodes, edges, stored paths,
  labels, properties (across every scalar type the value model admits,
  including the ``1`` / ``1.0`` / ``True`` spelling distinctions) and
  all statistics fields, bit for bit.
* **Query parity** — the same query over the graph ``GCoreEngine.open``
  decoded and over the original graph returns identical results, on
  the engine and on the oracle.
"""

from hypothesis import given, settings, strategies as st

from repro import GCoreEngine
from repro.fuzz.oracle import run as run_oracle
from repro.model.builder import GraphBuilder
from repro.model.values import Date
from repro.storage import open_snapshot, save_snapshot

EMPLOYERS = ("Acme", "HAL", "CWI")

#: Every scalar shape the property columns must keep distinct — note the
#: deliberate 1 / 1.0 / True aliases that compare equal in Python.
SCALARS = st.one_of(
    st.just(1),
    st.just(1.0),
    st.just(True),
    st.just(False),
    st.integers(-(2**40), 2**40),
    st.integers(2**70, 2**70 + 8),  # beyond i64: decimal-string encoding
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
    st.just(Date(2014, 12, 1)),
)


@st.composite
def snapshot_graphs(draw):
    """Random graphs with mixed id types, labels, props and stored paths."""
    builder = GraphBuilder(name="g")
    count = draw(st.integers(2, 7))
    node_ids = []
    for index in range(count):
        node_id = index if draw(st.booleans()) else f"n{index}"
        labels = draw(
            st.lists(st.sampled_from(["Person", "Tag", "Place"]), max_size=2)
        )
        props = draw(
            st.dictionaries(
                st.sampled_from(["name", "age", "employer", "x"]),
                SCALARS,
                max_size=3,
            )
        )
        builder.add_node(node_id, labels=labels, properties=props)
        node_ids.append(node_id)
    edge_ids = []
    for index in range(draw(st.integers(0, 10))):
        source = draw(st.sampled_from(node_ids))
        target = draw(st.sampled_from(node_ids))
        edge_id = f"e{index}"
        builder.add_edge(
            source,
            target,
            edge_id=edge_id,
            labels=draw(
                st.lists(st.sampled_from(["knows", "likes"]), max_size=2)
            ),
            properties=draw(
                st.dictionaries(st.just("since"), SCALARS, max_size=1)
            ),
        )
        edge_ids.append((edge_id, source, target))
    if edge_ids and draw(st.booleans()):
        edge_id, source, target = draw(st.sampled_from(edge_ids))
        builder.add_path(
            [source, edge_id, target],
            path_id="sp0",
            labels=["toWagner"],
            properties={"hops": 1},
        )
    return builder.build()


STATISTICS_FIELDS = (
    "node_count",
    "edge_count",
    "path_count",
    "node_label_counts",
    "edge_label_counts",
    "path_label_counts",
    "edge_label_sources",
    "edge_label_targets",
    "_node_prop_sel",
    "_edge_prop_sel",
    "_path_prop_sel",
)


def _typed(mapping):
    """Value sets with spelling: {key: {(type name, value), ...}}."""
    return {
        key: {(type(v).__name__, v) for v in values}
        for key, values in mapping.items()
    }


@given(snapshot_graphs())
@settings(max_examples=60, deadline=None)
def test_save_open_is_identity(tmp_path_factory, graph):
    path = str(tmp_path_factory.mktemp("snap") / "g.gsnap")
    engine = GCoreEngine()
    engine.register_graph("g", graph, default=True)
    with engine.snapshot() as snap:
        save_snapshot(snap.catalog, path)
    opened = open_snapshot(path).graph("g")
    assert opened == graph
    assert graph == opened
    for node in graph.nodes:
        assert opened.labels(node) == graph.labels(node)
        assert _typed(opened.properties(node)) == _typed(
            graph.properties(node)
        )
        assert opened.out_edges(node) == graph.out_edges(node)
        assert opened.in_edges(node) == graph.in_edges(node)
    for edge in graph.edges:
        assert opened.endpoints(edge) == graph.endpoints(edge)
        assert opened.labels(edge) == graph.labels(edge)
    for stored in graph.paths:
        assert opened.path_sequence(stored) == graph.path_sequence(stored)
        assert opened.labels(stored) == graph.labels(stored)
    opened_stats, oracle_stats = opened.statistics(), graph.statistics()
    for field in STATISTICS_FIELDS:
        assert getattr(opened_stats, field) == getattr(oracle_stats, field)


QUERIES = (
    "SELECT n.name AS name MATCH (n:Person) WHERE n.age >= 21 ORDER BY name",
    "SELECT n.employer AS emp, COUNT(*) AS c MATCH (n:Person) "
    "GROUP BY n.employer",
    "SELECT n, m MATCH (n:Person)-[:knows]->(m)",
    "SELECT n.name AS name, m.name AS friend "
    "MATCH (n:Person) OPTIONAL (n)-[:knows]->(m:Person)",
)


@st.composite
def person_graphs(draw):
    """Graphs the parity queries can actually bind against."""
    builder = GraphBuilder(name="g")
    count = draw(st.integers(3, 7))
    for index in range(count):
        builder.add_node(
            f"p{index}",
            labels=["Person"],
            properties={
                "name": f"p{index}",
                "age": draw(st.integers(18, 45)),
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


@given(person_graphs(), st.sampled_from(("engine", "oracle")))
@settings(max_examples=50, deadline=None)
def test_save_open_query_parity_on_engine_and_oracle(tmp_path_factory, graph, side):
    path = str(tmp_path_factory.mktemp("snap") / "g.gsnap")
    oracle = GCoreEngine()
    oracle.register_graph("g", graph, default=True)
    oracle.save(path)
    opened = GCoreEngine.open(path)
    for query in QUERIES:
        if side == "oracle":
            expected, got = run_oracle(oracle, query), run_oracle(opened, query)
        else:
            expected, got = oracle.run(query), opened.run(query)
        assert got.columns == expected.columns
        assert list(got.rows) == list(expected.rows)


@given(person_graphs())
@settings(max_examples=25, deadline=None)
def test_save_open_path_bindings_parity(tmp_path_factory, graph):
    path = str(tmp_path_factory.mktemp("snap") / "g.gsnap")
    oracle = GCoreEngine()
    oracle.register_graph("g", graph, default=True)
    oracle.save(path)
    opened = GCoreEngine.open(path)
    query = "MATCH (n:Person)-/<:knows*>/->(m:Person)"
    expected = oracle.bindings(query)
    got = opened.bindings(query)
    assert got.variables == expected.variables
    assert list(got.rows) == list(expected.rows)
