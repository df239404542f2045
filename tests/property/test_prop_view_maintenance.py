"""Property: a view is fresh at every epoch, whatever its strategy.

Random write sequences over generated graphs: deltas through
``engine.apply_update``, and now and then a wholesale replacement of the
base through ``register_graph``. After *every* write the maintained
view ``v`` — and a view ``w`` over ``v`` — must be graph-equal (nodes,
edges, paths, labels and properties) to evaluating their bodies from
scratch over the current base graph (a fresh engine, so no state can
leak). View bodies cover the maintenance strategy matrix: plain MATCH
and label-filtered MATCH (incremental), WHERE with value joins
(incremental with row gain/loss), OPTIONAL and GROUP BY aggregates (full
recompute) — the strategies must be indistinguishable from the outside,
and a delta must never send an incremental view to the full recompute.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import GCoreEngine, GraphBuilder, GraphDelta
from repro.eval import maintenance
from repro.eval.maintenance import analyze_view

NODE_IDS = [f"p{i}" for i in range(7)]

VIEW_BODIES = {
    "plain": "CONSTRUCT (a)-[e]->(b) MATCH (a)-[e:knows]->(b)",
    "labeled": "CONSTRUCT (a) MATCH (a:Person)",
    "two_hop": (
        "CONSTRUCT (a)-[e1]->(b)-[e2]->(c) "
        "MATCH (a:Person)-[e1:knows]->(b:Person)-[e2:knows]->(c:Person)"
    ),
    "where": (
        "CONSTRUCT (a)-[e]->(b) MATCH (a)-[e:knows]->(b) "
        "WHERE a.score = b.score"
    ),
    "optional": (
        "CONSTRUCT (a)-[f]->(c) MATCH (a:Person) OPTIONAL (a)-[f:likes]->(c)"
    ),
    "group_by": (
        "CONSTRUCT (a)-[e]->(b) SET e.cnt := COUNT(*) "
        "MATCH (a)-[e:knows]->(b)"
    ),
}

#: A view over ``v``: always a full recompute, after ``v`` in each commit.
VIEW_ON_VIEW = "CONSTRUCT (x) MATCH (x:Person) ON v"

EXPECTED_STRATEGY = {
    "plain": "incremental",
    "labeled": "incremental",
    "two_hop": "incremental",
    "where": "incremental",
    "optional": "full",
    "group_by": "full",
}


@st.composite
def base_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=len(NODE_IDS)))
    builder = GraphBuilder(name="base")
    for node in NODE_IDS[:n]:
        labels = ["Person"] if draw(st.booleans()) else ["Tag"]
        properties = {}
        if draw(st.booleans()):
            properties["score"] = draw(st.integers(min_value=0, max_value=2))
        builder.add_node(node, labels=labels, properties=properties)
    edge_count = draw(st.integers(min_value=0, max_value=2 * n))
    for index in range(edge_count):
        src = NODE_IDS[draw(st.integers(0, n - 1))]
        dst = NODE_IDS[draw(st.integers(0, n - 1))]
        label = draw(st.sampled_from(["knows", "likes"]))
        builder.add_edge(src, dst, edge_id=f"e{index}", labels=[label])
    return builder.build()


def random_delta(draw, graph, counter):
    """A small structurally-valid delta against *graph*."""
    nodes = sorted(graph.nodes, key=str)
    edges = sorted(graph.edges, key=str)
    choices = ["add_node", "add_node_edge"]
    if nodes:
        choices += ["remove_node", "set_score", "drop_score", "flip_label"]
    if edges:
        choices += ["remove_edge", "relabel_edge"]
    kind = draw(st.sampled_from(choices))
    delta = GraphDelta()
    if kind == "add_node":
        labels = ["Person"] if draw(st.booleans()) else ["Tag"]
        delta.add_node(f"q{counter}", labels=labels,
                       properties={"score": draw(st.integers(0, 2))})
    elif kind == "add_node_edge":
        delta.add_node(f"q{counter}", labels=["Person"])
        if nodes:
            other = draw(st.sampled_from(nodes))
            label = draw(st.sampled_from(["knows", "likes"]))
            if draw(st.booleans()):
                delta.add_edge(f"k{counter}", f"q{counter}", other,
                               labels=[label])
            else:
                delta.add_edge(f"k{counter}", other, f"q{counter}",
                               labels=[label])
    elif kind == "remove_node":
        delta.remove_node(draw(st.sampled_from(nodes)))
    elif kind == "remove_edge":
        delta.remove_edge(draw(st.sampled_from(edges)))
    elif kind == "set_score":
        delta.set_property(draw(st.sampled_from(nodes)), "score",
                           draw(st.integers(0, 2)))
    elif kind == "drop_score":
        delta.remove_property(draw(st.sampled_from(nodes)), "score")
    elif kind == "flip_label":
        node = draw(st.sampled_from(nodes))
        if "Person" in graph.labels(node):
            delta.remove_label(node, "Person")
        else:
            delta.add_label(node, "Person")
    elif kind == "relabel_edge":
        edge = draw(st.sampled_from(edges))
        if "knows" in graph.labels(edge):
            delta.remove_label(edge, "knows")
            delta.add_label(edge, "likes")
        else:
            delta.add_label(edge, "knows")
    return delta


def recompute_oracle(engine, body, v_body=None):
    """The view body evaluated from scratch on a fresh engine, over a
    view ``v`` defined by *v_body* when given."""
    fresh = GCoreEngine()
    fresh.register_graph("base", engine.graph("base"), default=True)
    if v_body is not None:
        fresh.run(f"GRAPH VIEW v AS ({v_body})")
    return fresh.run(body)


def assert_graph_equal(got, expected, context):
    assert got.nodes == expected.nodes, context
    assert dict(got.rho) == dict(expected.rho), context
    assert dict(got.delta) == dict(expected.delta), context
    assert got.label_map() == expected.label_map(), context
    assert got.property_map() == expected.property_map(), context
    assert got == expected, context


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    graph=base_graphs(),
    view_kind=st.sampled_from(sorted(VIEW_BODIES)),
    steps=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_views_equal_recompute_after_every_write(graph, view_kind, steps, data):
    body = VIEW_BODIES[view_kind]
    engine = GCoreEngine()
    engine.register_graph("base", graph, default=True)
    engine.run(f"GRAPH VIEW v AS ({body})")
    engine.run(f"GRAPH VIEW w AS ({VIEW_ON_VIEW})")
    v_query = engine.catalog.view_query("v")

    plan = analyze_view(v_query, engine.catalog)
    assert plan.strategy == EXPECTED_STRATEGY[view_kind]

    full_recomputes = []
    real = maintenance.evaluate_view

    def spy(query, ctx):
        full_recomputes.append(query)
        return real(query, ctx)

    for step in range(steps):
        if data.draw(st.integers(0, 4), label="replace base") == 0:
            engine.register_graph("base", data.draw(base_graphs()), default=True)
        else:
            delta = random_delta(data.draw, engine.graph("base"), step)
            with mock.patch.object(maintenance, "evaluate_view", spy):
                engine.apply_update("base", delta)
        assert_graph_equal(
            engine.graph("v"), recompute_oracle(engine, body),
            f"{view_kind} v step {step}",
        )
        assert_graph_equal(
            engine.graph("w"), recompute_oracle(engine, VIEW_ON_VIEW, body),
            f"{view_kind} w step {step}",
        )
    if plan.strategy == "incremental":
        assert v_query not in full_recomputes


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=base_graphs(), steps=st.integers(1, 4), data=st.data())
def test_statistics_counts_stay_exact_under_deltas(graph, steps, data):
    """Incrementally adjusted statistics == full rebuild, for the exact
    fields (totals and per-label counts) the contract promises."""
    from repro.model.statistics import GraphStatistics

    engine = GCoreEngine()
    engine.register_graph("base", graph, default=True)
    engine.graph("base").statistics()  # force the cache so deltas adjust it
    for step in range(steps):
        delta = random_delta(data.draw, engine.graph("base"), step)
        engine.apply_update("base", delta)
    adjusted = engine.graph("base").statistics()
    rebuilt = GraphStatistics(engine.graph("base"))
    assert adjusted.node_count == rebuilt.node_count
    assert adjusted.edge_count == rebuilt.edge_count
    assert adjusted.path_count == rebuilt.path_count
    assert adjusted.node_label_counts == rebuilt.node_label_counts
    assert adjusted.edge_label_counts == rebuilt.edge_label_counts
    assert adjusted.path_label_counts == rebuilt.path_label_counts
