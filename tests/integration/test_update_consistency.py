"""Stress: interleaved apply_update / prepared-query traffic stays fresh.

The streaming-update contract: ``apply_update`` must keep every consumer
coherent — prepared queries (which stay cached across deltas) must see
the new graph, per-graph plan memos must never replay against the
superseded graph object, incrementally-adjusted statistics must match a
full rebuild on the exact fields, and materialized views must equal
their query re-run on the new graph. Every iteration
cross-checks against a fresh engine built from the current graph, so any
stale cache anywhere shows up as a result difference.
"""

import gc
import random
import weakref

import pytest

from repro import GCoreEngine, GraphBuilder, GraphDelta
from repro.eval import match as match_module
from repro.model.statistics import GraphStatistics

SELECT_QUERY = (
    "SELECT a.name, b.name MATCH (a:Person)-[e:knows]->(b:Person) "
    "WHERE a.score = $s ORDER BY a.name, b.name"
)
CONSTRUCT_QUERY = "CONSTRUCT (a)-[e]->(b) MATCH (a:Person)-[e:knows]->(b)"
VIEW_TEXT = f"GRAPH VIEW vk AS ({CONSTRUCT_QUERY})"


def seed_graph(n=12, rng=None):
    rng = rng or random.Random(7)
    b = GraphBuilder(name="g")
    names = [f"p{i}" for i in range(n)]
    for i, node in enumerate(names):
        b.add_node(node, labels=["Person"],
                   properties={"name": node, "score": i % 3})
    for j in range(2 * n):
        b.add_edge(rng.choice(names), rng.choice(names), edge_id=f"e{j}",
                   labels=["knows"])
    return b.build()


def random_delta(rng, graph, tag):
    nodes = sorted(graph.nodes, key=str)
    edges = sorted(graph.edges, key=str)
    delta = GraphDelta()
    kind = rng.choice(["grow", "shrink", "mutate"])
    if kind == "grow" or not edges:
        delta.add_node(f"q{tag}", labels=["Person"],
                       properties={"name": f"q{tag}", "score": rng.randint(0, 2)})
        delta.add_edge(f"k{tag}", f"q{tag}", rng.choice(nodes), labels=["knows"])
    elif kind == "shrink":
        if rng.random() < 0.5 and len(nodes) > 4:
            delta.remove_node(rng.choice(nodes))
        else:
            delta.remove_edge(rng.choice(edges))
    else:
        delta.set_property(rng.choice(nodes), "score", rng.randint(0, 2))
    return delta


class TestInterleavedUpdates:
    def test_prepared_queries_never_serve_stale_results(self):
        rng = random.Random(99)
        engine = GCoreEngine()
        engine.register_graph("g", seed_graph(rng=rng), default=True)
        engine.graph("g").statistics()  # warm so deltas adjust incrementally
        prepared = engine.prepare(SELECT_QUERY)
        engine.run(CONSTRUCT_QUERY)  # prime the prepared-query LRU too

        for step in range(25):
            delta = random_delta(rng, engine.graph("g"), step)
            engine.apply_update("g", delta)

            # the prepared statement object stayed cached...
            assert engine.prepare(SELECT_QUERY) is prepared
            assert engine.is_plan_cached(CONSTRUCT_QUERY)

            # ...and still answers against the *current* graph
            oracle = GCoreEngine()
            oracle.register_graph("g", engine.graph("g"), default=True)
            for s in (0, 1, 2):
                got = prepared.run(params={"s": s})
                expected = oracle.run(SELECT_QUERY, params={"s": s})
                assert got.rows == expected.rows, f"step {step} s={s}"
            got_graph = engine.run(CONSTRUCT_QUERY)
            assert got_graph == oracle.run(CONSTRUCT_QUERY), f"step {step}"

    def test_statistics_track_deltas_exactly(self):
        rng = random.Random(3)
        engine = GCoreEngine()
        engine.register_graph("g", seed_graph(rng=rng), default=True)
        engine.graph("g").statistics()
        for step in range(20):
            engine.apply_update("g", random_delta(rng, engine.graph("g"), step))
            adjusted = engine.graph("g").statistics()
            rebuilt = GraphStatistics(engine.graph("g"))
            assert adjusted.node_count == rebuilt.node_count, step
            assert adjusted.edge_count == rebuilt.edge_count, step
            assert adjusted.node_label_counts == rebuilt.node_label_counts
            assert adjusted.edge_label_counts == rebuilt.edge_label_counts
        # the adjusted statistics object is the cached one (no rebuild ran)
        assert engine.graph("g").cached_statistics() is adjusted

    def test_views_interleaved_with_updates_and_queries(self):
        rng = random.Random(41)
        engine = GCoreEngine()
        engine.register_graph("g", seed_graph(rng=rng), default=True)
        engine.run(VIEW_TEXT)
        prepared = engine.prepare("SELECT x.name MATCH (x:Person) ON vk "
                                  "ORDER BY x.name")
        for step in range(15):
            engine.apply_update("g", random_delta(rng, engine.graph("g"), step))
            refreshed = engine.graph("vk")

            oracle = GCoreEngine()
            oracle.register_graph("g", engine.graph("g"), default=True)
            assert refreshed == oracle.run(CONSTRUCT_QUERY), f"step {step}"

            oracle.register_graph("vk2", refreshed)
            got = prepared.run()
            expected = oracle.run(
                "SELECT x.name MATCH (x:Person) ON vk2 ORDER BY x.name"
            )
            assert got.rows == expected.rows, f"step {step}"

    def test_plan_memos_never_replay_against_old_graph(self):
        rng = random.Random(17)
        engine = GCoreEngine()
        engine.register_graph("g", seed_graph(rng=rng), default=True)
        prepared = engine.prepare(CONSTRUCT_QUERY)
        prepared.run()
        assert len(prepared.plans) > 0
        old_graph = weakref.ref(engine.graph("g"))
        engine.apply_update(
            "g", GraphDelta().add_node("zz", labels=["Person"],
                                       properties={"name": "zz"})
            .add_edge("ezz", "p0", "zz", labels=["knows"])
        )
        # the plan made for the superseded graph pins it nowhere, and
        # can never be replayed against the graph that replaced it
        gc.collect()
        assert old_graph() is None
        result = prepared.run()
        assert "zz" in result.nodes
        assert len(prepared.plans) > 0

    def test_schema_gate_rejects_invalid_updates(self):
        from repro import GraphSchema
        from repro.errors import ValidationError
        from repro.model.schema import EdgeType

        schema = GraphSchema(
            node_properties={"Person": frozenset({"name", "score"})},
            edge_types={"knows": EdgeType("knows",
                                          frozenset({("Person", "Person")}))},
        )
        engine = GCoreEngine()
        engine.register_graph("g", seed_graph(), default=True, schema=schema)
        before = engine.graph("g")
        with pytest.raises(ValidationError):
            engine.apply_update(
                "g", GraphDelta().add_node("bad", labels=["Alien"])
            )
        # a rejected update must not half-apply
        assert engine.graph("g") is before
        engine.apply_update(
            "g",
            GraphDelta().add_node("ok", labels=["Person"],
                                  properties={"name": "ok"}),
        )
        assert "ok" in engine.graph("g").nodes

    def test_schema_gate_rechecks_incident_edges_on_relabel(self):
        """Regression: relabeling a node must re-validate its incident
        edges — edge admissibility depends on endpoint labels, so the
        scoped check cannot stop at the objects the delta named."""
        from repro import GraphSchema
        from repro.errors import ValidationError
        from repro.model.schema import EdgeType

        schema = GraphSchema(
            node_properties={
                "Person": frozenset({"name", "score"}),
                "Bot": frozenset({"name", "score"}),
            },
            edge_types={"knows": EdgeType("knows",
                                          frozenset({("Person", "Person")}))},
        )
        engine = GCoreEngine()
        engine.register_graph("g", seed_graph(), default=True, schema=schema)
        victim = sorted(engine.graph("g").edges, key=str)[0]
        endpoint = engine.graph("g").endpoints(victim)[0]
        with pytest.raises(ValidationError):
            engine.apply_update(
                "g",
                GraphDelta()
                .remove_label(endpoint, "Person")
                .add_label(endpoint, "Bot"),
            )


@pytest.fixture()
def plans_made(monkeypatch):
    """Count plan_block calls (one per block planned, memo misses only)."""
    original = match_module.plan_block
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(match_module, "plan_block", spy)
    return calls


class TestPlanMemoVersions:
    """A plan memo keeps one plan per graph version and pins none: no
    write clears it, and a superseded graph is freed with its last
    reader, not with the last prepared query that planned against it."""

    def test_held_prepared_query_frees_a_replaced_graph(self):
        engine = GCoreEngine()
        engine.register_graph("g", seed_graph(), default=True)
        prepared = engine.prepare(CONSTRUCT_QUERY)
        prepared.run()
        replaced = weakref.ref(engine.graph("g"))
        engine.register_graph("g", seed_graph(rng=random.Random(3)))
        gc.collect()
        assert replaced() is None
        assert prepared.run().nodes <= engine.graph("g").nodes

    def test_snapshot_replanning_after_update_frees_its_version(self):
        engine = GCoreEngine()
        engine.register_graph("g", seed_graph(), default=True)
        prepared = engine.prepare(CONSTRUCT_QUERY)
        snap = engine.snapshot()
        old = weakref.ref(snap.graph("g"))
        engine.apply_update("g", GraphDelta().add_node("zz", labels=["Person"]))
        prepared.run()  # plans for the new version
        snap.execute_prepared(prepared)  # plans again for the old one
        del snap
        gc.collect()
        assert old() is None
        assert len(prepared.plans) == 2  # the dead entry ages out of the LRU

    def test_one_plan_per_graph_version(self, plans_made):
        engine = GCoreEngine()
        engine.register_graph("g", seed_graph(), default=True)
        prepared = engine.prepare(SELECT_QUERY)
        prepared.run(params={"s": 0})
        snap = engine.snapshot()
        del plans_made[:]
        prepared.run(params={"s": 1})
        assert len(plans_made) == 0  # a repeat run replays
        engine.apply_update("g", GraphDelta().add_node("zz", labels=["Person"]))
        prepared.run(params={"s": 0})
        assert len(plans_made) == 1  # the new version plans once
        prepared.run(params={"s": 2})
        snap.execute_prepared(prepared, params={"s": 0})
        assert len(plans_made) == 1  # the old version's plan still serves
