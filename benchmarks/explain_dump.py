#!/usr/bin/env python
"""Dump EXPLAIN plans for representative queries (weekly CI artifact).

The scheduled full-scale benchmark job runs this after the snb300 suite
and archives the output, so planner decisions — the block's atom order,
the per-row estimate (``est~``) and cumulative table size (``rows~``) of
each step, and the path search strategy line (bfs/dijkstra,
batched/naive) — can be diffed between PRs alongside the timing JSON.

Usage::

    BENCH_PERSONS=300 PYTHONPATH=src python benchmarks/explain_dump.py
"""

import os

from repro import DEFAULT_CONFIG, GCoreEngine
from repro.config import ExecutionConfig
from repro.datasets.generator import SnbParameters, generate_snb_graph

QUERIES = [
    # Pattern matching over labels and properties.
    "CONSTRUCT (n) MATCH (n:Person)-[e:knows]->(m:Person) "
    "WHERE n.firstName = 'John'",
    # Reachability (bfs strategy, no walk materialization).
    "CONSTRUCT (m) MATCH (n:Person)-/<:knows*>/->(m:Person)",
    # Weighted shortest over a PATH view (dijkstra strategy).
    "CONSTRUCT (n)-/@p:route {d := c}/->(m) "
    "MATCH (n:Person)-/p<~wKnows*> COST c/->(m:Person)",
    # k shortest with cost binding.
    "CONSTRUCT (n)-/@p:route/->(m) "
    "MATCH (n:Person)-/3 SHORTEST p<:knows*> COST c/->(m:Person)",
    # Multi-atom join the cost planner reorders.
    "SELECT n.firstName, t.name MATCH (n:Person)-[:hasInterest]->(t:Tag), "
    "(n)-[:isLocatedIn]->(c:City)",
]


def main():
    persons = int(os.environ.get("BENCH_PERSONS", "100"))
    workers = os.environ.get("BENCH_WORKERS")
    config = DEFAULT_CONFIG
    if workers:
        config = ExecutionConfig(parallelism=int(workers))
    engine = GCoreEngine()
    graph = generate_snb_graph(SnbParameters(persons=persons, seed=21))
    engine.register_graph("snb", graph, default=True)
    engine.register_path_view(
        "PATH wKnows = (x:Person)-[e:knows]->(y:Person) COST 1"
    )
    print(f"# EXPLAIN dump @ snb graph, persons={persons}")
    print(f"# nodes={len(graph.nodes)} edges={len(graph.edges)}")
    print(f"# active config: {config.describe()}")
    for query in QUERIES:
        print()
        print(f"## {query}")
        print(engine.explain(query, config=config))


if __name__ == "__main__":
    main()
