#!/usr/bin/env python3
"""Analyzing databases of stored paths at scale.

"A unique capability of G-CORE is to query and analyze databases of
potentially many stored paths" (Section 3). This example materializes
hundreds of shortest paths over a generated SNB-like graph, stores them
as first-class path objects, and then runs analytics *over the paths
themselves*: length histograms, most-traversed hubs, reachability
structure.

Run:  python examples/path_analytics.py
"""

from collections import Counter

from repro import GCoreEngine
from repro.datasets import load


def main() -> None:
    engine = GCoreEngine()
    load("snb", scale=60, seed=2026).install(engine)

    print("Materializing shortest knows-paths from every Verdi fan ...")
    paths_graph = engine.run(
        """
        CONSTRUCT (n)-/@p:fanRoute {hops := c}/->(m)
        MATCH (n:Person)-/p<:knows*> COST c/->(m:Person)
        WHERE (n)-[:hasInterest]->(:Tag {name='Verdi'})
          AND (m)-[:hasInterest]->(:Tag {name='Wagner'})
        """
    )
    print(f"  stored {len(paths_graph.paths)} :fanRoute paths "
          f"({paths_graph.order()} nodes, {paths_graph.size()} edges in the "
          f"projection)")
    engine.register_graph("routes", paths_graph)

    print("\nLength histogram (SELECT over stored paths):")
    histogram = engine.run(
        "SELECT c AS hops, COUNT(*) AS routes "
        "MATCH (a)-/@p:fanRoute COST c/->(b) ON routes "
        "GROUP BY hops ORDER BY hops"
    )
    print(histogram.pretty())

    print("\nMost-traversed intermediate persons (path post-processing):")
    hubs = Counter()
    for pid in paths_graph.paths:
        for node in paths_graph.path_nodes(pid)[1:-1]:
            hubs[node] += 1
    for node, count in hubs.most_common(5):
        first = next(iter(paths_graph.property(node, "firstName")), "?")
        print(f"  {node} ({first}): on {count} shortest routes")

    print("\nRoutes longer than 2 hops, via the stored-path pattern:")
    long_routes = engine.run(
        "CONSTRUCT (a)-[e:farFan {hops := h}]->(b) "
        "MATCH (a)-/@p:fanRoute COST h/->(b) ON routes WHERE h > 2"
    )
    print(f"  {len(long_routes.edges)} far-fan pairs")

    print("\nk-shortest variety: 3 SHORTEST alternatives for one pair:")
    pairs = sorted(
        (paths_graph.path_nodes(p)[0], paths_graph.path_nodes(p)[-1])
        for p in paths_graph.paths
        if paths_graph.path_length(p) >= 2
    )
    if pairs:
        alternatives = engine.run(
            "CONSTRUCT (a)-/@q:alt {hops := c}/->(b) "
            "MATCH (a)-/3 SHORTEST q<:knows*> COST c/->(b) ON snb "
            "WHERE (a)-[:hasInterest]->(:Tag {name='Verdi'}) "
            "AND (b)-[:hasInterest]->(:Tag {name='Wagner'})"
        )
        per_pair = Counter(
            (alternatives.path_nodes(p)[0], alternatives.path_nodes(p)[-1])
            for p in alternatives.paths
        )
        multi = [pair for pair, n in per_pair.items() if n > 1]
        print(f"  {len(multi)} pairs have 2+ distinct shortest alternatives")


if __name__ == "__main__":
    main()
