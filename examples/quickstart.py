#!/usr/bin/env python3
"""Quickstart: your first G-CORE queries.

Loads the paper's toy social network (Figure 4), runs the very first
query of the guided tour, and demonstrates the two pillars of G-CORE:
*composability* (the result of a query is a graph you can query again)
and *paths as first-class citizens* (queries can store paths into their
result graphs).

Run:  python examples/quickstart.py
"""

from repro import GCoreEngine
from repro.datasets import load


def main() -> None:
    engine = GCoreEngine()
    load("paper").install(engine)  # social_graph (default), company_graph, orders

    print("=" * 72)
    print("1. Every query returns a graph (Section 3, lines 1-4)")
    print("=" * 72)
    acme = engine.run(
        """
        CONSTRUCT (n)
        MATCH (n:Person) ON social_graph
        WHERE n.employer = 'Acme'
        """
    )
    print(acme.describe())

    print()
    print("=" * 72)
    print("2. Composability: register the result, query it again")
    print("=" * 72)
    engine.register_graph("acme_people", acme)
    first_names = engine.run(
        "SELECT n.firstName AS first MATCH (n) ON acme_people ORDER BY first"
    )
    print(first_names.pretty())

    print()
    print("=" * 72)
    print("3. Paths as first-class citizens: store shortest paths")
    print("=" * 72)
    routes = engine.run(
        """
        CONSTRUCT (n)-/@p:friendRoute {distance := c}/->(m)
        MATCH (n)-/p<:knows*> COST c/->(m)
        WHERE (n:Person) AND (m:Person)
          AND n.firstName = 'John' AND m.firstName = 'Frank'
        """
    )
    for pid in sorted(routes.paths, key=str):
        nodes = " -> ".join(str(n) for n in routes.path_nodes(pid))
        (distance,) = routes.property(pid, "distance")
        print(f"stored path {pid}: {nodes}   (distance {distance})")

    print()
    print("=" * 72)
    print("4. The stored path is data: match it like any other object")
    print("=" * 72)
    engine.register_graph("routes", routes)
    table = engine.bindings("MATCH (a)-/@p:friendRoute/->(b) ON routes")
    print(table.pretty())


if __name__ == "__main__":
    main()
