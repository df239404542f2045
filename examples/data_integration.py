#!/usr/bin/env python3
"""Data integration — the multi-graph worksAt scenario of Section 3.

Company nodes live in one graph, people in another; the queries below
join across graphs, handle Frank Gold's multi-valued employer property,
aggregate companies out of property values with GROUP, and finally build
a single enriched graph — reproducing lines 5-22 of the paper plus the
Section 5 tabular imports.

Run:  python examples/data_integration.py
"""

from repro import GCoreEngine
from repro.datasets import load


def main() -> None:
    engine = GCoreEngine()
    load("paper").install(engine)  # social_graph (default), company_graph, orders

    print("The equi-join fails for Frank (employer is the SET {CWI, MIT}):")
    table = engine.bindings(
        "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph "
        "WHERE c.name = n.employer"
    )
    print(table.pretty())

    print("\nIN fixes it (set membership, Section 3):")
    table = engine.bindings(
        "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph "
        "WHERE c.name IN n.employer"
    )
    print(table.pretty())

    print("\n...or unroll the multi-valued property with {employer=e}:")
    table = engine.bindings(
        "MATCH (c:Company) ON company_graph, "
        "(n:Person {employer=e}) ON social_graph WHERE c.name = e"
    )
    print(table.pretty())

    print("\nGraph aggregation: build companies from property values")
    print("(one node per distinct employer, thanks to GROUP):")
    enriched = engine.run(
        """
        CONSTRUCT social_graph,
          (x GROUP e :Company {name := e})<-[y:worksAt]-(n)
        MATCH (n:Person {employer=e})
        """
    )
    for edge in sorted(enriched.edges, key=str):
        if enriched.has_label(edge, "worksAt"):
            src, dst = enriched.endpoints(edge)
            (name,) = enriched.property(dst, "name")
            print(f"  {src} -worksAt-> {name}")

    print("\nImporting tables (Section 5): CONSTRUCT ... FROM orders")
    shop = engine.run(
        """
        CONSTRUCT (cust GROUP custName :Customer {name := custName}),
                  (prod GROUP prodCode :Product {code := prodCode}),
                  (cust)-[:bought]->(prod)
        FROM orders
        """
    )
    print(f"  built {shop.order()} nodes and {shop.size()} bought-edges "
          f"from {len(engine.table('orders'))} order rows")

    print("\nThe enriched graph is itself queryable (composability):")
    engine.register_graph("enriched", enriched)
    answer = engine.run(
        "SELECT c.name AS company, COUNT(*) AS employees "
        "MATCH (n:Person)-[:worksAt]->(c:Company) ON enriched "
        "GROUP BY company ORDER BY employees DESC, company"
    )
    print(answer.pretty())


if __name__ == "__main__":
    main()
