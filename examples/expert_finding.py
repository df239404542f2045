#!/usr/bin/env python3
"""Expert finding — the full Wagner scenario of Section 3 (lines 39-71).

John Doe wants an introduction to a Wagner lover in his city, preferring
chains of friends who actually talk to each other. The pipeline:

1. ``social_graph1``: annotate every ``knows`` edge with ``nr_messages``
   (messages actually exchanged), using OPTIONAL + COUNT(*).
2. ``social_graph2``: define the weighted ``wKnows`` path view with cost
   ``1 / (1 + nr_messages)`` (excluding Acme employees — John's
   preference must stay unknown at work), and store the weighted
   shortest paths to every Wagner lover as ``:toWagner`` paths.
3. Score John's direct friends by how many ``:toWagner`` paths start
   through them — producing the single ``:wagnerFriend`` edge
   John -> Peter with score 2, exactly the paper's result.

Run:  python examples/expert_finding.py
"""

from repro import GCoreEngine
from repro.datasets import load


def main() -> None:
    engine = GCoreEngine()
    load("paper").install(engine)  # social_graph (default), company_graph, orders

    print("Step 1: message-intensity view (lines 39-47)")
    engine.run(
        """
        GRAPH VIEW social_graph1 AS (
          CONSTRUCT social_graph,
            (n)-[e]->(m) SET e.nr_messages := COUNT(*)
          MATCH (n)-[e:knows]->(m)
          WHERE (n:Person) AND (m:Person)
          OPTIONAL (n)<-[c1]-(msg1:Post|Comment),
                   (msg1)-[:reply_of]-(msg2),
                   (msg2:Post|Comment)-[c2]->(m)
          WHERE (c1:has_creator) AND (c2:has_creator) )
        """
    )
    g1 = engine.graph("social_graph1")
    for edge in sorted(g1.edges_with_label("knows"), key=str):
        src, dst = g1.endpoints(edge)
        (count,) = g1.property(edge, "nr_messages")
        print(f"  {src:>7} knows {dst:<7} nr_messages = {count}")

    print("\nStep 2: weighted shortest paths to Wagner lovers (lines 57-66)")
    engine.run(
        """
        GRAPH VIEW social_graph2 AS (
          PATH wKnows = (x)-[e:knows]->(y)
            WHERE NOT 'Acme' IN y.employer
            COST 1 / (1 + e.nr_messages)
          CONSTRUCT social_graph1, (n)-/@p:toWagner/->(m)
          MATCH (n:Person)-/p<~wKnows*>/->(m:Person) ON social_graph1
          WHERE (m)-[:hasInterest]->(:Tag {name='Wagner'})
            AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)
            AND n.firstName = 'John' AND n.lastName = 'Doe')
        """
    )
    g2 = engine.graph("social_graph2")
    for pid in sorted(g2.paths_with_label("toWagner"), key=str):
        nodes = " -> ".join(str(n) for n in g2.path_nodes(pid))
        print(f"  :toWagner path: {nodes}")

    print("\nStep 3: score John's friends (lines 67-71)")
    result = engine.run(
        """
        CONSTRUCT (n)-[e:wagnerFriend {score := COUNT(*)}]->(m)
          WHEN e.score > 0
        MATCH (n:Person)-/@p:toWagner/->(), (m:Person) ON social_graph2
        WHERE m = nodes(p)[1]
        """
    )
    for edge in result.edges:
        src, dst = result.endpoints(edge)
        (score,) = result.property(edge, "score")
        print(f"  {src} -[:wagnerFriend {{score: {score}}}]-> {dst}")
    print("\n==> John should ask Peter — both Wagner lovers are best reached "
          "through him.")


if __name__ == "__main__":
    main()
