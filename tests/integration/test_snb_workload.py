"""LDBC-SNB-Interactive-inspired workload over the generated graph.

The paper motivates G-CORE with LDBC benchmark workloads (Section 3 uses
the SNB schema throughout). These tests translate the *shapes* of several
SNB Interactive reads into G-CORE and run them on the deterministic
generator — end-to-end coverage of realistic query mixes.
"""

import pytest

from repro import GCoreEngine
from repro.datasets import load


@pytest.fixture(scope="module")
def snb():
    eng = GCoreEngine()
    load("snb", scale=80, seed=99).install(eng)
    load("company").install(eng, set_default=False)
    return eng


class TestInteractiveReads:
    def test_ic1_friends_up_to_3_hops_with_name(self, snb):
        """IC1 shape: friends of friends (<=3 hops) with a given name."""
        table = snb.run(
            "SELECT m.lastName AS last, c AS distance "
            "MATCH (n:Person)-/p<:knows{1,3}> COST c/->(m:Person) "
            "WHERE n.firstName = 'John' AND m.firstName = $name "
            "ORDER BY distance, last",
            params={"name": "Alice"},
        )
        assert all(1 <= row[1] <= 3 for row in table.rows)

    def test_ic13_shortest_path_length(self, snb):
        """IC13 shape: shortest knows-path length between two persons."""
        table = snb.bindings(
            "MATCH (a:Person {firstName='John'})-/p<:knows*> COST c/->"
            "(b:Person {firstName='Zoe'})"
        )
        if table:  # the generator's ring guarantees connectivity
            costs = {row["c"] for row in table}
            assert all(isinstance(c, int) and c >= 0 for c in costs)

    def test_ic5_groups_by_interest(self, snb):
        """Aggregation shape: tag popularity among a person's circle."""
        result = snb.run(
            "SELECT t.name AS tag, COUNT(*) AS fans "
            "MATCH (n:Person)-[:knows]->(m:Person)-[:hasInterest]->(t:Tag) "
            "WHERE n.firstName = 'John' GROUP BY tag ORDER BY fans DESC, tag"
        )
        counts = [row[1] for row in result.rows]
        assert counts == sorted(counts, reverse=True)

    def test_message_thread_depth(self, snb):
        """Recursive shape: reply chains are walks over reply_of."""
        g = snb.run(
            "CONSTRUCT (m1)-[e:inThread {depth := c}]->(root) "
            "MATCH (m1:Comment)-/p<:reply_of+> COST c/->(root:Post)"
        )
        for edge in g.edges:
            (depth,) = g.property(edge, "depth")
            assert depth >= 1

    def test_company_enrichment_pipeline(self, snb):
        """The Section 3 data-integration pipeline at generator scale."""
        enriched = snb.run(
            "CONSTRUCT snb, (c)<-[:worksAt]-(n) "
            "MATCH (c:Company) ON companies, (n:Person) ON snb "
            "WHERE c.name IN n.employer"
        )
        snb.register_graph("enriched", enriched)
        table = snb.run(
            "SELECT c.name AS company, COUNT(*) AS staff "
            "MATCH (n:Person)-[:worksAt]->(c:Company) ON enriched "
            "GROUP BY company ORDER BY staff DESC, company"
        )
        assert len(table) >= 1
        total = sum(row[1] for row in table.rows)
        employed = sum(
            1
            for n in enriched.nodes_with_label("Person")
            for _ in enriched.property(n, "employer")
        )
        assert total == employed

    def test_expert_finding_generalizes(self, snb):
        """The Wagner pipeline runs unchanged on generated data."""
        snb.run(
            "GRAPH VIEW gen1 AS (CONSTRUCT snb, (n)-[e]->(m) "
            "SET e.nr_messages := COUNT(*) "
            "MATCH (n)-[e:knows]->(m) WHERE (n:Person) AND (m:Person) "
            "OPTIONAL (n)<-[c1]-(m1:Post|Comment), (m1)-[:reply_of]-(m2), "
            "(m2:Post|Comment)-[c2]->(m) "
            "WHERE (c1:has_creator) AND (c2:has_creator))"
        )
        gen1 = snb.graph("gen1")
        knows = gen1.edges_with_label("knows")
        assert knows and all(gen1.property(e, "nr_messages") for e in knows)
        result = snb.run(
            "PATH wk = (x)-[e:knows]->(y) COST 1 / (1 + e.nr_messages) "
            "CONSTRUCT (n)-/@p:toFan/->(m) "
            "MATCH (n:Person)-/p<~wk*>/->(m:Person) ON gen1 "
            "WHERE n.firstName = 'John' "
            "AND (m)-[:hasInterest]->(:Tag {name='Wagner'})"
        )
        # every stored path starts at a John and ends at a Wagner fan
        for pid in result.paths:
            nodes = result.path_nodes(pid)
            assert result.property(nodes[0], "firstName") == {"John"}
