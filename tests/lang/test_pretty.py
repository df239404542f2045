"""Round-trip tests: parse(pretty(parse(q))) == parse(q) for all paper queries."""

import pytest

from repro.lang.parser import parse_statement
from repro.lang.pretty import pretty_statement

# Every query from the paper's guided tour (Section 3) and extensions
# (Section 5), plus grammar corner cases.
PAPER_QUERIES = [
    # lines 1-4
    "CONSTRUCT (n) MATCH (n:Person) ON social_graph WHERE n.employer = 'Acme'",
    # lines 5-9
    "CONSTRUCT (c)<-[:worksAt]-(n) MATCH (c:Company) ON company_graph, "
    "(n:Person) ON social_graph WHERE c.name = n.employer UNION social_graph",
    # lines 10-14
    "CONSTRUCT (c)<-[:worksAt]-(n) MATCH (c:Company) ON company_graph, "
    "(n:Person) ON social_graph WHERE c.name IN n.employer UNION social_graph",
    # lines 15-19
    "CONSTRUCT (c)<-[:worksAt]-(n) MATCH (c:Company) ON company_graph, "
    "(n:Person {employer=e}) ON social_graph WHERE c.name = e UNION social_graph",
    # lines 20-22
    "CONSTRUCT social_graph, (x GROUP e :Company {name:=e})<-[y:worksAt]-(n) "
    "MATCH (n:Person {employer=e})",
    # lines 23-27
    "CONSTRUCT (n)-/@p:localPeople{distance:=c}/->(m) "
    "MATCH (n)-/3 SHORTEST p<:knows*> COST c/->(m) "
    "WHERE (n:Person) AND (m:Person) AND n.firstName = 'John' "
    "AND n.lastName = 'Doe' AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)",
    # lines 28-31
    "CONSTRUCT (m) MATCH (n:Person)-/<:knows*>/->(m:Person) "
    "WHERE n.firstName = 'John' AND n.lastName = 'Doe' "
    "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)",
    # lines 32-35
    "CONSTRUCT (n)-/p/->(m) MATCH (n:Person)-/ALL p<:knows*>/->(m:Person) "
    "WHERE n.firstName = 'John' AND n.lastName = 'Doe' "
    "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)",
    # lines 36-38 (explicit existential)
    "CONSTRUCT (n) MATCH (n) WHERE EXISTS "
    "(CONSTRUCT () MATCH (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m))",
    # lines 39-47
    "GRAPH VIEW social_graph1 AS (CONSTRUCT social_graph, (n)-[e]->(m) "
    "SET e.nr_messages := COUNT(*) MATCH (n)-[e:knows]->(m) "
    "WHERE (n:Person) AND (m:Person) "
    "OPTIONAL (n)<-[c1]-(msg1:Post|Comment), (msg1)-[:reply_of]-(msg2), "
    "(msg2:Post|Comment)-[c2]->(m) WHERE (c1:has_creator) AND (c2:has_creator))",
    # lines 48-56
    "CONSTRUCT (n) MATCH (n:Person) OPTIONAL (n)-[:worksAt]->(c) "
    "OPTIONAL (n)-[:livesIn]->(a)",
    # lines 57-66
    "GRAPH VIEW social_graph2 AS (PATH wKnows = (x)-[e:knows]->(y) "
    "WHERE NOT 'Acme' IN y.employer COST 1 / (1 + e.nr_messages) "
    "CONSTRUCT social_graph1, (n)-/@p:toWagner/->(m) "
    "MATCH (n:Person)-/p<~wKnows*>/->(m:Person) ON social_graph1 "
    "WHERE (m)-[:hasInterest]->(:Tag {name='Wagner'}) "
    "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m) "
    "AND n.firstName = 'John' AND n.lastName = 'Doe')",
    # lines 67-71 (with the documented m = nodes(p)[1] reading)
    "CONSTRUCT (n)-[e:wagnerFriend {score:=COUNT(*)}]->(m) WHEN e.score > 0 "
    "MATCH (n:Person)-/@p:toWagner/->(), (m:Person) ON social_graph2 "
    "WHERE m = nodes(p)[1]",
    # lines 72-75
    "SELECT m.lastName + ', ' + m.firstName AS friendName "
    "MATCH (n:Person)-/<:knows*>/->(m:Person) "
    "WHERE n.firstName = 'John' AND n.lastName = 'Doe' "
    "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)",
    # lines 76-80
    "CONSTRUCT (cust GROUP custName :Customer {name:=custName}), "
    "(prod GROUP prodCode :Product {code:=prodCode}), "
    "(cust)-[:bought]->(prod) FROM orders",
    # lines 81-85
    "CONSTRUCT (cust GROUP o.custName :Customer {name:=o.custName}), "
    "(prod GROUP o.prodCode :Product {code:=o.prodCode}), "
    "(cust)-[:bought]->(prod) MATCH (o) ON orders",
]

EXTRA_QUERIES = [
    "g1 UNION g2 MINUS g3",
    "g1 INTERSECT (g2 UNION g3)",
    "GRAPH tmp AS (CONSTRUCT (n) MATCH (n)) CONSTRUCT (m) MATCH (m) ON tmp",
    "PATH p = (a)-[:k]->(b), (b)-[:l]->(c) WHERE b.x = 1 COST 2 "
    "CONSTRUCT (n) MATCH (n)-/q<~p+>/->(m)",
    "CONSTRUCT (a)-[:x]->(b)<-[:y]-(c) MATCH (a)->(b)<-(c)-(d)",
    "CONSTRUCT (=n)-[=y]->(m) MATCH (n)-[y:k]->(m)",
    "CONSTRUCT (n) SET n.k := 1 + 2 SET n:L REMOVE n.z REMOVE n:M MATCH (n)",
    "CONSTRUCT (x GROUP e, f :L {a:=COUNT(*), b:=SUM(e)}) MATCH (n {p=e, q=f})",
    "SELECT DISTINCT n.a AS a, COUNT(*) AS c MATCH (n) "
    "GROUP BY n.a ORDER BY c DESC, a LIMIT 10 OFFSET 1",
    "CONSTRUCT (n) MATCH (n) WHERE CASE WHEN size(n.e) = 0 THEN TRUE ELSE FALSE END",
    "CONSTRUCT (m) MATCH (n)-/<(:a|:b^)* !Tag _>/->(m)",
    "CONSTRUCT (n) MATCH (n) WHERE n.a SUBSET OF n.b AND NOT (n)-[:x]->()",
]


@pytest.mark.parametrize("text", PAPER_QUERIES)
def test_paper_query_round_trips(text):
    first = parse_statement(text)
    rendered = pretty_statement(first)
    assert parse_statement(rendered) == first


@pytest.mark.parametrize("text", EXTRA_QUERIES)
def test_extra_query_round_trips(text):
    first = parse_statement(text)
    rendered = pretty_statement(first)
    assert parse_statement(rendered) == first


def test_pretty_is_stable():
    text = PAPER_QUERIES[4]
    once = pretty_statement(parse_statement(text))
    twice = pretty_statement(parse_statement(once))
    assert once == twice


def test_anonymous_shortest_with_cost_round_trips():
    """An anonymous SHORTEST prints with no mode keyword; its COST
    variable keeps it SHORTEST when the text is parsed back."""
    first = parse_statement("SELECT c MATCH (a)-/SHORTEST <:knows*> COST c/->(b)")
    rendered = pretty_statement(first)
    assert "SHORTEST" not in rendered
    assert parse_statement(rendered) == first


def test_anonymous_explicit_shortest_round_trips():
    """An anonymous SHORTEST with neither a path nor a COST variable keeps
    its keyword in print: unmarked, the same pattern parses as reach."""
    first = parse_statement("CONSTRUCT (b) MATCH (a)-/SHORTEST <:knows*>/->(b)")
    assert first.body.match.block.patterns[0].chain.elements[1].mode == "shortest"
    rendered = pretty_statement(first)
    assert "SHORTEST" in rendered
    assert parse_statement(rendered) == first
    reach = parse_statement("CONSTRUCT (b) MATCH (a)-/<:knows*>/->(b)")
    assert "SHORTEST" not in pretty_statement(reach)
