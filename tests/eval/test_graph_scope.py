"""Which graph a pattern reads: one case per line of the scope rule.

A pattern reads its own ``ON``; without one, its block's first ``ON``;
without that, the graph its block inherits (``docs/architecture.md``,
"Which graph a pattern reads"). Every expected answer below is worked
out by hand over two small graphs: the default ``g1`` holds the ``A``
nodes a1 and a2, ``g2`` the ``B`` nodes b1, b2, b3 and one edge
b1-[:e]->b2. No label occurs in both, so an answer names the graph a
pattern read.
"""

import pytest

import repro.eval.query as query_module
from repro import GCoreEngine, GraphBuilder


@pytest.fixture(scope="module")
def engine():
    eng = GCoreEngine()
    g1 = GraphBuilder(name="g1")
    g1.add_node("a1", labels=["A"], properties={"v": "one"})
    g1.add_node("a2", labels=["A"], properties={"v": "two"})
    g2 = GraphBuilder(name="g2")
    for node in ("b1", "b2", "b3"):
        g2.add_node(node, labels=["B"])
    g2.add_edge("b1", "b2", edge_id="e1", labels=["e"])
    eng.register_graph("g1", g1.build(), default=True)
    eng.register_graph("g2", g2.build())
    return eng


def rows(engine, text):
    return sorted(engine.run(text).rows)


def nodes(engine, text):
    return sorted(engine.run(text).nodes)


# -- a pattern's own ON, its block's first ON, the inherited graph ----------

def test_a_pattern_reads_its_own_on(engine):
    assert rows(engine, "SELECT n AS n MATCH (n) ON g2") == [("b1",), ("b2",), ("b3",)]


def test_an_on_less_pattern_reads_its_blocks_first_on(engine):
    # Both patterns read g2: 3 x 3 rows, every one of them a B pair.
    got = rows(engine, "SELECT n AS n, m AS m MATCH (n), (m:B) ON g2")
    assert len(got) == 9


def test_a_main_block_at_top_level_reads_the_default(engine):
    assert rows(engine, "SELECT n AS n MATCH (n)") == [("a1",), ("a2",)]


def test_a_subquerys_main_block_reads_the_graph_its_query_inherits(engine):
    # The EXISTS query inherits g2 from the block whose WHERE holds it.
    text = "SELECT n AS n MATCH (n) ON g2 WHERE EXISTS (CONSTRUCT () MATCH (x:B))"
    assert len(rows(engine, text)) == 3


# -- OPTIONAL blocks and head subqueries: the main block's first graph ------

def test_an_optional_block_reads_the_main_blocks_first_graph(engine):
    got = rows(engine, "SELECT n AS n, m AS m MATCH (n) ON g2 OPTIONAL (m:B)")
    assert len(got) == 9  # each B node joins each B node


def test_a_second_optional_does_not_inherit_the_first(engine):
    # k:A reads g1, the main block's graph, not g2 of the first OPTIONAL:
    # 2 n x 3 m x 2 k.
    text = ("SELECT n AS n, m AS m, k AS k MATCH (n:A) ON g1 "
            "OPTIONAL (m:B) ON g2 OPTIONAL (k:A)")
    assert len(rows(engine, text)) == 12


def test_a_select_head_subquery_reads_the_main_blocks_first_graph(engine):
    # An OPTIONAL block ON g2 does not move the head's graph off g1.
    text = ("SELECT n AS n, EXISTS (CONSTRUCT () MATCH (x:B)) AS e "
            "MATCH (n:A) ON g1 OPTIONAL (m:B) ON g2")
    assert {e for _, e in rows(engine, text)} == {False}


def test_a_construct_head_subquery_reads_the_main_blocks_first_graph(engine):
    text = ("CONSTRUCT (n) WHEN EXISTS (CONSTRUCT () MATCH (x:B)) "
            "MATCH (n:B) ON g2 OPTIONAL (m:A) ON g1")
    assert nodes(engine, text) == ["b1", "b2", "b3"]


# -- a block's WHERE: that block's first graph ------------------------------

def test_a_where_pattern_predicate_reads_its_blocks_first_graph(engine):
    assert rows(engine, "SELECT n AS n MATCH (n) ON g2 WHERE (n)-[:e]->()") == [("b1",)]


def test_an_optional_blocks_pattern_predicate_reads_that_block(engine):
    text = ("SELECT n AS n, m AS m MATCH (n:A) "
            "OPTIONAL (m) ON g2 WHERE (m)-[:e]->()")
    assert rows(engine, text) == [("a1", "b1"), ("a2", "b1")]


def test_a_where_subquery_reads_its_blocks_first_graph(engine):
    text = ("SELECT n AS n, m AS m MATCH (n:A) OPTIONAL (m) ON g2 "
            "WHERE EXISTS (CONSTRUCT () MATCH (x:B))")
    assert len(rows(engine, text)) == 6


# -- set-operation operands, ON (...) subqueries, GRAPH heads ---------------

def test_a_set_operation_operand_does_not_read_its_siblings_on(engine):
    text = "CONSTRUCT (b) MATCH (b:B) ON g2 UNION CONSTRUCT (n) MATCH (n)"
    assert nodes(engine, text) == ["a1", "a2", "b1", "b2", "b3"]


def test_a_set_operation_operand_does_not_look_up_its_siblings_graphs(engine):
    # h holds g1's nodes with v = 'Z'; the right operand reads h alone,
    # whatever the left one touched.
    text = ("GRAPH h AS (CONSTRUCT (n) SET n.v := 'Z' MATCH (n:A) ON g1) "
            "CONSTRUCT (a) MATCH (a:A) ON g1 "
            "UNION CONSTRUCT (b {f := b.v}) MATCH (b:A) ON h")
    graph = engine.run(text)
    copied = {value for node in graph.nodes for value in graph.property(node, "f")}
    assert copied == {"Z"}


def test_an_on_subquery_inherits_the_querys_graph(engine):
    # The subquery after an ON g2 pattern reads the default g1: 3 m x 2 n.
    text = "SELECT n AS n MATCH (m) ON g2, (n) ON (CONSTRUCT (x) MATCH (x))"
    assert [n for (n,) in rows(engine, text)] == ["a1"] * 3 + ["a2"] * 3


def test_a_graph_head_inherits_the_enclosing_querys_graph(engine):
    # The EXISTS query inherits g2, so does its GRAPH head.
    text = ("SELECT n AS n MATCH (n) ON g2 WHERE EXISTS ("
            "GRAPH h AS (CONSTRUCT (x) MATCH (x:B)) CONSTRUCT () MATCH (y) ON h)")
    assert len(rows(engine, text)) == 3


# -- a PATH body: the graph of the pattern that searches the view -----------

def test_a_path_body_reads_the_graph_searched(engine):
    text = "PATH p = (a)-[:e]->(b) SELECT s AS s, t AS t MATCH (s)-/<~p>/->(t) ON g2"
    assert rows(engine, text) == [("b1", "b2")]


# -- each distinct ON resolved once; scopes are no nesting level ------------

def test_a_blocks_first_on_subquery_runs_once(engine, monkeypatch):
    depths = []
    original = query_module.evaluate_query

    def spy(query, ctx, seed=None):
        depths.append(ctx.depth)
        return original(query, ctx, seed)

    monkeypatch.setattr(query_module, "evaluate_query", spy)
    engine.run("CONSTRUCT (n) MATCH (n:A) ON (CONSTRUCT (m) MATCH (m:A))")
    assert depths.count(1) == 1


def test_a_hundred_operand_union_runs(engine):
    text = " UNION ".join(["CONSTRUCT (n) MATCH (n)"] * 100)
    assert nodes(engine, text) == ["a1", "a2"]
