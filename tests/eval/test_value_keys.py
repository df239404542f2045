"""Which values are the same, and in what order, across the heads.

Section 3's ``=`` decides sameness everywhere: GROUP BY, DISTINCT,
CONSTRUCT's GROUP (Appendix A.3's ``grp``) and ``COUNT(DISTINCT)``
partition values exactly as ``WHERE a = b`` pairs them, and ORDER BY
sorts numbers by value (``model/values.py``: ``distinct_key`` and
``order_key``).
"""

import pytest

from repro import GCoreEngine, GraphBuilder

#: 1 = 1.0, {1, 9} = {9, 1} (whose members iterate in different
#: orders: the hashes 1 and 9 collide); TRUE is no number.
MIXED = [1, 1.0, True, [1, 9], [9, 1]]
CLASSES = [{"n0", "n1"}, {"n2"}, {"n3", "n4"}]


def engine_over(values, key="v"):
    builder = GraphBuilder()
    for index, value in enumerate(values):
        builder.add_node(f"n{index}", labels=["N"], properties={key: value})
    engine = GCoreEngine()
    engine.register_graph("g", builder.build(), default=True)
    return engine


def classes(groups):
    return sorted((set(group) for group in groups), key=sorted)


def test_group_by_classes_are_those_of_where_equality():
    engine = engine_over(MIXED)
    pairs = engine.run(
        "SELECT id(n) AS a, id(m) AS b MATCH (n:N), (m:N) WHERE n.v = m.v"
    ).rows
    partners = {}
    for a, b in pairs:
        partners.setdefault(a, set()).add(b)
    assert classes(map(set, {frozenset(p) for p in partners.values()})) == CLASSES
    table = engine.run("SELECT COLLECT(id(n)) AS ids MATCH (n:N) GROUP BY n.v")
    assert classes(row[0] for row in table.rows) == CLASSES


def test_distinct_follows_equality():
    engine = engine_over(MIXED)
    table = engine.run("SELECT DISTINCT n.v AS v MATCH (n:N)")
    assert len(table.rows) == 3
    assert engine.run(
        "SELECT COUNT(DISTINCT n.v) AS c MATCH (n:N)"
    ).rows == ((3,),)


def test_construct_group_follows_equality():
    engine = engine_over(MIXED)
    graph = engine.run("CONSTRUCT (x GROUP n.v :G) MATCH (n:N)")
    assert len(graph.nodes) == 3


def test_construct_keeps_true_and_one_apart():
    engine = engine_over([True, 1])
    graph = engine.run("CONSTRUCT (x GROUP n.v :G {v := n.v}) MATCH (n:N)")
    assert len(graph.nodes) == 2
    values = sorted(
        (type(v).__name__, v) for node in graph.nodes for v in graph.property(node, "v")
    )
    assert values == [("bool", True), ("int", 1)]


def test_order_by_sorts_numbers_by_value():
    engine = engine_over([9, 10, 100, 2, 2.5, -1], key="age")
    ascending = engine.run("SELECT n.age AS a MATCH (n:N) ORDER BY n.age").rows
    assert [row[0] for row in ascending] == [-1, 2, 2.5, 9, 10, 100]
    descending = engine.run("SELECT n.age AS a MATCH (n:N) ORDER BY a DESC").rows
    assert [row[0] for row in descending] == [100, 10, 9, 2.5, 2, -1]


def test_order_by_puts_absent_values_first():
    builder = GraphBuilder()
    builder.add_node("a", labels=["N"], properties={"age": 3})
    builder.add_node("b", labels=["N"])
    builder.add_node("c", labels=["N"], properties={"age": 1})
    engine = GCoreEngine()
    engine.register_graph("g", builder.build(), default=True)
    rows = engine.run("SELECT id(n) AS n MATCH (n:N) ORDER BY n.age").rows
    assert [row[0] for row in rows] == ["b", "c", "a"]


@pytest.mark.parametrize("statement", [
    "SELECT COUNT(*) AS c MATCH (n:N) GROUP BY n",
    "SELECT DISTINCT n AS c MATCH (n:N)",
])
def test_int_ids_beyond_float_precision_stay_apart(statement):
    # 2**53 and 2**53 + 1 round to one float; as ids they are two nodes.
    builder = GraphBuilder()
    for node in (2 ** 53, 2 ** 53 + 1):
        builder.add_node(node, labels=["N"])
    engine = GCoreEngine()
    engine.register_graph("g", builder.build(), default=True)
    assert len(engine.run(statement).rows) == 2
    assert len(engine.run("CONSTRUCT (x GROUP n) MATCH (n:N)").nodes) == 2
