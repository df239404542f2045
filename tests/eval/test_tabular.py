"""Tabular input extensions (Section 5): FROM tables and tables-as-graphs."""

import pytest

from repro import Table
from repro.errors import UnknownTableError


class TestFromTable:
    def test_construct_from_orders(self, engine):
        g = engine.run(
            "CONSTRUCT (cust GROUP custName :Customer {name:=custName}), "
            "(prod GROUP prodCode :Product {code:=prodCode}), "
            "(cust)-[:bought]->(prod) FROM orders"
        )
        customers = {
            next(iter(g.property(n, "name")))
            for n in g.nodes if g.has_label(n, "Customer")
        }
        products = {
            next(iter(g.property(n, "code")))
            for n in g.nodes if g.has_label(n, "Product")
        }
        assert customers == {"Alice", "Bob", "Carol"}
        assert products == {"P100", "P200", "P300"}
        assert len(g.edges) == 6

    def test_bought_edges_connect_right_pairs(self, engine):
        g = engine.run(
            "CONSTRUCT (cust GROUP custName :Customer {name:=custName}), "
            "(prod GROUP prodCode :Product {code:=prodCode}), "
            "(cust)-[:bought]->(prod) FROM orders"
        )
        pairs = set()
        for e in g.edges:
            src, dst = g.endpoints(e)
            pairs.add((
                next(iter(g.property(src, "name"))),
                next(iter(g.property(dst, "code"))),
            ))
        assert ("Alice", "P100") in pairs and ("Carol", "P300") in pairs
        assert ("Alice", "P300") not in pairs

    def test_unknown_table(self, engine):
        with pytest.raises(UnknownTableError):
            engine.run("CONSTRUCT (x GROUP a) FROM mystery")


class TestTableAsGraph:
    def test_match_on_orders(self, engine):
        table = engine.bindings("MATCH (o) ON orders")
        assert len(table) == 6  # one isolated node per row

    def test_row_properties(self, engine):
        table = engine.bindings(
            "MATCH (o) ON orders WHERE o.custName = 'Alice'"
        )
        assert len(table) == 2

    def test_equivalent_to_from(self, engine):
        g_from = engine.run(
            "CONSTRUCT (cust GROUP custName :Customer {name:=custName}), "
            "(prod GROUP prodCode :Product {code:=prodCode}), "
            "(cust)-[:bought]->(prod) FROM orders"
        )
        g_on = engine.run(
            "CONSTRUCT (cust GROUP o.custName :Customer {name:=o.custName}), "
            "(prod GROUP o.prodCode :Product {code:=o.prodCode}), "
            "(cust)-[:bought]->(prod) MATCH (o) ON orders"
        )
        # Same shape: identical label/property structure (ids are skolems).
        def shape(g):
            nodes = sorted(
                (sorted(g.labels(n)), sorted(
                    (k, tuple(sorted(map(str, v)))) for k, v in g.properties(n).items()
                ))
                for n in g.nodes
            )
            edges = sorted(
                (sorted(g.labels(e)),
                 sorted(g.labels(g.endpoints(e)[0])),
                 sorted(g.labels(g.endpoints(e)[1])))
                for e in g.edges
            )
            return (nodes, len(g.edges), edges)
        assert shape(g_from) == shape(g_on)

    def test_registered_graph_beats_table(self, engine):
        # register a graph with the same name as a table: graph wins
        from repro import GraphBuilder

        b = GraphBuilder()
        b.add_node("solo")
        engine.register_graph("orders", b.build())
        table = engine.bindings("MATCH (o) ON orders")
        assert len(table) == 1


class TestTableValue:
    def test_column_access(self):
        t = Table(("a", "b"), [(1, 2), (3, 4)])
        assert t.column("b") == (2, 4)

    def test_width_mismatch(self):
        from repro.errors import EvaluationError

        with pytest.raises(EvaluationError):
            Table(("a",), [(1, 2)])

    def test_unknown_column(self):
        from repro.errors import EvaluationError

        with pytest.raises(EvaluationError):
            Table(("a",), [(1,)]).column("z")

    def test_equality(self):
        assert Table(("a",), [(1,)]) == Table(("a",), [(1,)])
        assert Table(("a",), [(1,)]) != Table(("a",), [(2,)])

    def test_pretty_limit(self):
        t = Table(("a",), [(i,) for i in range(100)])
        assert "more rows" in t.pretty(limit=5)
