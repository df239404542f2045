"""Index-backed probes: the per-graph value index answers exactly what
the definitional oracle answers, or steps aside.

``x.key = value`` conjuncts and constant ``{key = value}`` pattern
tests pick their candidates from ``PathPropertyGraph.property_index``.
Every case below runs on the engine, with each block also in every
allowed atom order, and on the oracle (:mod:`repro.fuzz.oracle`, which
reads no index) and demands identical tables — and checks *which* keys the
evaluation built an index for, so a case the index must not answer (or
must answer) cannot pass by accident.
"""

import json
import urllib.request

import pytest
from atom_orders import every_block_checked

from repro import GCoreEngine, GraphBuilder
from repro.errors import GCoreError
from repro.fuzz import oracle
from repro.model.delta import GraphDelta
from repro.model.values import Date
from repro.server import ServerConfig, run_in_thread

BIG = 2 ** 53


def typed_graph():
    """One node per way a ``k`` value can relate to ``1``."""
    b = GraphBuilder(name="typed")
    b.add_node("int", labels=["T"], properties={"k": 1, "s": "x"})
    b.add_node("float", labels=["T"], properties={"k": 1.0})
    b.add_node("bool", labels=["T"], properties={"k": True})
    b.add_node("multi", labels=["T"], properties={"k": {1, 2}, "s": {"x", "y"}})
    b.add_node("text", labels=["T"], properties={"k": "1"})
    b.add_node("none", labels=["T"], properties={"s": "x"})
    b.add_node("date", labels=["T"], properties={"k": Date(2014, 12, 1)})
    b.add_node("big", labels=["T"], properties={"k": BIG})
    b.add_node("other", labels=["U"], properties={"k": 1})
    b.add_edge("int", "float", edge_id="e1", labels=["r"], properties={"w": 1})
    b.add_edge("float", "bool", edge_id="e2", labels=["r"], properties={"w": {1, 2}})
    b.add_edge("bool", "multi", edge_id="e3", labels=["r"], properties={"w": True})
    b.add_edge("multi", "int", edge_id="e4", labels=["r"])
    return b.build()


def fresh_engine():
    engine = GCoreEngine()
    engine.register_graph("typed", typed_graph(), default=True)
    return engine


def rows(result):
    return sorted(map(repr, result.rows))


def run_everywhere(query, params=None):
    """Rows on a fresh engine, checked against every allowed atom order
    and the oracle; plus the keys indexed."""
    engine = fresh_engine()
    got = rows(engine.run(query, params=params))
    built = engine.catalog.default_graph().built_property_indexes()
    with every_block_checked():
        assert rows(fresh_engine().run(query, params=params)) == got
    assert rows(oracle.run(fresh_engine(), query, params)) == got
    return got, built


def ids(*names):
    return sorted(repr((name,)) for name in names)


# (query, params, expected node ids, keys the default config must index)
WHERE_CASES = [
    # = is set equality after normalization: 1 = 1.0, TRUE is not 1,
    # a multi-valued carrier equals no scalar
    ("SELECT n MATCH (n:T) WHERE n.k = 1", None, ("int", "float"), ("k",)),
    ("SELECT n MATCH (n:T) WHERE n.k = 1.0", None, ("int", "float"), ("k",)),
    ("SELECT n MATCH (n:T) WHERE n.k = TRUE", None, ("bool",), ("k",)),
    ("SELECT n MATCH (n:T) WHERE n.k = 2", None, (), ("k",)),
    ("SELECT n MATCH (n:T) WHERE n.k = '1'", None, ("text",), ("k",)),
    ("SELECT n MATCH (n:T) WHERE n.s = 'x'", None, ("int", "none"), ("s",)),
    # reversed operand order, one-element list, parameters
    ("SELECT n MATCH (n:T) WHERE 1 = n.k", None, ("int", "float"), ("k",)),
    ("SELECT n MATCH (n:T) WHERE n.k = [1]", None, ("int", "float"), ("k",)),
    ("SELECT n MATCH (n:T) WHERE n.k = $v", {"v": 1}, ("int", "float"), ("k",)),
    ("SELECT n MATCH (n:T) WHERE $v = n.k", {"v": "1"}, ("text",), ("k",)),
    ("SELECT n MATCH (n:T) WHERE n.k = $v", {"v": Date(2014, 12, 1)},
     ("date",), ("k",)),
    ("SELECT n MATCH (n:T) WHERE n.k = $v", {"v": [True]}, ("bool",), ("k",)),
    # two lookups on one variable intersect
    ("SELECT n MATCH (n:T) WHERE n.k = 1 AND n.s = 'x'", None, ("int",),
     ("k", "s")),
    # absent key: nothing carries it
    ("SELECT n MATCH (n:T) WHERE n.nokey = 1", None, (), ("nokey",)),
    # the label still applies to index hits ("other" is :U)
    ("SELECT n MATCH (n) WHERE n.k = 1", None, ("int", "float", "other"),
     ("k",)),
    # --- values the index must not answer: the filter path does
    # an empty expected value matches the objects *without* the key
    ("SELECT n MATCH (n:T) WHERE n.k = $v", {"v": None}, ("none",), ()),
    ("SELECT n MATCH (n:T) WHERE n.k = $v", {"v": []}, ("none",), ()),
    # multi-valued expected sets
    ("SELECT n MATCH (n:T) WHERE n.k = [1, 2]", None, ("multi",), ()),
    ("SELECT n MATCH (n:T) WHERE n.k = $v", {"v": {1, 2}}, ("multi",), ()),
    # beyond 2**53 floats collapse: BIG + 1 normalizes to BIG
    ("SELECT n MATCH (n:T) WHERE n.k = $v", {"v": BIG + 1}, ("big",), ()),
    ("SELECT n MATCH (n:T) WHERE n.k = $v", {"v": float("nan")}, (), ()),
    # --- conjuncts that are not `x.key = constant` stay filters
    ("SELECT n MATCH (n:T) WHERE n.k = 1 OR n.s = 'y'", None,
     ("int", "float"), ()),
    ("SELECT n MATCH (n:T) WHERE n.k <> 1", None,
     ("bool", "multi", "text", "none", "date", "big"), ()),
    ("SELECT n MATCH (n:T) WHERE 1 IN n.k", None,
     ("int", "float", "multi"), ()),
    ("SELECT n MATCH (n:T) WHERE n.k IN [1, 2]", None, ("int", "float"), ()),
    ("SELECT n MATCH (n:T) WHERE n.k = n.s", None, (), ()),
    ("SELECT n MATCH (n:T) WHERE NOT n.k = 1", None,
     ("bool", "multi", "text", "none", "date", "big"), ()),
]


@pytest.mark.parametrize("query,params,expected,indexed", WHERE_CASES)
def test_where_equality_matrix(query, params, expected, indexed):
    got, built = run_everywhere(query, params)
    assert got == ids(*expected)
    assert built == tuple(sorted(indexed))


# A pattern test {k = v} is equality *or membership* — membership under
# G-CORE value equality, as WHERE's IN: 1 = 1.0, but TRUE is not 1.
PATTERN_CASES = [
    ("SELECT n MATCH (n:T {k = 1})", None, ("int", "float", "multi"), ("k",)),
    ("SELECT n MATCH (n:T {k = TRUE})", None, ("bool",), ("k",)),
    ("SELECT n MATCH (n:T {k = 2})", None, ("multi",), ("k",)),
    ("SELECT n MATCH (n:T {s = 'y'})", None, ("multi",), ("s",)),
    ("SELECT n MATCH (n:T {s = 'x'})", None, ("int", "multi", "none"), ("s",)),
    ("SELECT n MATCH (n:T {k = $v})", {"v": Date(2014, 12, 1)}, ("date",),
     ("k",)),
    ("SELECT n MATCH (n:T {k = 1, s = 'x'})", None, ("int", "multi"),
     ("k", "s")),
    # a set-valued expected value is equality only, answered by the filter
    ("SELECT n MATCH (n:T {k = $v})", {"v": {1, 2}}, ("multi",), ()),
    # pattern test and WHERE lookup on one atom
    ("SELECT n MATCH (n:T {s = 'x'}) WHERE n.k = 1", None, ("int",),
     ("k", "s")),
]


@pytest.mark.parametrize("query,params,expected,indexed", PATTERN_CASES)
def test_pattern_membership_matrix(query, params, expected, indexed):
    got, built = run_everywhere(query, params)
    assert got == ids(*expected)
    assert built == tuple(sorted(indexed))


def test_where_equality_and_pattern_membership_differ_on_one_key():
    equality, _ = run_everywhere("SELECT n MATCH (n:T) WHERE n.s = 'x'")
    membership, _ = run_everywhere("SELECT n MATCH (n:T {s = 'x'})")
    assert equality == ids("int", "none")
    assert membership == ids("int", "multi", "none")


EDGE_CASES = [
    # edge variable: scan narrowed by the index; multi-valued and TRUE out
    ("SELECT e MATCH (a)-[e:r]->(b) WHERE e.w = 1", ("e1",), ("w",)),
    ("SELECT e MATCH (a)-[e:r {w = 1}]->(b)", ("e1", "e2"), ("w",)),
    # endpoint bound by the edge atom before its own node atom runs
    ("SELECT e MATCH (a)-[e:r]->(b) WHERE b.k = 1", ("e1", "e4"), ("k",)),
    ("SELECT e MATCH (a)-[e:r]->(b) WHERE a.k = TRUE AND b.s = 'x'", (),
     ("k", "s")),
    ("SELECT e MATCH (a)-[e:r]->(b) WHERE a.k <> 1 AND b.k = 1", ("e4",),
     ("k",)),
    # undirected: e1 joins two carriers of 1, once per orientation
    ("SELECT e MATCH (a)-[e:r]-(b) WHERE a.k = 1 AND b.k = 1", ("e1", "e1"),
     ("k",)),
]


@pytest.mark.parametrize("query,expected,indexed", EDGE_CASES)
def test_edge_atom_probes(query, expected, indexed):
    got, built = run_everywhere(query)
    assert got == ids(*expected)
    assert built == tuple(sorted(indexed))


def test_optional_block_probes_a_seeded_variable():
    # The OPTIONAL block arrives with n bound in every row: its conjunct
    # on n decides per bound object, in one batch, what survives.
    query = (
        "SELECT n, m MATCH (n:T) OPTIONAL (n)-[:r]->(m) WHERE n.k = 1 "
        "AND m.k = TRUE"
    )
    engine = fresh_engine()
    got = rows(engine.run(query))
    assert got == rows(oracle.run(fresh_engine(), query))
    assert repr(("float", "bool")) in got
    assert engine.catalog.default_graph().built_property_indexes() == ("k",)


def test_emission_order_is_stable_and_the_binding_set_the_oracle():
    query = "MATCH (n) WHERE n.k = 1"
    engine = fresh_engine()
    first = engine.bindings(query)
    assert set(first) == set(oracle.bindings(fresh_engine(), query))
    assert list(fresh_engine().bindings(query).rows) == list(first.rows)
    assert engine.catalog.default_graph().built_property_indexes() == ("k",)


def test_missing_parameter_fails_alike():
    query = "SELECT n MATCH (n:T) WHERE n.k = $v"
    outcomes = []
    runs = (
        lambda engine: engine.run(query, params={}),
        lambda engine: oracle.run(engine, query, {}),
    )
    for run in runs:
        engine = fresh_engine()
        with pytest.raises(GCoreError) as caught:
            run(engine)
        assert "missing query parameter" in str(caught.value)
        outcomes.append(type(caught.value))
        assert engine.catalog.default_graph().built_property_indexes() == ()
    assert len(set(outcomes)) == 1


class TestLookupChain:
    """``x.key`` is read from the first graph of the lookup chain that
    contains ``x`` — not necessarily the graph the atom is ON."""

    def engine(self):
        base = GraphBuilder(name="base")
        base.add_node("a", labels=["P"], properties={"name": "in-base"})
        base.add_node("b", labels=["P"], properties={"name": "only-base"})
        other = GraphBuilder(name="other")
        other.add_node("a", labels=["P"], properties={"name": "in-other"})
        other.add_node("c", labels=["P"], properties={"name": "only-other"})
        engine = GCoreEngine()
        engine.register_graph("base", base.build(), default=True)
        engine.register_graph("other", other.build())
        return engine

    @pytest.mark.parametrize("value,expected", [
        # base is ahead of other in the chain: a.name reads 'in-base'
        ("in-base", ("a",)),
        ("in-other", ()),
        ("only-other", ("c",)),
    ])
    def test_shadowed_graph_index_is_not_consulted(self, value, expected):
        query = (
            "SELECT n MATCH (m:P) ON base, (n:P) ON other "
            "WHERE n.name = $v AND m.name = 'only-base'"
        )
        engine = self.engine()
        got = rows(engine.run(query, params={"v": value}))
        assert got == rows(oracle.run(self.engine(), query, {"v": value}))
        assert got == ids(*expected)
        # m's lookup is answered by base's index; other's is never built
        assert engine.graph("base").built_property_indexes() == ("name",)
        assert engine.graph("other").built_property_indexes() == ()

    def test_first_graph_of_the_chain_uses_its_own_index(self):
        query = "SELECT n MATCH (n:P) ON other WHERE n.name = 'in-other'"
        engine = self.engine()
        assert rows(engine.run(query)) == ids("a")
        assert rows(oracle.run(engine, query)) == ids("a")
        assert engine.graph("other").built_property_indexes() == ("name",)

    def test_disjoint_earlier_graph_does_not_block_the_index(self):
        engine = self.engine()
        apart = GraphBuilder(name="apart")
        apart.add_node("z", labels=["P"], properties={"name": "in-base"})
        engine.register_graph("apart", apart.build())
        query = (
            "SELECT n MATCH (m:P) ON apart, (n:P) ON other "
            "WHERE n.name = 'in-other'"
        )
        assert rows(engine.run(query)) == ids("a")
        assert rows(oracle.run(engine, query)) == ids("a")
        assert engine.graph("other").built_property_indexes() == ("name",)

    def test_view_sharing_a_node_with_a_different_value(self):
        engine = self.engine()
        engine.run(
            "GRAPH VIEW renamed AS (CONSTRUCT (n) SET n.name := 'in-view' "
            "MATCH (n:P))"
        )
        # base, matched first, shadows the view's copy of a and b
        query = (
            "SELECT n MATCH (m:P) ON base, (n:P) ON renamed "
            "WHERE n.name = $v AND m.name = 'only-base'"
        )
        for value, expected in (("in-view", ()), ("in-base", ("a",))):
            params = {"v": value}
            got = rows(engine.run(query, params=params))
            assert got == rows(oracle.run(engine, query, params))
            assert got == ids(*expected)
        assert engine.graph("renamed").built_property_indexes() == ()
        # alone, the view answers from its own index
        alone = "SELECT n MATCH (n:P) ON renamed WHERE n.name = 'in-view'"
        assert rows(engine.run(alone)) == ids("a", "b")
        assert engine.graph("renamed").built_property_indexes() == ("name",)


def test_objects_under_construction_shadow_the_index():
    # WHEN conditions read the properties CONSTRUCT is assigning (the
    # overlay): no stored k is 7, so only the overlay can satisfy m.k = 7.
    query = (
        "CONSTRUCT (n {k := 7}) "
        "WHEN EXISTS (SELECT m MATCH (m:T) WHERE m.k = 7) "
        "MATCH (n:T) WHERE n.k = 1"
    )
    engine = fresh_engine()
    assert sorted(engine.run(query).nodes) == ["float", "int"]
    assert sorted(oracle.run(fresh_engine(), query).nodes) == ["float", "int"]
    assert engine.catalog.default_graph().built_property_indexes() == ("k",)


class TestFlatGraphs:
    def test_flat_index_skips_the_per_object_property_cache(self, tmp_path):
        path = str(tmp_path / "typed.gsnap")
        fresh_engine().save(path)
        flat = GCoreEngine.open(path).catalog.default_graph()
        dict_backed = typed_graph()
        for key in ("k", "s", "w", "nokey"):
            assert {
                value: set(carriers)
                for value, carriers in flat.property_index(key).items()
            } == {
                value: set(carriers)
                for value, carriers in dict_backed.property_index(key).items()
            }

    def test_flat_engine_agrees_with_the_matrix(self, tmp_path):
        path = str(tmp_path / "typed.gsnap")
        fresh_engine().save(path)
        for query, params, expected, indexed in WHERE_CASES + PATTERN_CASES:
            flat = GCoreEngine.open(path)
            assert rows(flat.run(query, params=params)) == ids(*expected)
            assert flat.catalog.default_graph().built_property_indexes() == (
                tuple(sorted(indexed))
            )


class TestStaleness:
    """The index is per graph object, hence per MVCC epoch; an update's
    epoch starts from a patched copy of its base's."""

    QUERY = "SELECT n MATCH (n:T) WHERE n.s = $v"

    def test_update_is_seen_and_pinned_snapshot_is_not_disturbed(self):
        engine = fresh_engine()
        assert rows(engine.run(self.QUERY, params={"v": "x"})) == ids(
            "int", "none"
        )
        before = engine.catalog.default_graph()
        assert before.built_property_indexes() == ("s",)
        with engine.snapshot() as pinned:
            engine.apply_update(
                "typed",
                GraphDelta()
                .set_property("int", "s", "moved")
                .add_node("new", labels=["T"], properties={"s": "x"}),
            )
            after = engine.catalog.default_graph()
            assert after is not before
            # the new epoch inherits the index, patched from the delta
            assert after.built_property_indexes() == ("s",)
            assert after._property_indexes["s"] is not (
                before._property_indexes["s"]
            )
            assert {
                value: set(carriers)
                for value, carriers in after.property_index("s").items()
            } == {
                value: set(carriers)
                for value, carriers in after._build_property_index("s").items()
            }
            assert rows(engine.run(self.QUERY, params={"v": "x"})) == ids(
                "none", "new"
            )
            assert rows(engine.run(self.QUERY, params={"v": "moved"})) == ids(
                "int"
            )
            assert after.built_property_indexes() == ("s",)
            # the older epoch keeps answering from its own graph and index
            assert rows(pinned.run(self.QUERY, params={"v": "x"})) == ids(
                "int", "none"
            )
            assert rows(pinned.run(self.QUERY, params={"v": "moved"})) == []
            assert before.built_property_indexes() == ("s",)
        (entry,) = engine.catalog_info()
        assert entry["property_indexes"] == ["s"]

    def test_post_update_over_http(self):
        def call(url, payload=None):
            request = urllib.request.Request(
                url,
                data=None if payload is None else json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                return json.loads(response.read())

        handle = run_in_thread(fresh_engine(), ServerConfig(port=0))
        try:
            ask = {"query": self.QUERY, "params": {"v": "x"}}
            assert call(handle.url + "/query", ask)["rows"] == [["int"], ["none"]]
            (entry,) = call(handle.url + "/stats")["graphs"]
            assert entry["property_indexes"] == ["s"]
            call(handle.url + "/update", {"graph": "typed", "ops": [
                {"op": "set_property", "id": "int", "key": "s",
                 "value": "moved"},
            ]})
            (entry,) = call(handle.url + "/stats")["graphs"]
            assert entry["property_indexes"] == ["s"]  # inherited
            assert call(handle.url + "/query", ask)["rows"] == [["none"]]
            (entry,) = call(handle.url + "/stats")["graphs"]
            assert entry["property_indexes"] == ["s"]
        finally:
            handle.stop()
