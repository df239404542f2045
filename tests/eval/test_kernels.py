"""Vectorized expression kernels vs. the interpreted oracle.

Every test runs the same query on the engine (compiled kernels, WHERE
pushdown), each of its blocks also in every allowed atom order, again
with every block in syntax order, and on the definitional oracle of :mod:`repro.fuzz.oracle` (element-by-element
bindings, WHERE through ``ExpressionEvaluator``), asserting exact
agreement — including the
comparison/aggregate semantics (bool/number separation, DISTINCT
normalization, Date extrema) and the WHERE predicate pushdown machinery.
"""

import pytest
from atom_orders import every_block_checked, syntax_order_plans

from repro import GCoreEngine, GraphBuilder
from repro.fuzz import oracle
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser
from repro.model.values import Date
from repro.eval.match import block_atoms
from repro.eval.pushdown import PushdownPlan, split_conjuncts
from repro.table import Table


def typed_rows(table: Table):
    """Rows with type tags, so True vs 1 cannot hide behind Python ==."""
    return [
        tuple((type(cell).__name__, cell) for cell in row)
        for row in table.rows
    ]


def run_modes(engine, text, params=None):
    """(engine, syntax-order, oracle) results; the engine run also checks
    each block in every allowed atom order."""
    with every_block_checked():
        vectorized = engine.run(text, params=params)
    with syntax_order_plans():
        syntax_order = engine.run(text, params=params)
    naive = oracle.run(engine, text, params)
    return vectorized, syntax_order, naive


def assert_modes_agree(engine, text, params=None):
    vectorized, syntax_order, naive = run_modes(engine, text, params)
    if isinstance(vectorized, Table):
        assert vectorized.columns == syntax_order.columns == naive.columns
        assert (
            typed_rows(vectorized)
            == typed_rows(syntax_order)
            == typed_rows(naive)
        )
    else:  # graph results
        assert sorted(vectorized.nodes, key=str) == \
            sorted(naive.nodes, key=str)
        assert sorted(vectorized.edges, key=str) == \
            sorted(naive.edges, key=str)
    return vectorized


@pytest.fixture()
def typed_engine():
    """A graph whose properties span bool/int/float/str/Date/multi-set."""
    b = GraphBuilder(name="typed")
    b.add_node("a", labels=["Thing"], properties={
        "flag": True, "rank": 1, "score": 1.5, "name": "alpha",
        "since": Date(2014, 12, 1), "tags": {"x", "y"},
    })
    b.add_node("b", labels=["Thing"], properties={
        "flag": False, "rank": 2, "score": 2.0, "name": "beta",
        "since": Date(2015, 6, 30), "tags": {"y"},
    })
    b.add_node("c", labels=["Thing", "Odd"], properties={
        "rank": 1.0, "name": "gamma", "since": Date(2013, 1, 15),
        "mixed": 1,
    })
    b.add_node("d", labels=["Thing"], properties={
        "flag": True, "rank": 7, "name": "delta", "mixed": True,
    })
    b.add_edge("a", "b", edge_id="e1", labels=["rel"],
               properties={"w": 2})
    b.add_edge("b", "c", edge_id="e2", labels=["rel"],
               properties={"w": 5})
    b.add_edge("c", "d", edge_id="e3", labels=["other"])
    eng = GCoreEngine()
    eng.register_graph("typed", b.build(), default=True)
    return eng


class TestWhereParity:
    QUERIES = [
        "SELECT n.name AS n MATCH (n:Thing) WHERE n.rank > 1",
        "SELECT n.name AS n MATCH (n:Thing) WHERE n.rank = 1",
        "SELECT n.name AS n MATCH (n) WHERE n.flag = TRUE AND n.rank < 5",
        "SELECT n.name AS n MATCH (n) WHERE n.flag = TRUE OR n:Odd",
        "SELECT n.name AS n MATCH (n) WHERE NOT (n.flag = FALSE) XOR n.rank > 1",
        "SELECT n.name AS n MATCH (n) WHERE 'x' IN n.tags",
        "SELECT n.name AS n MATCH (n) WHERE n.tags SUBSET OF ['x', 'y', 'z']",
        "SELECT n.name AS n MATCH (n) WHERE n.rank + 1 > 2",
        "SELECT n.name AS n MATCH (n) WHERE CASE WHEN n.rank > 1 "
        "THEN n.flag ELSE TRUE END",
        "SELECT n.name AS n MATCH (n) WHERE SIZE(n.tags) >= 1",
        "SELECT n.name AS n, m.name AS m MATCH (n)-[e:rel]->(m) "
        "WHERE e.w > 2 AND n.rank <= 2",
        "SELECT n.name AS n MATCH (n) WHERE n.since < $cutoff",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_three_mode_agreement(self, typed_engine, query):
        assert_modes_agree(
            typed_engine, query, params={"cutoff": Date(2015, 1, 1)}
        )

    def test_where_filters_rows(self, typed_engine):
        t = typed_engine.run(
            "SELECT n.name AS n MATCH (n:Thing) WHERE n.rank > 1 ORDER BY n"
        )
        assert list(t.column("n")) == ["beta", "delta"]


class TestComparisonSemanticsFixes:
    def test_true_less_than_two_is_false_everywhere(self, typed_engine):
        # d.mixed = TRUE: a bool never compares against a number.
        t = assert_modes_agree(
            typed_engine,
            "SELECT n.name AS n MATCH (n) WHERE n.mixed < 2",
        )
        assert list(t.column("n")) == ["gamma"]  # c.mixed = 1 (a number)

    def test_bool_prop_comparisons(self, typed_engine):
        t = assert_modes_agree(
            typed_engine,
            "SELECT n.name AS n MATCH (n) WHERE n.flag >= 0",
        )
        assert len(t) == 0

    def test_count_distinct_keeps_bool_and_one_apart(self, typed_engine):
        t = assert_modes_agree(
            typed_engine,
            "SELECT COUNT(DISTINCT n.mixed) AS c MATCH (n:Thing)",
        )
        assert t.rows == ((2,),)  # {1, TRUE}, not conflated to 1

    def test_min_max_over_dates(self, typed_engine):
        t = assert_modes_agree(
            typed_engine,
            "SELECT MIN(n.since) AS lo, MAX(n.since) AS hi MATCH (n:Thing)",
        )
        assert t.rows == ((Date(2013, 1, 15), Date(2015, 6, 30)),)


class TestAggregationParity:
    QUERIES = [
        "SELECT COUNT(*) AS c MATCH (n:Thing)",
        "SELECT n.flag AS f, COUNT(*) AS c MATCH (n:Thing) "
        "GROUP BY n.flag ORDER BY c DESC",
        "SELECT SUM(n.rank) AS s, AVG(n.rank) AS a MATCH (n:Thing)",
        "SELECT COLLECT(n.name) AS names MATCH (n:Thing)",
        "SELECT n.rank AS r, MIN(n.name) AS lo MATCH (n:Thing) "
        "GROUP BY n.rank ORDER BY lo",
        "SELECT n.flag AS f, COUNT(*) AS c, MIN(n.name) AS lo, "
        "COUNT(DISTINCT n.rank) AS dr MATCH (n:Thing) GROUP BY n.flag",
        "SELECT COUNT(m) AS c, n.name AS nm "
        "MATCH (n:Thing) OPTIONAL (n)-[:rel]->(m) GROUP BY n.name ORDER BY nm",
        "SELECT COUNT(*) + 1 AS c1, CASE WHEN COUNT(*) > 3 THEN 'big' "
        "ELSE 'small' END AS size MATCH (n:Thing)",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_three_mode_agreement(self, typed_engine, query):
        assert_modes_agree(typed_engine, query)

    def test_star_is_count_only(self, typed_engine):
        # SUM(*) / FOO(*) parse; both evaluators must reject them with
        # the oracle's messages, never silently return the group count.
        from repro.errors import EvaluationError

        for query, fragment in (
            ("SELECT SUM(*) AS s MATCH (n:Thing)", "requires an argument"),
            ("SELECT FOO(*) AS s MATCH (n:Thing)", "unknown aggregate"),
        ):
            with pytest.raises(EvaluationError, match=fragment):
                typed_engine.run(query)
            with pytest.raises(EvaluationError, match=fragment):
                oracle.run(typed_engine, query)

    def test_count_star_maximality_over_presence_masks(self, typed_engine):
        # OPTIONAL misses leave m ABSENT; COUNT(*) counts only maximal rows.
        t = assert_modes_agree(
            typed_engine,
            "SELECT n.name AS nm, COUNT(*) AS c "
            "MATCH (n:Thing) OPTIONAL (n)-[:rel]->(m) "
            "GROUP BY n.name ORDER BY nm",
        )
        # c's only out-edge is labeled "other", d has none: both OPTIONAL
        # misses count 0 under the maximality rule.
        assert dict(t.rows) == {"alpha": 1, "beta": 1, "gamma": 0, "delta": 0}


class TestErrorParity:
    def test_arithmetic_error_raises_in_both_modes(self, typed_engine):
        from repro.errors import EvaluationError

        query = "SELECT n.name + 1 AS x MATCH (n:Thing)"
        with pytest.raises(EvaluationError):
            typed_engine.run(query)
        with pytest.raises(EvaluationError):
            oracle.run(typed_engine, query)

    def test_short_circuit_avoids_error_in_both_modes(self, typed_engine):
        # n.name + 1 would raise, but AND never reaches it when the
        # left conjunct is false — under either evaluator.
        query = (
            "SELECT n.name AS n MATCH (n:Thing) "
            "WHERE n.rank > 99 AND n.name + 1 > 0"
        )
        assert typed_engine.run(query).rows == ()
        assert oracle.run(typed_engine, query).rows == ()

    def test_division_by_zero_raises_in_both_modes(self, typed_engine):
        from repro.errors import EvaluationError

        query = "SELECT n.rank / 0 AS x MATCH (n:Thing)"
        with pytest.raises(EvaluationError):
            typed_engine.run(query)
        with pytest.raises(EvaluationError):
            oracle.run(typed_engine, query)


def node_atoms(clause):
    """The atoms of a one-pattern MATCH clause (no graph needed)."""
    return block_atoms(clause.block, [None])


class TestPushdown:
    def test_split_conjuncts_flattens_nested_ands(self):
        parser = Parser(tokenize(
            "MATCH (n) WHERE n.a = 1 AND (n.b = 2 AND n.c = 3)"
        ))
        clause = parser._match_clause()
        conjuncts = split_conjuncts(clause.block.where)
        assert len(conjuncts) == 3

    def test_non_total_conjuncts_stay_residual(self):
        parser = Parser(tokenize(
            "MATCH (n) WHERE n.a + 1 > 2 AND n.b = 2"
        ))
        clause = parser._match_clause()
        plan = PushdownPlan(clause.block.where, {})
        # The arithmetic conjunct blocks itself AND everything to its
        # right (error-order preservation).
        assert len(plan.pushable) == 0
        [(probe, post)], residual = plan.assign(node_atoms(clause))
        assert probe == () and post == ()
        assert len(residual) == 2

    def test_total_prefix_is_pushable(self):
        parser = Parser(tokenize(
            "MATCH (n) WHERE n.b = 2 AND n.a + 1 > 2"
        ))
        clause = parser._match_clause()
        plan = PushdownPlan(clause.block.where, {})
        assert len(plan.pushable) == 1
        assert len(plan.assign([])[1]) == 2  # no atom takes anything
        [(probe, post)], residual = plan.assign(node_atoms(clause))
        assert [c.expr for c in probe] == [plan.pushable[0].expr]
        assert post == ()
        assert len(residual) == 1  # the non-total suffix

    def test_pushed_property_keys_feed_the_planner(self):
        parser = Parser(tokenize(
            "MATCH (n)-[e:rel]->(m) WHERE n.rank = 1 AND e.w > 2"
        ))
        clause = parser._match_clause()
        plan = PushdownPlan(clause.block.where, {})
        keys = plan.pushed_property_keys()
        assert keys == {"n": ("rank",), "e": ("w",)}

    def test_missing_param_is_not_pushable(self):
        parser = Parser(tokenize("MATCH (n) WHERE n.a = $v"))
        clause = parser._match_clause()
        assert len(PushdownPlan(clause.block.where, {}).pushable) == 0
        assert len(PushdownPlan(clause.block.where, {"v": 1}).pushable) == 1

    def test_pushdown_results_match_the_oracle(self, typed_engine):
        # Conjuncts over n and e push into different atoms; the binding
        # set must be the oracle's, in the same order on every run.
        query = (
            "MATCH (n)-[e:rel]->(m) WHERE n.rank <= 2 AND e.w > 2 "
            "AND m.name = 'gamma'"
        )
        t1 = typed_engine.bindings(query)
        assert t1 == oracle.bindings(typed_engine, query)
        assert list(t1.rows) == list(typed_engine.bindings(query).rows)
        assert len(t1) == 1

    def test_label_test_conjunct_pushes(self, typed_engine):
        t1 = typed_engine.bindings("MATCH (n)-[:rel]->(m) WHERE (m:Odd)")
        t2 = oracle.bindings(typed_engine, "MATCH (n)-[:rel]->(m) WHERE (m:Odd)")
        assert t1 == t2 and len(t1) == 1


class TestExplainPushdown:
    def test_explain_reports_probe_assignment(self, typed_engine):
        text = typed_engine.explain(
            "CONSTRUCT (n) MATCH (n:Thing)-[e:rel]->(m) "
            "WHERE n.rank = 1 AND m.name = 'gamma'"
        )
        # The block plan starts from the selective m and probes the edge
        # backwards, so n's conjunct filters at the edge's probe. Both
        # are `x.key = constant`: candidates come from the value index.
        assert "pushed m.name = 'gamma' -> node(m) [index]" in text
        assert "pushed n.rank = 1 -> edge(e:n->m) [index]" in text

    def test_explain_tells_index_lookups_from_scans(self, typed_engine):
        text = typed_engine.explain(
            "CONSTRUCT (n) MATCH (n:Thing)-[e:rel]->(m) "
            "WHERE 'gamma' = m.name AND n.rank <> 1 AND e.w = $w "
            "AND (n.rank = 2 OR n.rank = 3)"
        )
        tags = {
            line.split(" -> ")[0].strip(): line.rsplit(" ", 1)[1]
            for line in text.splitlines()
            if line.strip().startswith("pushed ")
        }
        assert tags == {
            "pushed 'gamma' = m.name": "[index]",  # either operand order
            "pushed e.w = $w": "[index]",
            "pushed n.rank <> 1": "[probe]",
            "pushed n.rank = 2 OR n.rank = 3": "[probe]",
        }

    def test_explain_lookup_chain_rule_falls_back_to_probe(self, typed_engine):
        # `typed` is the default graph; a copy registered under another
        # name shares its identifiers. ON the copy first, the default
        # graph sits behind it in the lookup chain and the copy's index
        # answers; ON the default graph second, the copy shadows it.
        typed_engine.register_graph(
            "copy", typed_engine.catalog.default_graph().with_name("copy")
        )
        first = typed_engine.explain(
            "CONSTRUCT (n) MATCH (n:Thing) ON copy WHERE n.rank = 1"
        )
        assert "pushed n.rank = 1 -> node(n) [index]" in first
        shadowed = typed_engine.explain(
            "CONSTRUCT (n) MATCH (m:Thing) ON copy, (n:Thing) ON typed "
            "WHERE n.rank = 1"
        )
        assert "pushed n.rank = 1 -> node(n) [probe]" in shadowed

    def test_explain_reports_residual(self, typed_engine):
        text = typed_engine.explain(
            "CONSTRUCT (n) MATCH (n:Thing) WHERE n.rank + 1 > 2"
        )
        assert "residual n.rank + 1 > 2" in text

    def test_explain_assumes_params_bound(self, typed_engine):
        # Execution always has every $param bound, so EXPLAIN must show
        # the conjunct pushed — not residual.
        text = typed_engine.explain(
            "CONSTRUCT (n) MATCH (n:Thing) WHERE n.rank = $r"
        )
        assert "pushed n.rank = $r -> node(n) [index]" in text
        assert "residual" not in text

    def test_explain_reports_join_conjunct_as_filter(self, typed_engine):
        text = typed_engine.explain(
            "CONSTRUCT (n) MATCH (n:Thing), (m:Thing) WHERE n.rank = m.rank"
        )
        assert "[filter]" in text


class TestKernelCoverage:
    def test_projection_of_expressions(self, typed_engine):
        assert_modes_agree(
            typed_engine,
            "SELECT n.name AS nm, n.rank * 2 AS dbl, n.name + ' ' + n.name AS twice, "
            "CASE WHEN n.flag THEN 'y' ELSE 'n' END AS f "
            "MATCH (n:Thing) ORDER BY nm",
        )

    def test_list_and_index_kernels(self, typed_engine):
        assert_modes_agree(
            typed_engine,
            "SELECT [n.rank, n.name][0] AS head MATCH (n:Thing) ORDER BY head",
        )

    def test_exists_pattern_falls_back(self, typed_engine):
        assert_modes_agree(
            typed_engine,
            "SELECT n.name AS nm MATCH (n:Thing) "
            "WHERE (n)-[:rel]->() ORDER BY nm",
        )


class TestBindingParity:
    """Binding-table-level parity on the toy data.

    The engine must return the oracle's binding set and columns, in the
    same row order on every run, and so must every allowed atom order.
    """

    QUERIES = [
        "MATCH (n:Person) WHERE n.employer = 'Acme'",
        "MATCH (n:Person)-[:knows]->(m) WHERE m.lastName = 'Doe'",
        "MATCH (n:Person {employer=e}) WHERE e = 'CWI' OR e = 'MIT'",
        "MATCH (n:Person)-[:knows]->(m:Person) "
        "WHERE n.firstName < m.firstName",
        # Probe conjuncts on both atoms plus a join conjunct.
        "MATCH (n:Person)-[:knows]->(m:Person) WHERE n.employer = 'Acme' "
        "AND m.lastName >= 'H' AND m.firstName < n.firstName",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_table_parity_with_the_oracle(self, engine, query):
        expected = oracle.bindings(engine, query)
        with every_block_checked() as checked:
            got = engine.bindings(query)
        assert checked and all(checked)
        assert set(got.columns) == set(expected.columns)
        assert got == expected
        assert list(engine.bindings(query).rows) == list(got.rows)
