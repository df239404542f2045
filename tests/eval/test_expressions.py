"""Expression evaluation tests (Appendix A.1 semantics)."""

import pytest

from repro.algebra.binding import Binding, BindingTable
from repro.catalog import Catalog
from repro.datasets import load
from repro.errors import EvaluationError
from repro.eval.context import EvalContext
from repro.eval.expressions import (
    ExpressionEvaluator,
    expr_has_aggregate,
    expr_variables,
)
from repro.lang.parser import parse_expression
from repro.paths.walk import Walk


@pytest.fixture()
def ev():
    catalog = Catalog()
    catalog.register_graph("social_graph", load("paper").graphs["social_graph"], default=True)
    ctx = EvalContext(catalog)
    ctx.touch_graph(catalog.graph("social_graph"))
    return ExpressionEvaluator(ctx)


def evaluate(ev, text, row=None, group=None, maxdom=None):
    return ev.evaluate(parse_expression(text), Binding(row or {}),
                       group=group, maximal_domain=maxdom)


class TestLeaves:
    def test_literals(self, ev):
        assert evaluate(ev, "42") == 42
        assert evaluate(ev, "'x'") == "x"
        assert evaluate(ev, "TRUE") is True

    def test_variable(self, ev):
        assert evaluate(ev, "x", {"x": 7}) == 7

    def test_unbound_variable_is_absent(self, ev):
        assert evaluate(ev, "x") == frozenset()

    def test_property_lookup(self, ev):
        assert evaluate(ev, "n.firstName", {"n": "john"}) == {"John"}

    def test_absent_property_is_empty(self, ev):
        assert evaluate(ev, "n.shoeSize", {"n": "john"}) == frozenset()

    def test_multivalued_property(self, ev):
        assert evaluate(ev, "n.employer", {"n": "frank"}) == {"CWI", "MIT"}

    def test_property_of_walk_is_absent(self, ev):
        walk = Walk(("john",))
        assert evaluate(ev, "p.k", {"p": walk}) == frozenset()

    def test_label_test(self, ev):
        assert evaluate(ev, "n:Person", {"n": "john"}) is True
        assert evaluate(ev, "n:Tag", {"n": "john"}) is False

    def test_label_disjunction(self, ev):
        assert evaluate(ev, "n:Tag|Person", {"n": "john"}) is True

    def test_list_literal(self, ev):
        assert evaluate(ev, "[1, 2]") == (1, 2)


class TestOperators:
    def test_arithmetic(self, ev):
        assert evaluate(ev, "1 + 2 * 3") == 7
        assert evaluate(ev, "10 / 4") == 2.5
        assert evaluate(ev, "7 % 3") == 1
        assert evaluate(ev, "-(2 + 3)") == -5

    def test_division_by_zero(self, ev):
        with pytest.raises(EvaluationError):
            evaluate(ev, "1 / 0")

    def test_paper_cost_expression(self, ev):
        # 1 / (1 + e.nr_messages) with nr_messages = 3
        row = {"v": 3}
        assert evaluate(ev, "1 / (1 + v)", row) == 0.25

    def test_arithmetic_over_singleton_set(self, ev):
        assert evaluate(ev, "n.firstName + '!'", {"n": "john"}) == "John!"

    def test_arithmetic_over_absent_propagates(self, ev):
        assert evaluate(ev, "n.shoeSize + 1", {"n": "john"}) == frozenset()

    def test_string_number_concat_rejected(self, ev):
        with pytest.raises(EvaluationError):
            evaluate(ev, "'a' + 1")

    def test_comparisons(self, ev):
        assert evaluate(ev, "1 < 2") is True
        assert evaluate(ev, "2 <= 1") is False
        assert evaluate(ev, "'a' <> 'b'") is True

    def test_set_equality_semantics(self, ev):
        assert evaluate(ev, "n.employer = 'Acme'", {"n": "john"}) is True
        assert evaluate(ev, "n.employer = 'CWI'", {"n": "frank"}) is False

    def test_in_and_subset(self, ev):
        assert evaluate(ev, "'CWI' IN n.employer", {"n": "frank"}) is True
        assert evaluate(ev, "n.employer SUBSET OF ['CWI','MIT','X']",
                        {"n": "frank"}) is True  # list coerces to a set
        assert evaluate(ev, "n.employer SUBSET OF ['CWI']",
                        {"n": "frank"}) is False
        assert evaluate(ev, "'Acme' IN n.employer", {"n": "peter"}) is False

    def test_boolean_connectives(self, ev):
        assert evaluate(ev, "TRUE AND NOT FALSE") is True
        assert evaluate(ev, "FALSE OR TRUE") is True
        assert evaluate(ev, "TRUE XOR TRUE") is False

    def test_and_short_circuit(self, ev):
        # right side would error, but left is already false
        assert evaluate(ev, "FALSE AND (1 / 0 = 1)") is False


class TestFunctions:
    def test_nodes_edges_on_walk(self, ev):
        walk = Walk(("john", "knows_john_peter", "peter"), 1.0)
        assert evaluate(ev, "nodes(p)", {"p": walk}) == ("john", "peter")
        assert evaluate(ev, "edges(p)", {"p": walk}) == ("knows_john_peter",)

    def test_indexing_is_zero_based(self, ev):
        walk = Walk(("john", "knows_john_peter", "peter"), 1.0)
        assert evaluate(ev, "nodes(p)[1]", {"p": walk}) == "peter"

    def test_index_out_of_range_absent(self, ev):
        walk = Walk(("john",))
        assert evaluate(ev, "nodes(p)[9]", {"p": walk}) == frozenset()

    def test_labels_function(self, ev):
        assert evaluate(ev, "labels(n)", {"n": "john"}) == {"Person"}

    def test_size(self, ev):
        assert evaluate(ev, "size(n.employer)", {"n": "frank"}) == 2
        assert evaluate(ev, "size(n.employer)", {"n": "peter"}) == 0
        assert evaluate(ev, "size('abc')") == 3

    def test_length_and_cost_of_walk(self, ev):
        walk = Walk(("john", "knows_john_peter", "peter"), 1.0)
        assert evaluate(ev, "length(p)", {"p": walk}) == 1
        assert evaluate(ev, "cost(p)", {"p": walk}) == 1.0

    def test_type_conversions(self, ev):
        assert evaluate(ev, "toString(5)") == "5"
        assert evaluate(ev, "toInteger('5')") == 5
        assert evaluate(ev, "toFloat('2.5')") == 2.5
        assert evaluate(ev, "toInteger('zz')") == frozenset()

    def test_coalesce(self, ev):
        assert evaluate(ev, "coalesce(n.shoeSize, 'none')", {"n": "john"}) == "none"
        assert evaluate(ev, "coalesce(n.firstName, 'x')", {"n": "john"}) == {"John"}

    def test_abs(self, ev):
        assert evaluate(ev, "abs(0 - 5)") == 5

    def test_unknown_function(self, ev):
        with pytest.raises(EvaluationError):
            evaluate(ev, "quux(1)")


class TestCase:
    def test_case_coalesces_missing_data(self, ev):
        text = ("CASE WHEN size(n.employer) = 0 THEN 'unemployed' "
                "ELSE 'employed' END")
        assert evaluate(ev, text, {"n": "peter"}) == "unemployed"
        assert evaluate(ev, text, {"n": "john"}) == "employed"

    def test_case_without_else_is_absent(self, ev):
        assert evaluate(ev, "CASE WHEN FALSE THEN 1 END") == frozenset()

    def test_first_matching_branch(self, ev):
        assert evaluate(ev, "CASE WHEN TRUE THEN 1 WHEN TRUE THEN 2 END") == 1


class TestAggregatesInContext:
    def test_aggregate_requires_group(self, ev):
        with pytest.raises(EvaluationError):
            evaluate(ev, "COUNT(*)")

    def test_aggregate_with_group(self, ev):
        group = BindingTable(["x"], [Binding({"x": i}) for i in range(4)])
        assert evaluate(ev, "COUNT(*)", group=group) == 4
        assert evaluate(ev, "SUM(x)", group=group) == 6

    def test_count_star_maximality(self, ev):
        group = BindingTable(
            ["x", "y"], [Binding({"x": 1, "y": 1}), Binding({"x": 2})]
        )
        assert evaluate(ev, "COUNT(*)", group=group,
                        maxdom=frozenset({"x", "y"})) == 1


class TestHelpers:
    def test_expr_has_aggregate(self):
        assert expr_has_aggregate(parse_expression("COUNT(*)"))
        assert expr_has_aggregate(parse_expression("1 + SUM(x)"))
        assert expr_has_aggregate(parse_expression("CASE WHEN a THEN MIN(b) END"))
        assert not expr_has_aggregate(parse_expression("size(x) + 1"))
        assert not expr_has_aggregate(None)

    def test_expr_variables(self):
        variables = expr_variables(
            parse_expression("x.a + f(y) + CASE WHEN z THEN w[i] END")
        )
        assert variables == {"x", "y", "z", "w", "i"}
