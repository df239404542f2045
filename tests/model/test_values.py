"""Unit tests for the value-set semantics of Section 3."""

import pytest

from repro.model.values import (
    Date,
    EMPTY_SET,
    as_scalar,
    as_value_set,
    format_scalar,
    distinct_key,
    format_value_set,
    gcore_compare,
    gcore_equals,
    gcore_in,
    gcore_subset,
    is_scalar,
    order_key,
    truthy,
)


class TestDate:
    def test_parse_paper_format(self):
        assert Date.parse("1/12/2014") == Date(2014, 12, 1)

    def test_parse_iso(self):
        assert Date.parse("2014-12-01") == Date(2014, 12, 1)

    def test_str_is_iso(self):
        assert str(Date(2014, 12, 1)) == "2014-12-01"

    def test_ordering(self):
        assert Date(2014, 1, 2) < Date(2014, 2, 1) < Date(2015, 1, 1)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Date.parse("yesterday")

    @pytest.mark.parametrize(
        "text", ["2020-13-45", "2021-02-30", "2019-02-29", "31/4/2020", "0/1/2020"]
    )
    def test_parse_rejects_dates_the_calendar_lacks(self, text):
        with pytest.raises(ValueError, match="invalid date"):
            Date.parse(text)

    def test_parse_accepts_leap_day(self):
        assert Date.parse("2020-02-29") == Date(2020, 2, 29)
        assert Date.parse("29/2/2000") == Date(2000, 2, 29)


class TestValueSets:
    def test_scalar_becomes_singleton(self):
        assert as_value_set("MIT") == frozenset({"MIT"})

    def test_none_becomes_empty(self):
        assert as_value_set(None) == EMPTY_SET

    def test_collection_becomes_set(self):
        assert as_value_set(["CWI", "MIT"]) == frozenset({"CWI", "MIT"})

    def test_frozenset_passes_through(self):
        values = frozenset({1, 2})
        assert as_value_set(values) is values

    def test_rejects_non_literals(self):
        with pytest.raises(TypeError):
            as_value_set(object())

    def test_rejects_nested_non_literals(self):
        with pytest.raises(TypeError):
            as_value_set(frozenset({object()}))

    def test_as_scalar_unwraps_singleton(self):
        assert as_scalar(frozenset({"MIT"})) == "MIT"

    def test_as_scalar_keeps_multisets(self):
        values = frozenset({"CWI", "MIT"})
        assert as_scalar(values) is values

    def test_is_scalar(self):
        assert is_scalar("x") and is_scalar(1) and is_scalar(1.5)
        assert is_scalar(True) and is_scalar(Date(2020, 1, 1))
        assert not is_scalar([1]) and not is_scalar(None)


class TestEquality:
    def test_frank_fails_the_join(self):
        # "MIT" = {"CWI","MIT"} evaluates to FALSE (Section 3).
        assert not gcore_equals("MIT", frozenset({"CWI", "MIT"}))

    def test_singleton_matches_scalar(self):
        assert gcore_equals("MIT", frozenset({"MIT"}))

    def test_set_to_set(self):
        assert gcore_equals(frozenset({"a", "b"}), frozenset({"b", "a"}))

    def test_absent_property_is_never_equal(self):
        assert not gcore_equals(EMPTY_SET, "Acme")

    def test_empty_equals_empty(self):
        assert gcore_equals(EMPTY_SET, EMPTY_SET)

    def test_int_float_coercion(self):
        assert gcore_equals(1, 1.0)

    def test_bool_is_not_one(self):
        assert not gcore_equals(True, 1)


class TestIn:
    def test_member(self):
        assert gcore_in("MIT", frozenset({"CWI", "MIT"}))

    def test_non_member(self):
        assert not gcore_in("Acme", frozenset({"CWI", "MIT"}))

    def test_in_empty_set_is_false(self):
        # 'Acme' IN (absent employer) is false, so NOT ... IN is true for
        # the unemployed Peter (the wKnows WHERE clause).
        assert not gcore_in("Acme", EMPTY_SET)

    def test_scalar_right_operand_is_singleton(self):
        assert gcore_in("Acme", "Acme")

    def test_multivalued_left_is_false(self):
        assert not gcore_in(frozenset({"a", "b"}), frozenset({"a", "b"}))


class TestSubset:
    def test_subset(self):
        assert gcore_subset(frozenset({"a"}), frozenset({"a", "b"}))

    def test_not_subset(self):
        assert not gcore_subset(frozenset({"a", "c"}), frozenset({"a", "b"}))

    def test_empty_is_subset_of_anything(self):
        assert gcore_subset(EMPTY_SET, frozenset({"a"}))

    def test_scalar_coercion(self):
        assert gcore_subset("a", frozenset({"a", "b"}))


class TestComparison:
    def test_numbers(self):
        assert gcore_compare("<", 1, 2)
        assert gcore_compare("<=", 2, 2)
        assert gcore_compare(">", 3, 2)
        assert gcore_compare(">=", 3, 3)

    def test_singleton_sets_unwrap(self):
        assert gcore_compare(">", frozenset({5}), 4)

    def test_empty_set_comparisons_are_false(self):
        assert not gcore_compare("<", EMPTY_SET, 5)
        assert not gcore_compare(">", 5, EMPTY_SET)

    def test_multivalued_comparisons_are_false(self):
        assert not gcore_compare("<", frozenset({1, 2}), 5)

    def test_mixed_types_are_false(self):
        assert not gcore_compare("<", "a", 5)

    def test_bool_is_not_a_number(self):
        # Regression: isinstance(True, int) made TRUE < 2 compare 1 < 2.
        # Booleans must follow the normalize_scalar policy (a class of
        # their own), so bool-vs-number comparisons are false.
        assert not gcore_compare("<", True, 2)
        assert not gcore_compare("<=", False, 0)
        assert not gcore_compare(">", 2, True)
        assert not gcore_compare(">=", 1, True)
        assert not gcore_compare("<", frozenset({True}), 2)

    def test_bools_compare_with_bools(self):
        assert gcore_compare("<", False, True)
        assert gcore_compare(">=", True, True)

    def test_strings_compare(self):
        assert gcore_compare("<", "abc", "abd")

    def test_dates_compare(self):
        assert gcore_compare("<", Date(2014, 1, 1), Date(2015, 1, 1))

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            gcore_compare("<=>", 1, 2)


class TestTruthyAndFormat:
    def test_truthy_bool(self):
        assert truthy(True) and not truthy(False)

    def test_truthy_singleton_bool(self):
        assert truthy(frozenset({True}))

    def test_truthy_non_bool_is_false(self):
        assert not truthy(1) and not truthy("x") and not truthy(EMPTY_SET)

    def test_format_scalar_quotes_strings(self):
        assert format_scalar("MIT") == '"MIT"'

    def test_format_singleton_without_braces(self):
        assert format_value_set(frozenset({"MIT"})) == '"MIT"'

    def test_format_multivalue_with_braces(self):
        text = format_value_set(frozenset({"CWI", "MIT"}))
        assert text == '{"CWI", "MIT"}'

    def test_format_empty(self):
        assert format_value_set(EMPTY_SET) == "{}"

    def test_format_sorts_numbers_by_value(self):
        assert format_value_set(frozenset({10, 9, 2.5})) == "{2.5, 9, 10}"


class TestDistinctKey:
    def test_bool_and_one_stay_distinct(self):
        assert distinct_key(True) != distinct_key(1)
        assert distinct_key(False) != distinct_key(0)

    def test_int_float_collapse(self):
        assert distinct_key(1) == distinct_key(1.0)

    def test_value_sets_key_elementwise(self):
        assert distinct_key(frozenset({1, 2})) == distinct_key(
            frozenset({2.0, 1.0})
        )
        assert distinct_key(frozenset({1})) != distinct_key(
            frozenset({True})
        )

    def test_lists_key_elementwise(self):
        assert distinct_key((1, True)) != distinct_key((True, 1))
        assert distinct_key((1,)) == distinct_key((1.0,))

    def test_dates_key_by_value(self):
        assert distinct_key(Date(2014, 1, 1)) == distinct_key(Date(2014, 1, 1))
        assert distinct_key(Date(2014, 1, 1)) != distinct_key(Date(2014, 1, 2))

    def test_singleton_keys_as_its_member(self):
        assert distinct_key(frozenset({"MIT"})) == distinct_key("MIT") == "MIT"
        assert distinct_key(frozenset({True})) == distinct_key(True)
        assert distinct_key(None) == distinct_key(EMPTY_SET)

    def test_ints_key_exactly(self):
        # Ids are ints of any size: two of them never share a key, and
        # = tells them apart too, though they round to one float.
        assert not gcore_equals(2 ** 53, 2 ** 53 + 1)
        assert gcore_equals(2 ** 53, float(2 ** 53))
        assert distinct_key(2 ** 53) != distinct_key(2 ** 53 + 1)

    def test_equal_sets_key_alike_in_any_insertion_order(self):
        left, right = frozenset([1, 9]), frozenset([9, 1])
        assert str(left) != str(right)
        assert distinct_key(left) == distinct_key(right)


class TestOrderKey:
    def test_numbers_order_by_value(self):
        values = [9, 10, 100, 2, 2.5, -1]
        assert sorted(values, key=order_key) == [-1, 2, 2.5, 9, 10, 100]

    def test_order_across_kinds(self):
        values = [
            (1, 2), frozenset({1, 2}), Date(2020, 1, 1), "a", float("nan"),
            3, True, False, None,
        ]
        ordered = sorted(values, key=order_key)
        assert ordered[:5] == [None, False, True, 3, ordered[4]]
        assert ordered[4] != ordered[4]  # NaN after the numbers
        assert ordered[5:] == ["a", Date(2020, 1, 1), frozenset({1, 2}), (1, 2)]

    def test_sets_order_by_sorted_members(self):
        assert order_key(frozenset([1, 9])) == order_key(frozenset([9, 1]))
        assert order_key(frozenset({1, 9})) < order_key(frozenset({2, 3}))
        assert order_key(frozenset({"x"})) == order_key("x")
        assert order_key(EMPTY_SET) == order_key(None)
