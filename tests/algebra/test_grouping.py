"""Unit tests for grouping (the grp operator of Appendix A.3)."""

from repro.algebra.binding import Binding, BindingTable
from repro.algebra.grouping import MISSING, group_indices, key_column
from repro.model.values import Date


def T(columns, *rows):
    return BindingTable(columns, [Binding(r) for r in rows])


def groups_of(table, variables):
    """{key: rows} of *table* grouped by the cells of *variables*."""
    columns = [key_column(table, var) for var in variables]
    return {
        key: [table.row_at(i) for i in indices]
        for key, indices in group_indices(columns, len(table))
    }


class TestKeyColumn:
    def test_values_in_row_order(self):
        table = T(["a", "b"], {"a": 1, "b": 2}, {"a": 3, "b": 4})
        assert key_column(table, "b") == [2, 4]

    def test_missing_sentinel(self):
        table = BindingTable(["a", "b"], [Binding({"a": 1})])
        assert key_column(table, "b") == [MISSING]

    def test_missing_is_singleton(self):
        assert key_column(T(["x"], {}), "x")[0] is MISSING


class TestGroupIndices:
    def test_partition(self):
        table = T(
            ["e", "n"],
            {"e": "MIT", "n": "frank"},
            {"e": "CWI", "n": "frank"},
            {"e": "Acme", "n": "alice"},
            {"e": "Acme", "n": "john"},
        )
        groups = groups_of(table, ["e"])
        assert len(groups) == 3
        assert len(groups[("Acme",)]) == 2

    def test_empty_gamma_is_single_group(self):
        assert group_indices([], 2) == [((), [0, 1])]
        assert group_indices([], 0) == []

    def test_unbound_rows_group_together(self):
        table = BindingTable(
            ["x", "y"],
            [Binding({"x": 1}), Binding({"x": 1, "y": 2})],
        )
        groups = groups_of(table, ["y"])
        assert len(groups) == 2
        assert (MISSING,) in groups

    def test_deterministic_order(self):
        column = ["b", "a", "c", "a"]
        assert group_indices([column], 4) == [
            (("a",), [1, 3]), (("b",), [0]), (("c",), [2])
        ]

    def test_order_is_by_value_missing_first(self):
        column = [10, MISSING, 9, 2.5, -1, "x", Date(2020, 1, 1), True]
        firsts = [indices[0] for _, indices in group_indices([column], len(column))]
        assert [column[i] for i in firsts] == [
            MISSING, True, -1, 2.5, 9, 10, "x", Date(2020, 1, 1)
        ]

    def test_classes_follow_equality(self):
        # = says 1 = 1.0 and {1, 9} = {9, 1}; TRUE is never a number, and
        # a singleton set is its member.
        column = [1, 1.0, True, frozenset({1, 9}), frozenset({9, 1}), frozenset({1})]
        classes = [indices for _, indices in group_indices([column], len(column))]
        assert sorted(classes) == [[0, 1, 5], [2], [3, 4]]

    def test_two_columns(self):
        left = ["a", "a", "b", "a"]
        right = [1, 2, 1, 1.0]
        assert [indices for _, indices in group_indices([left, right], 4)] == [
            [0, 3], [1], [2]
        ]
