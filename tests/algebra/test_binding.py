"""Unit tests for bindings and binding tables (Appendix A.1)."""


from repro.algebra.binding import ABSENT, EMPTY_BINDING, Binding, BindingTable
from repro.algebra.grouping import MISSING, group_indices, key_column
from repro.algebra.ops import table_join, table_left_join, table_union


class TestBinding:
    def test_mapping_protocol(self):
        mu = Binding({"x": 1, "y": "a"})
        assert mu["x"] == 1 and mu.get("z") is None
        assert set(mu) == {"x", "y"} and len(mu) == 2
        assert "x" in mu and "z" not in mu

    def test_domain(self):
        assert Binding({"x": 1}).domain == frozenset({"x"})
        assert EMPTY_BINDING.domain == frozenset()

    def test_hash_and_equality(self):
        assert Binding({"x": 1}) == Binding({"x": 1})
        assert hash(Binding({"x": 1})) == hash(Binding({"x": 1}))
        assert Binding({"x": 1}) != Binding({"x": 2})

    def test_compatibility_on_shared_domain(self):
        mu1 = Binding({"x": 1, "y": 2})
        mu2 = Binding({"y": 2, "z": 3})
        assert mu1.compatible(mu2)
        assert not mu1.compatible(Binding({"y": 99}))

    def test_empty_binding_compatible_with_all(self):
        assert EMPTY_BINDING.compatible(Binding({"x": 1}))
        assert Binding({"x": 1}).compatible(EMPTY_BINDING)

    def test_merge(self):
        merged = Binding({"x": 1}).merge(Binding({"y": 2}))
        assert merged == Binding({"x": 1, "y": 2})

    def test_extend_is_persistent(self):
        mu = Binding({"x": 1})
        nu = mu.extend("y", 2)
        assert "y" not in mu and nu["y"] == 2

    def test_project_and_drop(self):
        mu = Binding({"x": 1, "y": 2, "z": 3})
        assert mu.project(["x", "w"]).domain == frozenset({"x"})
        assert mu.drop(["y"]).domain == frozenset({"x", "z"})

    def test_repr_sorted(self):
        assert repr(Binding({"b": 1, "a": 2})) == "{a=2, b=1}"


class TestBindingTable:
    def test_deduplicates_rows(self):
        table = BindingTable(["x"], [Binding({"x": 1}), Binding({"x": 1})])
        assert len(table) == 1

    def test_unit_and_empty(self):
        assert len(BindingTable.unit()) == 1
        assert not BindingTable.empty(["x"])
        assert BindingTable.unit().rows[0] == EMPTY_BINDING

    def test_columns_deduplicated_in_order(self):
        table = BindingTable(["a", "b", "a"], [])
        assert table.columns == ("a", "b")

    def test_equality_is_set_semantics(self):
        t1 = BindingTable(["x"], [Binding({"x": 1}), Binding({"x": 2})])
        t2 = BindingTable(["x"], [Binding({"x": 2}), Binding({"x": 1})])
        assert t1 == t2

    def test_maximal_domain(self):
        table = BindingTable(
            ["x", "y"], [Binding({"x": 1}), Binding({"x": 2, "y": 3})]
        )
        assert table.maximal_domain() == frozenset({"x", "y"})

    def test_project(self):
        table = BindingTable(
            ["x", "y"],
            [Binding({"x": 1, "y": 1}), Binding({"x": 1, "y": 2})],
        )
        assert len(table.project(["x"])) == 1

    def test_drop(self):
        table = BindingTable(["x", "y"], [Binding({"x": 1, "y": 2})])
        dropped = table.drop(["y"])
        assert dropped.columns == ("x",)
        assert dropped.rows[0].domain == frozenset({"x"})

    def test_filter(self):
        table = BindingTable(["x"], [Binding({"x": i}) for i in range(5)])
        assert len(table.filter(lambda row: row["x"] % 2 == 0)) == 3

    def test_with_columns(self):
        table = BindingTable(["x"], []).with_columns(["y"])
        assert table.columns == ("x", "y")

    def test_pretty_contains_headers_and_values(self):
        table = BindingTable(
            ["c", "n"], [Binding({"c": "#Acme", "n": "#Alice"})]
        )
        text = table.pretty()
        assert "c" in text and "#Acme" in text

    def test_pretty_limit(self):
        table = BindingTable(["x"], [Binding({"x": i}) for i in range(30)])
        assert "more rows" in table.pretty(limit=10)

    def test_pretty_renders_value_sets(self):
        table = BindingTable(
            ["e"], [Binding({"e": frozenset({"CWI", "MIT"})})]
        )
        assert '{"CWI", "MIT"}' in table.pretty()


class TestColumnarStorage:
    """The columnar layout under the set-of-bindings surface."""

    def test_absent_masks_partial_rows(self):
        table = BindingTable(
            ["x", "y"], [Binding({"x": 1}), Binding({"x": 2, "y": 3})]
        )
        assert table.column_values("x") == [1, 2]
        assert table.column_values("y") == [ABSENT, 3]
        assert table.column_values("z") is None

    def test_rows_outside_declared_columns_are_stored(self):
        table = BindingTable(["x"], [Binding({"x": 1, "extra": 9})])
        assert table.columns == ("x",)
        assert table.variables == ("x", "extra")
        assert table.rows[0]["extra"] == 9

    def test_dedup_distinguishes_domain_from_value(self):
        # {x=1} and {x=1, y=...} have different domains: both survive.
        table = BindingTable(
            ["x", "y"],
            [Binding({"x": 1}), Binding({"x": 1, "y": 2}), Binding({"x": 1})],
        )
        assert len(table) == 2

    def test_from_columns_dedups_first_wins(self):
        table = BindingTable.from_columns(
            ("x", "y"),
            ("x", "y"),
            {"x": [1, 1, 2], "y": [ABSENT, ABSENT, 5]},
            3,
        )
        assert len(table) == 2
        assert table.rows[0] == Binding({"x": 1})
        assert table.rows[1] == Binding({"x": 2, "y": 5})

    def test_select_rows_preserves_order_and_masks(self):
        table = BindingTable(
            ["x", "y"],
            [Binding({"x": i}) if i % 2 else Binding({"x": i, "y": i * 10})
             for i in range(4)],
        )
        picked = table.select_rows([3, 0])
        assert [row.get("x") for row in picked] == [3, 0]
        assert picked.column_values("y") == [ABSENT, 0]

    def test_row_views_are_cached(self):
        table = BindingTable(["x"], [Binding({"x": 1})])
        assert table.rows[0] is table.rows[0]


class TestOptionalMasksAtColumnarBoundaries:
    """OPTIONAL partiality (missing-variable masks) must survive the
    columnar operators: join, union and grouping treat an ABSENT cell as
    'variable outside the domain', never as a value."""

    def test_masks_through_left_join(self):
        # The OPTIONAL operator: an unmatched left row keeps its mask.
        left = BindingTable(
            ["x"], [Binding({"x": 1}), Binding({"x": 2})]
        )
        right = BindingTable(
            ["x", "y"], [Binding({"x": 1, "y": "hit"})]
        )
        joined = table_left_join(left, right)
        assert len(joined) == 2
        by_x = {row["x"]: row for row in joined}
        assert by_x[1]["y"] == "hit"
        assert "y" not in by_x[2]
        assert joined.column_values("y") is not None
        assert ABSENT in joined.column_values("y")

    def test_partial_row_joins_any_value_of_missing_variable(self):
        # Compatibility constrains only the domain intersection: a row
        # that does not bind y joins every y value (paper A.1).
        left = BindingTable(
            ["x", "y"], [Binding({"x": 1}), Binding({"x": 1, "y": 7})]
        )
        right = BindingTable(
            ["y", "z"], [Binding({"y": 7, "z": "a"}), Binding({"y": 8, "z": "b"})]
        )
        joined = table_join(left, right)
        assert set(joined) == {
            Binding({"x": 1, "y": 7, "z": "a"}),
            Binding({"x": 1, "y": 8, "z": "b"}),
            Binding({"x": 1, "y": 7, "z": "a"}),  # total row joins y=7 only
        }

    def test_masks_through_union(self):
        left = BindingTable(["x", "y"], [Binding({"x": 1})])
        right = BindingTable(
            ["x", "y"], [Binding({"x": 1}), Binding({"x": 1, "y": 2})]
        )
        union = table_union(left, right)
        # {x=1} from both sides collapses; the masked and unmasked rows
        # stay distinct.
        assert set(union) == {Binding({"x": 1}), Binding({"x": 1, "y": 2})}
        assert union.column_values("y") == [ABSENT, 2]

    def test_union_aligns_disjoint_column_sets(self):
        left = BindingTable(["x"], [Binding({"x": 1})])
        right = BindingTable(["y"], [Binding({"y": 2})])
        union = table_union(left, right)
        assert union.columns == ("x", "y")
        assert union.column_values("x") == [1, ABSENT]
        assert union.column_values("y") == [ABSENT, 2]

    @staticmethod
    def groups(table, var):
        """{key: rows} of *table* grouped by *var* (MISSING where unbound)."""
        return {
            key: [table.row_at(i) for i in indices]
            for key, indices in group_indices([key_column(table, var)], len(table))
        }

    def test_group_by_missing_is_its_own_key(self):
        # grp (A.3): an unbound variable groups under MISSING, and rows
        # that bind it group by value — masks never merge with values.
        table = BindingTable(
            ["x", "y"],
            [
                Binding({"x": 1, "y": "a"}),
                Binding({"x": 2}),
                Binding({"x": 3, "y": "a"}),
                Binding({"x": 4}),
            ],
        )
        groups = self.groups(table, "y")
        assert set(groups) == {("a",), (MISSING,)}
        assert {row["x"] for row in groups[("a",)]} == {1, 3}
        assert {row["x"] for row in groups[(MISSING,)]} == {2, 4}

    def test_group_by_on_unstored_variable(self):
        table = BindingTable(["x"], [Binding({"x": 1}), Binding({"x": 2})])
        groups = self.groups(table, "ghost")
        assert len(groups) == 1
        assert len(groups[(MISSING,)]) == 2

    def test_left_join_then_group_by(self):
        # An end-to-end OPTIONAL shape: left join, then grouping on the
        # optional variable — unmatched rows form the MISSING group.
        left = BindingTable(
            ["n"], [Binding({"n": i}) for i in range(4)]
        )
        right = BindingTable(
            ["n", "tag"],
            [Binding({"n": 0, "tag": "t"}), Binding({"n": 2, "tag": "t"})],
        )
        joined = table_left_join(left, right)
        groups = self.groups(joined, "tag")
        assert {row["n"] for row in groups[("t",)]} == {0, 2}
        assert {row["n"] for row in groups[(MISSING,)]} == {1, 3}
