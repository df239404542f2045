"""Property-based tests for the value-set semantics."""

from hypothesis import given, settings, strategies as st

from repro import GCoreEngine, GraphBuilder
from repro.model.values import (
    as_scalar,
    as_value_set,
    distinct_key,
    gcore_equals,
    gcore_in,
    gcore_subset,
    order_key,
)

scalars = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
    st.booleans(),
)
value_sets = st.frozensets(scalars, max_size=5)


@given(scalars)
def test_scalar_singleton_round_trip(value):
    assert as_scalar(as_value_set(value)) == value


@given(value_sets)
def test_as_value_set_idempotent(values):
    assert as_value_set(as_value_set(values)) == as_value_set(values)


@given(value_sets)
def test_equals_reflexive(values):
    assert gcore_equals(values, values)


@given(value_sets, value_sets)
def test_equals_symmetric(a, b):
    assert gcore_equals(a, b) == gcore_equals(b, a)


@given(scalars, value_sets)
def test_scalar_equals_singleton(value, _):
    assert gcore_equals(value, frozenset({value}))


@given(value_sets, value_sets)
def test_subset_reflexive_and_antisymmetric_ish(a, b):
    assert gcore_subset(a, a)
    if gcore_subset(a, b) and gcore_subset(b, a):
        assert gcore_equals(a, b)


@given(value_sets, value_sets, value_sets)
def test_subset_transitive(a, b, c):
    if gcore_subset(a, b) and gcore_subset(b, c):
        assert gcore_subset(a, c)


@given(scalars, value_sets)
def test_in_member_iff_singleton_subset(value, values):
    assert gcore_in(value, values) == gcore_subset(
        frozenset({value}), values
    )


@given(value_sets)
def test_empty_set_is_subset(values):
    assert gcore_subset(frozenset(), values)


# ---------------------------------------------------------------------------
# Sameness and order: GROUP BY, DISTINCT and CONSTRUCT's Γ against =
# ---------------------------------------------------------------------------

#: Property values where Python's == and = part ways: 1 / 1.0 / TRUE, and
#: sets given as lists, so equal sets arrive in different insertion
#: orders ([1, 9] and [9, 1] iterate differently: their hashes collide).
property_values = st.one_of(
    st.integers(-2, 9),
    st.sampled_from([0.0, 1.0, 2.5, 9.0]),
    st.booleans(),
    st.sampled_from(["a", "b", "1"]),
    st.lists(st.sampled_from([0, 1, 9, 17, 1.0, True, "a"]), min_size=1, max_size=3),
)


def equality_classes(values):
    """Node indices partitioned by gcore_equals, first-seen order."""
    classes = []
    for index, value in enumerate(values):
        for members in classes:
            if gcore_equals(values[members[0]], value):
                members.append(index)
                break
        else:
            classes.append([index])
    return partition([f"n{i}" for i in members] for members in classes)


def partition(groups):
    return sorted((frozenset(group) for group in groups), key=sorted)


@settings(max_examples=80, deadline=None)
@given(st.lists(property_values, min_size=1, max_size=7))
def test_grouping_follows_equality(values):
    builder = GraphBuilder()
    for index, value in enumerate(values):
        builder.add_node(f"n{index}", labels=["N"], properties={"v": value})
    engine = GCoreEngine()
    engine.register_graph("g", builder.build(), default=True)
    expected = equality_classes([as_value_set(v) for v in values])

    grouped = engine.run("SELECT COLLECT(id(n)) AS ids MATCH (n:N) GROUP BY n.v")
    assert partition(row[0] for row in grouped.rows) == expected

    distinct = [row[0] for row in engine.run("SELECT DISTINCT n.v AS v MATCH (n:N)").rows]
    assert len(distinct) == len(expected)
    assert not any(gcore_equals(a, b) for i, a in enumerate(distinct) for b in distinct[:i])

    built = engine.run("CONSTRUCT (x GROUP n.v)<-[:m]-(n) MATCH (n:N)")
    members = {}
    for edge in built.edges:
        source, target = built.endpoints(edge)
        members.setdefault(target, set()).add(source)
    assert partition(members.values()) == expected


@given(st.lists(property_values, min_size=2, max_size=2))
def test_sameness_and_order_keys_agree_with_equality(pair):
    left, right = (as_value_set(v) for v in pair)
    same = gcore_equals(left, right)
    assert (distinct_key(left) == distinct_key(right)) == same
    assert (order_key(left) == order_key(right)) == same
