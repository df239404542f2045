"""Differential-harness units: encoding, policies, verdicts, configs."""

from __future__ import annotations

import pytest

from repro.config import DEFAULT_CONFIG, ExecutionConfig
from repro.errors import GCoreError
from repro.fuzz import (
    Counterexample,
    DifferentialTester,
    Outcome,
    decode_value,
    encode_value,
    load_counterexample,
    parse_configs,
    run_case,
)
from repro.fuzz.differential import (
    CONFIG_PRESETS,
    DEFAULT_LATTICE,
    TablePolicy,
    _canonical_graph,
    diff_outcomes,
    rows_sorted,
    table_policy,
)
from repro.model.values import Date


# ---------------------------------------------------------------------------
# Value encoding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "value",
    [
        True,
        False,
        0,
        1,
        -3.5,
        "text",
        None,
        Date(2014, 12, 1),
        frozenset({1, 2, 3}),
        frozenset({"a", True, 2}),
        [1, "x", Date(1999, 1, 17)],
    ],
)
def test_encode_decode_round_trip(value):
    encoded = encode_value(value)
    decoded = decode_value(encoded)
    if isinstance(value, (list, tuple)):
        assert list(decoded) == list(value)
    elif isinstance(value, frozenset):
        assert frozenset(decoded) == value
    else:
        assert decoded == value
        assert type(decoded) is type(value)


def test_encoding_distinguishes_bool_from_int():
    assert encode_value(True) != encode_value(1)
    assert encode_value(False) != encode_value(0)


def test_encode_is_idempotent():
    once = encode_value(Date(2014, 12, 1))
    assert encode_value(once) == once


# ---------------------------------------------------------------------------
# Counterexample round-trip
# ---------------------------------------------------------------------------

def test_counterexample_json_round_trip(tmp_path):
    entry = Counterexample(
        seed=42,
        query="SELECT 1 AS a MATCH (n)",
        params={"d": encode_value(Date(2002, 10, 1))},
        configs=[DEFAULT_CONFIG.to_json(), ExecutionConfig(planner="naive").to_json()],
        expected={"config": "oracle", "outcome": {"kind": "table"}},
        actual={"config": "default", "outcome": {"kind": "error"}},
        kind="kind-mismatch",
        note="synthetic",
    )
    path = tmp_path / "ce.json"
    entry.save(path)
    loaded = load_counterexample(path)
    assert loaded == entry
    assert loaded.decoded_params() == {"d": Date(2002, 10, 1)}


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_parse_configs_accepts_presets_and_specs():
    configs = parse_configs(["default", "planner=naive"])
    names = [name for name, _ in configs]
    assert names[0] == "default"
    assert dict(configs)[names[1]].planner == "naive"


@pytest.mark.parametrize("spec", ["nonsense=1", "parallelism=4", "parallel"])
def test_parse_configs_rejects_unknown_axis(spec):
    with pytest.raises(GCoreError):
        parse_configs([spec])


# ---------------------------------------------------------------------------
# Table policies and verdicts
# ---------------------------------------------------------------------------

def test_table_policy_limit_is_count_only(fuzz_engine):
    statement = fuzz_engine.parse(
        "SELECT n.name AS a MATCH (n:Person) LIMIT 3"
    )
    assert table_policy(statement).count_only


def test_table_policy_projected_order_key(fuzz_engine):
    statement = fuzz_engine.parse(
        "SELECT n.name AS a MATCH (n:Person) ORDER BY a DESC"
    )
    policy = table_policy(statement)
    assert policy.order_spec == ((0, False),)


def test_rows_sorted():
    spec = ((0, True),)
    assert rows_sorted([[1], [2], [2], [9]], spec)
    assert not rows_sorted([[2], [1]], spec)
    assert rows_sorted([[9], [2], [1]], ((0, False),))


def test_diff_outcomes_multiset_rows():
    policy = TablePolicy(count_only=False, order_spec=())
    a = Outcome("table", {"columns": ["a"], "rows": [[1], [2]]})
    b = Outcome("table", {"columns": ["a"], "rows": [[2], [1]]})
    c = Outcome("table", {"columns": ["a"], "rows": [[2], [2]]})
    assert diff_outcomes(a, b, policy) is None
    assert diff_outcomes(a, c, policy) == "rows"


def test_diff_outcomes_crash_dominates():
    policy = TablePolicy(count_only=False, order_spec=())
    ok = Outcome("table", {"columns": [], "rows": []})
    crash = Outcome("crash", {"error": "KeyError", "message": "p6"})
    assert diff_outcomes(ok, crash, policy) == "crash"


# ---------------------------------------------------------------------------
# Graph canonicalization
# ---------------------------------------------------------------------------

def test_fresh_construct_ids_are_canonicalized(fuzz_engine):
    """Two runs of one ungrouped CONSTRUCT draw different fresh ids from
    the engine's shared counter; canonical forms must still agree."""
    text = "CONSTRUCT (x) MATCH (n:Tag)"
    first = run_case(fuzz_engine, text, {}, DEFAULT_CONFIG)
    second = run_case(fuzz_engine, text, {}, DEFAULT_CONFIG)
    assert first.kind == "graph" == second.kind
    assert first.payload == second.payload


def _constructed(first, second, third, edge):
    """Two fresh A nodes (one with an edge to a base node) and a fresh B."""
    return {
        "nodes": [
            {"id": first, "labels": ["A"]},
            {"id": second, "labels": ["A"]},
            {"id": third, "labels": ["B"]},
            {"id": "stable", "labels": []},
        ],
        "edges": [{"id": edge, "source": second, "target": "stable"}],
        "paths": [],
    }


def test_canonical_graph_ignores_allocation_order():
    """Fresh ids follow binding enumeration, which a different plan
    permutes: the canonical form depends on structure only."""
    canon = _canonical_graph(_constructed("_n9", "_n12", "_n13", "_e4"))
    permuted = _canonical_graph(_constructed("_n31", "_n7", "_n2", "_e40"))
    assert canon == permuted
    ids = [node["id"] for node in canon["nodes"]]
    assert "stable" in ids and len(set(ids)) == 4
    (edge,) = canon["edges"]
    assert edge["target"] == "stable" and edge["source"] in ids
    assert all(i == "stable" or i.startswith("_#") for i in ids)


def test_canonical_graph_still_tells_structures_apart():
    base = _constructed("_n1", "_n2", "_n3", "_e1")
    moved = _constructed("_n1", "_n2", "_n3", "_e1")
    moved["edges"][0]["source"] = "_n3"  # the edge now leaves the B node
    assert _canonical_graph(base) != _canonical_graph(moved)
    twins = {"nodes": [{"id": "_n1", "labels": []}, {"id": "_n2", "labels": []}],
             "edges": [], "paths": []}
    single = {"nodes": [{"id": "_n1", "labels": []}], "edges": [], "paths": []}
    assert _canonical_graph(twins) != _canonical_graph(single)  # a multiset


#: Seed 2608 of the generator before its grammar grew edge binds.
SEED_2608 = (
    "CONSTRUCT (n1)-[:has_creator]->(n3) WHEN n1.name >= 4.5 XOR "
    "CASE WHEN $p0 < $p1 THEN 1 ELSE 0 END = 1, "
    "(x4 {content := n1.content})-[:has_creator]->"
    "(x5 GROUP n1.firstName:Comment {employer := labels(n3)}) "
    "MATCH ()-[:reply_of]->(n1)-[e2]->(n3:Person)"
)


def test_seed_2608_plan_order_is_not_a_divergence(fuzz_engine):
    """The cost plan enumerates this CONSTRUCT's bindings in another
    order than the syntax-order oracle, so its fresh ids are allocated
    in another order — the same graph all the same."""
    tester = DifferentialTester(engine=fuzz_engine)
    params = {"p0": 7, "p1": Date(2014, 12, 1)}
    assert tester.check_text(SEED_2608, params, seed=2608) is None
    assert tester.stats["executed"] == 1


# ---------------------------------------------------------------------------
# Tester behaviour
# ---------------------------------------------------------------------------

def test_tester_passes_clean_query(fuzz_engine):
    tester = DifferentialTester(engine=fuzz_engine)
    assert tester.check_text(
        "SELECT n.firstName AS a MATCH (n:Person) ORDER BY n.firstName",
        {},
        seed=0,
    ) is None
    assert tester.stats["executed"] == 1


def test_tester_skips_statements_with_hard_analyzer_errors(fuzz_engine):
    tester = DifferentialTester(engine=fuzz_engine)
    assert tester.check_text("SELECT 1 +", {}, seed=0) is None
    assert tester.stats["skipped"] == 1
    assert tester.stats["executed"] == 0


def test_default_lattice_is_the_two_planners():
    assert [CONFIG_PRESETS[name] for name in DEFAULT_LATTICE] == [
        ExecutionConfig(planner="cost"),
        ExecutionConfig(planner="naive"),
    ]


def test_tester_error_parity_lane(fuzz_engine):
    """GC101-class analyzer verdicts must hold on every lattice point."""
    tester = DifferentialTester(engine=fuzz_engine)
    result = tester.check_text(
        "SELECT 1 AS a MATCH (n) ON missing_graph", {}, seed=0
    )
    assert result is None
    assert tester.stats["parity_checked"] == 1
