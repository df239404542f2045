"""Replay every committed corpus counterexample; pin the fixed bugs.

Each JSON under ``tests/fuzz/corpus/`` records a divergence the
differential fuzzer found and that has since been *fixed*: replay must
come back clean (``replay_counterexample`` returns ``None``). Reverting
the corresponding fix makes exactly that entry fail — the regression
the corpus guards against.

Every entry replays a second time with each block forced to syntax
order: ``0006`` diverged only there. The direct regression tests below
pin each fix at the engine API level too, in the engine's order, in
syntax order and on the oracle, naming the module that was repaired, so
a corpus-format change can never silently drop the coverage.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from atom_orders import syntax_order_plans

from repro.errors import UnknownPathViewError
from repro.fuzz import load_counterexample, oracle, replay_counterexample

CORPUS = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS.glob("*.json"))

#: The engine, the engine with every block in syntax order, the oracle.
SIDES = ["engine", "syntax-order", "oracle"]


def _run(engine, query, side):
    if side == "oracle":
        return oracle.run(engine, query)
    if side == "syntax-order":
        with syntax_order_plans():
            return engine.run(query)
    return engine.run(query)


def test_corpus_is_not_empty():
    assert len(CORPUS_FILES) >= 6


def test_corpus_entries_record_the_oracle_and_no_configs():
    for path in CORPUS_FILES:
        entry = load_counterexample(path)
        assert entry.expected["config"] == "oracle", path.name
        assert "configs" not in json.loads(path.read_text()), path.name


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
)
def test_corpus_entry_replays_clean(path, fuzz_engine):
    entry = load_counterexample(path)
    fresh = replay_counterexample(entry, engine=fuzz_engine)
    assert fresh is None, (
        f"corpus entry {path.name} reproduces again "
        f"(kind {fresh.kind}):\n{fresh.to_json()}"
    )


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
)
def test_corpus_entry_replays_clean_in_syntax_order(path, fuzz_engine):
    entry = load_counterexample(path)
    with syntax_order_plans():
        fresh = replay_counterexample(entry, engine=fuzz_engine)
    assert fresh is None, (
        f"corpus entry {path.name} reproduces in syntax order "
        f"(kind {fresh.kind}):\n{fresh.to_json()}"
    )


# ---------------------------------------------------------------------------
# Direct regressions, one per fixed module
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("side", SIDES)
def test_unknown_path_view_raises_in_every_run(side, fuzz_engine):
    """repro.eval.match.evaluate_block / repro.eval.context.

    Name resolution used to be lazy: when an earlier atom emptied the
    binding table, the block short-circuited past the path atom and an
    unknown view executed "successfully" under some planners while the
    analyzer reported GC105. The eager pre-pass makes every atom order
    raise.
    """
    query = "CONSTRUCT (a) MATCH (a:Comment:Person)-/<~wKnow>/->(b)"
    with pytest.raises(UnknownPathViewError):
        _run(fuzz_engine, query, side)


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize(
    "query",
    [
        "SELECT id(n) AS a MATCH (n)-[e:reply_of]-(n)",
        "SELECT id(n) AS a MATCH (n)-[e:reply_of]->(n)",
        "SELECT id(n) AS a MATCH (n)<-[e:reply_of]-(n)",
        "SELECT id(n) AS a MATCH (n)-[e:knows]-(n)",
    ],
)
def test_self_loop_pattern_binds_both_endpoints(side, query, fuzz_engine):
    """repro.eval.match (EdgeAtom.extend).

    A self-loop pattern collapses source and target into one variable;
    when it arrived unbound, the atom bound the source and silently
    skipped the target equality, matching every edge. The social graph
    has no self-loops, so all of these must return zero rows.
    """
    result = _run(fuzz_engine, query, side)
    assert list(result.rows) == []


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("stored, tested", [("TRUE", "1"), ("1", "TRUE")])
def test_pattern_membership_keeps_true_and_one_apart(
    side, stored, tested, fuzz_engine
):
    """repro.eval.kernels.property_value_ok (was repro.eval.match).

    A ``{k = v}`` pattern test is equality or membership; membership was
    Python's ``in``, under which ``TRUE`` is ``1``.
    """
    query = (
        f"GRAPH g AS (CONSTRUCT (n {{k := {stored}}}) MATCH (n:Person)) "
        f"SELECT n.firstName AS a MATCH (n {{k = {tested}}}) ON g"
    )
    assert list(_run(fuzz_engine, query, side).rows) == []


@pytest.mark.parametrize("side", SIDES)
def test_empty_block_keeps_every_pattern_column(side, fuzz_engine):
    """repro.eval.match.evaluate_block.

    A block whose table emptied before its last atom ran lost the later
    atoms' variables as columns, and CONSTRUCT groups an unbound
    variable by every column: an OPTIONAL that matched nothing then
    built one node per row under one atom order and none under another.
    """
    query = (
        "CONSTRUCT (x) MATCH (n) OPTIONAL (n:Comment)-[e]->(n)-[f]->()-[g]->(m) "
        "WHERE (n:City)"
    )
    assert _run(fuzz_engine, query, side).is_empty()


@pytest.mark.parametrize("side", SIDES)
def test_anonymous_path_in_a_path_view_searches_like_a_named_one(side, fuzz_engine):
    """repro.eval.pathviews._name_walk_chain.

    An anonymous path pattern in a view's walk pattern was given a
    hidden name but kept reachability mode, which binds no walk, and
    materialization failed with a KeyError on that name. It now
    searches like the named form and contributes the same segments.
    """
    query = (
        "PATH u = (a)-[:knows]->(b) PATH w = (x)-/{}<~u ~u>/->(y) "
        "SELECT n.firstName AS a, m.firstName AS b "
        "MATCH (n:Person)-/p<~w>/->(m:Person) ORDER BY a, b"
    )
    anonymous = _run(fuzz_engine, query.format(""), side)
    assert list(anonymous.rows)
    assert anonymous.rows == _run(fuzz_engine, query.format("q"), side).rows


@pytest.mark.parametrize("side", SIDES)
def test_unread_walk_with_an_anonymous_endpoint_keeps_every_row(side, fuzz_engine):
    """repro.eval.match.PathAtom.extend.

    A SHORTEST walk the statement never reads runs a search that binds
    costs, not walks. With an anonymous endpoint, whose column is dropped
    at block end, the walk alone kept apart the rows of two sources with
    one target, so the search runs only when both endpoints are named.
    """
    query = "SELECT n2.name AS a1{} MATCH ()-/p1 <:knows>/->(n2)"
    reading = _run(fuzz_engine, query.format(", p1 AS w"), side).rows
    assert len(reading) == 10
    assert _run(fuzz_engine, query.format(""), side).rows == tuple(row[:-1] for row in reading)


@pytest.mark.parametrize("side", SIDES)
def test_shared_cost_variable_joins_its_patterns(side, fuzz_engine):
    """repro.eval.match.PathAtom.extend.

    Two path patterns naming one COST variable bind it once: the second
    SHORTEST pattern kept every walk whatever cost the first had bound.
    """
    query = (
        "SELECT c, length(p) AS first, length(q) AS second "
        "MATCH (n:Person)-/p<:knows*> COST c/->(m:Person), "
        "(n)-[:knows]->(x)-/q<:knows*> COST c/->(m)"
    )
    rows = _run(fuzz_engine, query, side).rows
    assert rows and all(cost == first == second for cost, first, second in rows)


@pytest.mark.parametrize("side", SIDES)
def test_a_test_reading_another_variable_holds_in_every_pattern_order(side, fuzz_engine):
    """repro.eval.pushdown.PushdownPlan and repro.fuzz.oracle.match_block.

    A ``{k = v}`` test whose value reads another variable saw that
    variable only where the atom order had bound it already, so listing
    the patterns in the other order matched nothing. Every test is now a
    conjunct of its block, applied to the complete binding.
    """
    rows = [
        sorted(_run(fuzz_engine, f"SELECT m.firstName AS a, n.firstName AS b MATCH {p}", side).rows)
        for p in (
            "(m:Person {firstName = n.firstName}), (n:Person)",
            "(n:Person), (m:Person {firstName = n.firstName})",
        )
    ]
    assert len(rows[0]) == 5 and rows[0] == rows[1]
