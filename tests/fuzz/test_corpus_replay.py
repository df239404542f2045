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
    """repro.eval.match._property_value_ok.

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
