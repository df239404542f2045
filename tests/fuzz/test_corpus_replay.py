"""Replay every committed corpus counterexample; pin the fixed bugs.

Each JSON under ``tests/fuzz/corpus/`` records a divergence the
differential fuzzer found and that has since been *fixed*: replay must
come back clean (``replay_counterexample`` returns ``None``). Reverting
the corresponding fix makes exactly that entry fail — the regression
the corpus guards against.

The direct regression tests below pin each fix at the engine API level
too, naming the module that was repaired, so a corpus-format change can
never silently drop the coverage.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.config import DEFAULT_CONFIG, NAIVE_CONFIG, ExecutionConfig
from repro.errors import UnknownPathViewError
from repro.fuzz import load_counterexample, oracle, replay_counterexample

CORPUS = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS.glob("*.json"))

#: Every lattice point, then NAIVE_CONFIG standing for the oracle.
LATTICE = [
    DEFAULT_CONFIG,
    ExecutionConfig.from_json({"planner": "naive"}),
    NAIVE_CONFIG,
]


def _id(config):
    return "oracle" if config is NAIVE_CONFIG else config.describe()


def _run(engine, query, config):
    if config is NAIVE_CONFIG:
        return oracle.run(engine, query)
    return engine.run(query, config=config)


def test_corpus_is_not_empty():
    assert len(CORPUS_FILES) >= 6


def test_corpus_entries_record_lattice_points_and_the_oracle():
    for path in CORPUS_FILES:
        entry = load_counterexample(path)
        assert entry.expected["config"] == "oracle", path.name
        for raw in entry.configs:
            assert set(raw) == {"planner"}, path.name


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


# ---------------------------------------------------------------------------
# Direct regressions, one per fixed module
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("config", LATTICE, ids=_id)
def test_unknown_path_view_raises_on_every_lattice_point(
    config, fuzz_engine
):
    """repro.eval.match.evaluate_block / repro.eval.context.

    Name resolution used to be lazy: when an earlier atom emptied the
    binding table, the block short-circuited past the path atom and an
    unknown view executed "successfully" under some planners while the
    analyzer reported GC105. The eager pre-pass makes every lattice
    point raise.
    """
    query = "CONSTRUCT (a) MATCH (a:Comment:Person)-/<~wKnow>/->(b)"
    with pytest.raises(UnknownPathViewError):
        _run(fuzz_engine, query, config)


@pytest.mark.parametrize("config", LATTICE, ids=_id)
@pytest.mark.parametrize(
    "query",
    [
        "SELECT id(n) AS a MATCH (n)-[e:reply_of]-(n)",
        "SELECT id(n) AS a MATCH (n)-[e:reply_of]->(n)",
        "SELECT id(n) AS a MATCH (n)<-[e:reply_of]-(n)",
        "SELECT id(n) AS a MATCH (n)-[e:knows]-(n)",
    ],
)
def test_self_loop_pattern_binds_both_endpoints(config, query, fuzz_engine):
    """repro.eval.match (EdgeAtom.extend).

    A self-loop pattern collapses source and target into one variable;
    when it arrived unbound, the atom bound the source and silently
    skipped the target equality, matching every edge. The social graph
    has no self-loops, so all of these must return zero rows.
    """
    result = _run(fuzz_engine, query, config)
    assert list(result.rows) == []


@pytest.mark.parametrize("config", LATTICE, ids=_id)
@pytest.mark.parametrize("stored, tested", [("TRUE", "1"), ("1", "TRUE")])
def test_pattern_membership_keeps_true_and_one_apart(
    config, stored, tested, fuzz_engine
):
    """repro.eval.match._property_value_ok.

    A ``{k = v}`` pattern test is equality or membership; membership was
    Python's ``in``, under which ``TRUE`` is ``1``.
    """
    query = (
        f"GRAPH g AS (CONSTRUCT (n {{k := {stored}}}) MATCH (n:Person)) "
        f"SELECT n.firstName AS a MATCH (n {{k = {tested}}}) ON g"
    )
    assert list(_run(fuzz_engine, query, config).rows) == []


@pytest.mark.parametrize("config", LATTICE, ids=_id)
def test_empty_block_keeps_every_pattern_column(config, fuzz_engine):
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
    assert _run(fuzz_engine, query, config).is_empty()
