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
from repro.fuzz import load_counterexample, replay_counterexample

CORPUS = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS.glob("*.json"))

LATTICE = [
    DEFAULT_CONFIG,
    ExecutionConfig.from_json({"planner": "naive"}),
    ExecutionConfig.from_json({"executor": "reference"}),
    NAIVE_CONFIG,
    ExecutionConfig.from_json({"parallelism": 4}),
]


def test_corpus_is_not_empty():
    assert len(CORPUS_FILES) >= 4


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

@pytest.mark.parametrize("config", LATTICE, ids=lambda c: c.describe())
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
        fuzz_engine.run(query, config=config)


@pytest.mark.parametrize("config", LATTICE, ids=lambda c: c.describe())
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
    """repro.eval.match (EdgeAtom.extend / extend_columnar).

    A self-loop pattern collapses source and target into one variable;
    when it arrived unbound, the executors bound the source and silently
    skipped the target equality, matching every edge. The social graph
    has no self-loops, so all of these must return zero rows.
    """
    result = fuzz_engine.run(query, config=config)
    assert list(result.rows) == []


def test_parallel_merge_survives_short_circuited_morsels(fuzz_engine):
    """repro.eval.parallel.merge_tables.

    A morsel whose intermediate table empties stops its atom sequence
    early and returns a chunk with fewer columns; merging used to index
    every chunk with the first payload's schema and crash with KeyError.
    """
    query = (
        "CONSTRUCT (x13) MATCH (n5:City)-/p6 <:has_creator>/->"
        "(n7:Person:Person)-[e8]->(n9)->(n11)"
    )
    parallel = ExecutionConfig.from_json({"parallelism": 4})
    expected = fuzz_engine.run(query, config=DEFAULT_CONFIG)
    actual = fuzz_engine.run(query, config=parallel)
    assert type(actual).__name__ == type(expected).__name__


def test_merge_tables_unit():
    """repro.eval.parallel.merge_tables on heterogeneous payloads."""
    from repro.eval.parallel import merge_tables, table_payload
    from repro.algebra.binding import BindingTable

    full = BindingTable(("a", "b"), [])
    full_rows = BindingTable.from_columns(
        ("a", "b"), ["a", "b"], {"a": [1, 2], "b": [10, 20]}, 2, dedup=False
    )
    short = BindingTable(("a",), [])  # short-circuited morsel: no "b"
    merged = merge_tables(
        [table_payload(short), table_payload(full_rows), table_payload(full)]
    )
    assert set(merged.variables) == {"a", "b"}
    assert len(merged) == 2
