"""Generator quality gates: parseable, mostly analyzer-clean, grounded."""

from __future__ import annotations

import pytest

from repro.fuzz import QueryGenerator, Vocabulary


@pytest.fixture(scope="module")
def generator(fuzz_engine):
    return QueryGenerator(Vocabulary.from_engine(fuzz_engine))


def test_every_statement_parses_back_to_its_ast(generator, fuzz_engine):
    """The pretty-printed text round-trips: parse(text) == statement.

    This is what lets the shrinker mutate ASTs and re-print candidates
    without ever producing unparseable intermediate queries.
    """
    for seed in range(60):
        case = generator.statement(seed)
        assert fuzz_engine.parse(case.text) == case.statement


def test_most_statements_are_analyzer_clean(generator, fuzz_engine):
    """The grammar targets analyzer-clean output (fault injection aside).

    The weighted fault productions deliberately emit a few percent of
    known-bad names to exercise the error-parity lane; everything else
    must pass static analysis or the differential loop would starve.
    """
    clean = sum(
        1
        for seed in range(150)
        if fuzz_engine.analyze(generator.statement(seed).text).ok
    )
    assert clean >= 120


def test_params_are_referenced_by_the_text(generator):
    for seed in range(80):
        case = generator.statement(seed)
        for name in case.params:
            assert f"${name}" in case.text


def test_seeds_cover_multiple_statement_shapes(generator):
    texts = [generator.statement(seed).text for seed in range(120)]
    assert any(t.startswith("SELECT") for t in texts)
    assert any(t.startswith("CONSTRUCT") for t in texts)
    assert any("MATCH" in t for t in texts)
    assert any("-/" in t for t in texts), "no path patterns generated"
    assert any("WHERE" in t for t in texts)


def test_anchored_path_targets_are_searched_backward(generator, fuzz_engine):
    """Some statements anchor a path atom's target alone, so the cost
    planner binds the target first and searches backward from it."""
    backward = 0
    for seed in range(300):
        text = generator.statement(seed).text
        if fuzz_engine.analyze(text).ok:
            backward += ",backward" in fuzz_engine.explain(text)
    assert backward >= 5
