"""The mutation lane: malformed statements fail predictably.

Each generated statement of seeds 0-2799 is mutated three ways, one token
at a time: deleted, duplicated, and swapped with its right neighbour, at
token positions drawn from ``random.Random(seed)``. Every mutant goes
through ``parse_statement``, ``engine.analyze`` and, when it parses,
``engine.run``. A mutant may fail, but only as a G-CORE error with a
source position, and the error must name the fault where it is rather
than a later token: "unexpected trailing input" at an edge connector
(``-[`` or ``<-[``) is allowed only when the text before it is a whole
statement by itself. Analysis never raises, and a mutant that parses
prints back to itself through the pretty-printer.
"""

from __future__ import annotations

import random

from repro.errors import GCoreError, LexerError, ParseError
from repro.fuzz import QueryGenerator, Vocabulary
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_statement
from repro.lang.pretty import pretty_statement

SEEDS = range(2800)


def _spans(text):
    """The ``(start, end)`` character span of each token of *text*."""
    tokens = tokenize(text)
    line_starts = [0]
    for line in text.split("\n"):
        line_starts.append(line_starts[-1] + len(line) + 1)
    starts = [line_starts[t.line - 1] + t.column - 1 for t in tokens]
    return [
        (start, start + len(text[start:following].rstrip()))
        for start, following in zip(starts, starts[1:])
    ]


def mutants(text, seed):
    """The deletion, duplication and swap mutants of *text* for *seed*."""
    rng = random.Random(seed)
    spans = _spans(text)
    start, end = spans[rng.randrange(len(spans))]
    yield text[:start] + text[end:]
    start, end = spans[rng.randrange(len(spans))]
    yield text[:end] + " " + text[start:end] + text[end:]
    index = rng.randrange(len(spans) - 1)
    (a, b), (c, d) = spans[index], spans[index + 1]
    yield text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]


def _parses(text):
    try:
        parse_statement(text)
    except (LexerError, ParseError):
        return False
    return True


def _trailing_at_connector(text, error):
    """True iff *error* reports trailing input at a ``-[`` or ``<-[``
    whose preceding text is not a whole statement by itself."""
    if "unexpected trailing input" not in str(error):
        return False
    tokens = tokenize(text)
    at = next(
        i for i, t in enumerate(tokens) if (t.line, t.column) == (error.line, error.column)
    )
    kinds = [t.kind for t in tokens[at : at + 3]]
    if kinds[:2] != ["DASH", "LBRACKET"] and kinds != ["LT", "DASH", "LBRACKET"]:
        return False
    offset = _spans(text)[at][0]
    return not _parses(text[:offset])


def test_mutants_fail_predictably(fuzz_engine):
    generator = QueryGenerator(Vocabulary.from_engine(fuzz_engine))
    failures = []
    for seed in SEEDS:
        case = generator.statement(seed)
        for text in mutants(case.text, seed):
            try:
                statement = parse_statement(text)
            except (LexerError, ParseError) as error:
                if error.line < 1:
                    failures.append(("no position", text, error))
                if _trailing_at_connector(text, error):
                    failures.append(("trailing input at a connector", text, error))
                statement = None
            try:
                fuzz_engine.analyze(text)
            except Exception as error:  # analysis never raises
                failures.append(("analyze raised", text, error))
            if statement is None:
                continue
            printed = pretty_statement(statement)
            if parse_statement(printed) != statement:
                failures.append(("round trip", text, printed))
            try:
                fuzz_engine.run(text, case.params)
            except GCoreError:
                pass
            except Exception as error:  # anything but a G-CORE error
                failures.append(("run raised", text, repr(error)))
    assert not failures, "\n".join(map(repr, failures[:10]))
