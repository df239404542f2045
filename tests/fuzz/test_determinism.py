"""Generator determinism: same (seed, weights) -> byte-identical stream.

The generator draws randomness exclusively through
``random.Random(seed).random()``/``randrange()`` — both documented to
produce identical sequences on every CPython the repo supports (3.9
through 3.13) — and iterates only sorted vocabulary pools, so the
emitted statement stream is a pure function of (seed, weights). The
pinned digest below is the cross-version contract: if it moves, either
the grammar changed (fine — re-pin, and say so in the commit) or
iteration-order nondeterminism crept in (a bug).
"""

from __future__ import annotations

import hashlib

from repro.fuzz import DEFAULT_WEIGHTS, QueryGenerator, Vocabulary

# sha256 of "\n".join(statement text for seeds 0..199), utf-8.
PINNED_SHA256 = (
    "a9fa5f008246149a7d6e0467e55ba6421d242a7d973644add8b22a4b81a6f202"
)


def _generator(fuzz_engine, weights=None):
    return QueryGenerator(Vocabulary.from_engine(fuzz_engine), weights)


def test_same_seed_same_statement(fuzz_engine):
    first = _generator(fuzz_engine)
    second = _generator(fuzz_engine)
    for seed in range(40):
        a = first.statement(seed)
        b = second.statement(seed)
        assert a.text == b.text
        assert a.params == b.params


def test_stream_matches_per_seed_statements(fuzz_engine):
    gen = _generator(fuzz_engine)
    stream = list(gen.stream(start=7, count=20))
    for offset, case in enumerate(stream):
        assert case.seed == 7 + offset
        assert case.text == gen.statement(case.seed).text


def test_explicit_default_weights_change_nothing(fuzz_engine):
    base = _generator(fuzz_engine)
    explicit = _generator(fuzz_engine, dict(DEFAULT_WEIGHTS))
    for seed in range(20):
        assert base.statement(seed).text == explicit.statement(seed).text


def test_first_200_statements_hash_is_pinned(fuzz_engine):
    gen = _generator(fuzz_engine)
    blob = "\n".join(
        gen.statement(seed).text for seed in range(200)
    ).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == PINNED_SHA256
