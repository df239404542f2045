"""Delta-debugging shrinker: smaller output, invariant preserved."""

from __future__ import annotations

from repro.fuzz import shrink_case


def _shrink(engine, text, predicate, params=None):
    statement = engine.parse(text)
    return shrink_case(text, dict(params or {}), statement, predicate)


def test_shrink_drops_unrelated_clauses(fuzz_engine):
    text = (
        "SELECT n.employer AS a1, m.name AS a2 "
        "MATCH (n:Person)-[e:knows]->(m:Person), (c:Company) "
        "WHERE n.age >= 21 ORDER BY a1 LIMIT 7"
    )

    def mentions_knows(candidate, params):
        return "[e:knows]" in candidate

    shrunk, params = _shrink(fuzz_engine, text, mentions_knows)
    assert "[e:knows]" in shrunk
    assert len(shrunk) < len(text)
    assert "(c:Company)" not in shrunk
    assert "LIMIT" not in shrunk
    # The result is still a well-formed statement.
    fuzz_engine.parse(shrunk)
    assert params == {}


def test_shrink_result_preserves_failing_predicate(fuzz_engine):
    text = (
        "CONSTRUCT (x) SET x.kind := 'c' "
        "MATCH (n:Person)-[e:knows]->(m) WHERE n.age > 18"
    )

    def is_construct(candidate, params):
        return candidate.startswith("CONSTRUCT")

    shrunk, _params = _shrink(fuzz_engine, text, is_construct)
    assert shrunk.startswith("CONSTRUCT")
    assert len(shrunk) <= len(text)
    fuzz_engine.parse(shrunk)


def test_shrink_prunes_unused_params(fuzz_engine):
    text = "SELECT n.name AS a MATCH (n:Person) WHERE n.age > $lo"
    params = {"lo": 21, "unused": "x"}

    def still_has_where(candidate, bound):
        return "WHERE" in candidate and "$lo" in candidate

    shrunk, kept = _shrink(fuzz_engine, text, still_has_where, params)
    assert "$lo" in shrunk
    assert "unused" not in kept
    assert kept.get("lo") == 21


def test_shrink_keeps_original_when_nothing_smaller_fails(fuzz_engine):
    text = "SELECT n.name AS a MATCH (n:Person)"

    def exact(candidate, params):
        return candidate == text

    shrunk, params = _shrink(fuzz_engine, text, exact)
    assert shrunk == text
    assert params == {}


def test_predicate_exceptions_count_as_non_reproducing(fuzz_engine):
    text = "SELECT n.name AS a MATCH (n:Person) WHERE n.age > 18"
    calls = []

    def flaky(candidate, params):
        calls.append(candidate)
        if candidate != text:
            raise RuntimeError("boom")
        return True

    shrunk, _params = _shrink(fuzz_engine, text, flaky)
    assert shrunk == text
    assert len(calls) > 1


def test_shrink_reaches_an_optional_blocks_where(fuzz_engine):
    text = (
        "SELECT n.firstName AS f MATCH (n:Person) "
        "OPTIONAL (n)-[:knows]->(m:Person) "
        "WHERE m.firstName = 'Alice' AND m.lastName = 'Doe'"
    )

    def needs_optional_alice(candidate, params):
        return "OPTIONAL" in candidate and "m.firstName = 'Alice'" in candidate

    shrunk, _params = _shrink(fuzz_engine, text, needs_optional_alice)
    assert needs_optional_alice(shrunk, {})
    assert "m.lastName = 'Doe'" not in shrunk


def test_shrink_reaches_inside_exists(fuzz_engine):
    text = (
        "SELECT n.firstName AS f MATCH (n:Person) WHERE EXISTS ("
        "CONSTRUCT () MATCH (n)-[:knows]->(m:Person) "
        "WHERE m.firstName = 'Alice' AND m.age > 3)"
    )

    def needs_exists_alice(candidate, params):
        return "EXISTS" in candidate and "m.firstName = 'Alice'" in candidate

    shrunk, _params = _shrink(fuzz_engine, text, needs_exists_alice)
    assert needs_exists_alice(shrunk, {})
    assert "m.age > 3" not in shrunk


def test_shrink_drops_a_group_by_key(fuzz_engine):
    text = (
        "SELECT n.firstName AS f, COUNT(*) AS c MATCH (n:Person) "
        "GROUP BY n.firstName, n.lastName + 1"
    )

    def needs_group_by(candidate, params):
        return "GROUP BY" in candidate

    shrunk, _params = _shrink(fuzz_engine, text, needs_group_by)
    assert len(fuzz_engine.parse(shrunk).body.head.group_by) == 1
