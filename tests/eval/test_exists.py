"""EXISTS subqueries — explicit and implicit (Section 3, Appendix A.2)."""

from repro.fuzz import oracle



class TestImplicitExistential:
    def test_colocated_pattern(self, engine):
        table = engine.bindings(
            "MATCH (n:Person), (m:Person) "
            "WHERE (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)"
        )
        # all 5 persons live in Houston: 25 pairs (homomorphism allows n=m)
        assert len(table) == 25

    def test_correlated_on_bound_vars(self, engine):
        table = engine.bindings(
            "MATCH (n:Person) WHERE (n)-[:hasInterest]->(:Tag {name='Wagner'})"
        )
        assert {row["n"] for row in table} == {"celine", "frank"}

    def test_negation(self, engine):
        table = engine.bindings(
            "MATCH (n:Person) WHERE NOT (n)-[:hasInterest]->()"
        )
        assert {row["n"] for row in table} == {"john", "alice", "peter"}


class TestExplicitExists:
    def test_equivalent_to_implicit(self, engine):
        implicit = engine.bindings(
            "MATCH (n:Person), (m:Person) "
            "WHERE (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)"
        )
        explicit = engine.bindings(
            "MATCH (n:Person), (m:Person) WHERE EXISTS ("
            "CONSTRUCT () MATCH (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m))"
        )
        assert implicit == explicit

    def test_uncorrelated_exists_true(self, engine):
        table = engine.bindings(
            "MATCH (n:Tag) WHERE EXISTS (CONSTRUCT (p) MATCH (p:Person))"
        )
        assert len(table) == 1

    def test_uncorrelated_exists_false(self, engine):
        table = engine.bindings(
            "MATCH (n:Tag) WHERE EXISTS (CONSTRUCT (p) MATCH (p:Ghost))"
        )
        assert len(table) == 0

    def test_exists_on_other_graph(self, engine):
        table = engine.bindings(
            "MATCH (n:Person {employer=e}) WHERE EXISTS ("
            "CONSTRUCT (c) MATCH (c:Company) ON company_graph "
            "WHERE c.name = e)"
        )
        assert {row["n"] for row in table} == {
            "john", "alice", "celine", "frank",
        }

    def test_nested_exists(self, engine):
        table = engine.bindings(
            "MATCH (n:Person) WHERE EXISTS ("
            "CONSTRUCT (m) MATCH (m:Person) WHERE EXISTS ("
            "CONSTRUCT (t) MATCH (m)-[:hasInterest]->(t)) "
            "AND (n)-[:knows]->(m))"
        )
        # persons who know someone with an interest: peter (knows celine,
        # frank), celine & frank (know each other), john? john knows
        # alice+peter, neither has interests -> john excluded
        assert {row["n"] for row in table} == {"peter", "celine", "frank"}


class TestOuterVariablesInPatternTests:
    """A pattern predicate's ``{k = v}`` test reads the enclosing row,
    as the EXISTS subquery and the joined MATCH it abbreviates do."""

    SELECT = "SELECT n.firstName AS f, x.firstName AS g "
    FORMS = (
        "MATCH (n:Person), (x:Person) "
        "WHERE (n)-[:knows]->(:Person {firstName = x.firstName})",
        "MATCH (n:Person), (x:Person) WHERE EXISTS (CONSTRUCT () "
        "MATCH (n)-[:knows]->(m:Person) WHERE m.firstName = x.firstName)",
        "MATCH (n:Person)-[:knows]->(m:Person), (x:Person) "
        "WHERE m.firstName = x.firstName",
    )

    @staticmethod
    def _pairs(result):
        return sorted(result.rows)

    def test_three_forms_agree_on_engine_and_oracle(self, engine):
        pattern_form = self.SELECT + self.FORMS[0]
        expected = self._pairs(engine.run(self.SELECT + self.FORMS[2]))
        assert len(expected) == 10
        for form in self.FORMS:
            assert self._pairs(engine.run(self.SELECT + form)) == expected
        assert self._pairs(oracle.run(engine, pattern_form)) == expected

    def test_outer_anonymous_elements_stay_outside_the_predicate(self, engine):
        # Both blocks name their first anonymous element alike; the
        # outer one must not bind the predicate's.
        located = "SELECT n.firstName AS f MATCH (n:Person)-[:isLocatedIn]->() "
        forms = (
            "WHERE (n)-[:hasInterest]->()",
            "WHERE EXISTS (CONSTRUCT () MATCH (n)-[:hasInterest]->())",
        )
        for form in forms:
            for run in (engine.run, lambda q: oracle.run(engine, q)):
                assert sorted(run(located + form).rows) == [
                    ("Celine",), ("Frank",)
                ]
