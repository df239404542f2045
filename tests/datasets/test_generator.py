"""Tests for the deterministic SNB-like generator (``load("snb")``)."""

import hashlib

import pytest

from repro.datasets import load
from repro.model.io import dumps_graph
from repro.model.schema import snb_schema


def snb(persons, seed):
    return load("snb", scale=persons, seed=seed).graphs["snb"]


def digest(graph):
    return hashlib.sha256(dumps_graph(graph).encode()).hexdigest()[:16]


class TestDeterminism:
    def test_same_seed_same_graph(self):
        assert snb(40, 3) == snb(40, 3)

    def test_different_seed_different_graph(self):
        assert snb(40, 3) != snb(40, 4)

    def test_scale_is_the_person_count(self):
        assert len(snb(10, 1).nodes_with_label("Person")) == 10

    @pytest.mark.parametrize(
        "name, scale, seed, graph, expected",
        [
            ("snb", 40, 3, "snb", "785a7451e9e7ca9b"),
            ("snb", 1000, 42, "snb", "5093e651e5f25338"),
            ("company", None, None, "companies", "b812449ccee4086f"),
        ],
    )
    def test_generated_bytes_are_pinned(self, name, scale, seed, graph, expected):
        # Golden digests: the benchmark's result digests hang on every
        # generated byte, so the RNG call sequence must never move.
        assert digest(load(name, scale=scale, seed=seed).graphs[graph]) == expected


class TestShape:
    def test_scales_with_persons(self):
        small = snb(20, 1)
        large = snb(100, 1)
        assert large.order() > small.order()
        assert large.size() > small.size()

    def test_knows_ring_connectivity(self):
        g = snb(30, 2)
        knows = {g.endpoints(e) for e in g.edges_with_label("knows")}
        # The ring: every person knows the next one, both ways.
        for index in range(30):
            following = f"p{(index + 1) % 30}"
            assert (f"p{index}", following) in knows
            assert (following, f"p{index}") in knows

    def test_knows_edges_bidirectional(self):
        g = snb(25, 5)
        knows_pairs = {
            g.endpoints(e) for e in g.edges_with_label("knows")
        }
        for src, dst in knows_pairs:
            assert (dst, src) in knows_pairs

    def test_messages_reference_acquainted_authors(self):
        g = snb(25, 5)
        knows_pairs = {
            g.endpoints(e) for e in g.edges_with_label("knows")
        }
        for edge in g.edges_with_label("reply_of"):
            msg, parent = g.endpoints(edge)
            author = next(
                g.endpoints(e)[1]
                for e in g.out_edges(msg)
                if g.has_label(e, "has_creator")
            )
            parent_author = next(
                g.endpoints(e)[1]
                for e in g.out_edges(parent)
                if g.has_label(e, "has_creator")
            )
            if author != parent_author:
                assert (author, parent_author) in knows_pairs

    def test_schema_conformance(self):
        g = snb(50, 7)
        assert snb_schema().validate(g) == []

    def test_multi_valued_employers_exist(self):
        g = snb(200, 11)
        multi = [
            n for n in g.nodes_with_label("Person")
            if len(g.property(n, "employer")) > 1
        ]
        assert multi

    def test_unemployed_exist(self):
        g = snb(200, 11)
        unemployed = [
            n for n in g.nodes_with_label("Person")
            if not g.property(n, "employer")
        ]
        assert unemployed

    def test_company_graph_matches_employers(self):
        g = snb(30, 9)
        companies = load("company").graphs["companies"]
        company_names = {
            next(iter(companies.property(n, "name")))
            for n in companies.nodes
        }
        for person in g.nodes_with_label("Person"):
            for employer in g.property(person, "employer"):
                assert employer in company_names


class TestQueriesOverGenerated:
    def test_paper_queries_run_at_scale(self):
        from repro import GCoreEngine

        eng = GCoreEngine()
        load("snb", scale=60, seed=13).install(eng)
        load("company").install(eng, set_default=False)
        g = eng.run(
            "CONSTRUCT (c)<-[:worksAt]-(n) "
            "MATCH (c:Company) ON companies, (n:Person) ON snb "
            "WHERE c.name IN n.employer"
        )
        assert g.edges  # some employment edges exist

    def test_view_pipeline_at_scale(self):
        from repro import GCoreEngine

        eng = GCoreEngine()
        load("snb", scale=40, seed=17).install(eng)
        eng.run(
            "GRAPH VIEW msg AS (CONSTRUCT snb, (n)-[e]->(m) "
            "SET e.nr_messages := COUNT(*) "
            "MATCH (n)-[e:knows]->(m) "
            "OPTIONAL (n)<-[c1]-(m1:Post|Comment), (m1)-[:reply_of]-(m2), "
            "(m2:Post|Comment)-[c2]->(m) "
            "WHERE (c1:has_creator) AND (c2:has_creator))"
        )
        view = eng.graph("msg")
        for edge in view.edges_with_label("knows"):
            assert view.property(edge, "nr_messages") != frozenset()
