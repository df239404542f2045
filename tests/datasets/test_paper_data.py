"""Sanity checks of the reconstructed paper instances (``load("paper")``,
``load("figure2")``)."""

import hashlib

from repro.datasets import load
from repro.model.io import dumps_graph
from repro.model.schema import snb_schema


def digest(graph):
    return hashlib.sha256(dumps_graph(graph).encode()).hexdigest()[:16]


class TestSocialGraph:
    def test_persons(self, social):
        persons = social.nodes_with_label("Person")
        assert persons == {"john", "alice", "celine", "peter", "frank"}

    def test_employers(self, social):
        assert social.property("john", "employer") == {"Acme"}
        assert social.property("alice", "employer") == {"Acme"}
        assert social.property("celine", "employer") == {"HAL"}
        assert social.property("peter", "employer") == frozenset()
        assert social.property("frank", "employer") == {"CWI", "MIT"}

    def test_everyone_in_houston(self, social):
        for person in social.nodes_with_label("Person"):
            located = [
                social.endpoints(e)[1]
                for e in social.out_edges(person)
                if social.has_label(e, "isLocatedIn")
            ]
            assert located == ["houston"]

    def test_knows_edges_are_bidirectional_pairs(self, social):
        knows = social.edges_with_label("knows")
        pairs = {social.endpoints(e) for e in knows}
        for src, dst in pairs:
            assert (dst, src) in pairs  # Figure 4's caption

    def test_wagner_lovers(self, social):
        lovers = {
            social.endpoints(e)[0]
            for e in social.edges_with_label("hasInterest")
        }
        assert lovers == {"celine", "frank"}

    def test_johns_friends_do_not_like_wagner(self, social):
        johns_friends = {
            social.endpoints(e)[1]
            for e in social.out_edges("john")
            if social.has_label(e, "knows")
        }
        lovers = {
            social.endpoints(e)[0]
            for e in social.edges_with_label("hasInterest")
        }
        assert not (johns_friends & lovers)

    def test_message_threads_alternate(self, social):
        for edge in social.edges_with_label("reply_of"):
            msg, parent = social.endpoints(edge)
            assert social.labels(msg) & {"Comment"}
            assert social.labels(parent) & {"Post", "Comment"}

    def test_schema_conformance(self, social):
        assert snb_schema().validate(social) == []

    def test_no_stored_paths_in_base(self, social):
        assert social.paths == frozenset()


class TestCompanyGraphAndOrders:
    def test_companies(self, companies):
        names = {
            next(iter(companies.property(n, "name")))
            for n in companies.nodes
        }
        assert names == {"Acme", "HAL", "CWI", "MIT"}

    def test_companies_unconnected(self, companies):
        assert companies.edges == frozenset()

    def test_orders_shape(self):
        t = load("paper").tables["orders"]
        assert t.columns == ("custName", "prodCode")
        assert len(t) == 6

    def test_determinism(self):
        assert load("paper").graphs == load("paper").graphs
        assert load("figure2").graphs == load("figure2").graphs

    def test_bytes_are_pinned(self):
        paper = load("paper").graphs
        assert digest(paper["social_graph"]) == "acf9b105de470c84"
        assert digest(paper["company_graph"]) == "8467b1c532f17f98"
        assert digest(load("figure2").graphs["figure2"]) == "64bb64ac7abab701"
