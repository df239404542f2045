"""JSON round-trip tests for graph serialization."""

import io

import pytest

from repro.datasets import load
from repro.errors import GraphModelError
from repro.model.builder import GraphBuilder
from repro.model.io import (
    dump_graph,
    dumps_graph,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    loads_graph,
)
from repro.model.values import Date


class TestRoundTrip:
    def test_figure2_round_trips(self):
        g = load("figure2").graphs["figure2"]
        assert loads_graph(dumps_graph(g)) == g

    def test_social_graph_round_trips(self):
        g = load("paper").graphs["social_graph"]
        assert loads_graph(dumps_graph(g)) == g

    def test_name_preserved(self):
        g = load("paper").graphs["social_graph"]
        assert loads_graph(dumps_graph(g)).name == "social_graph"

    def test_date_values(self):
        b = GraphBuilder()
        b.add_node("n", since=Date(2014, 12, 1))
        g = b.build()
        restored = loads_graph(dumps_graph(g))
        assert restored.property("n", "since") == {Date(2014, 12, 1)}

    def test_multivalued_property(self):
        b = GraphBuilder()
        b.add_node("n", employer={"CWI", "MIT"})
        restored = loads_graph(dumps_graph(b.build()))
        assert restored.property("n", "employer") == {"CWI", "MIT"}

    def test_stored_paths(self):
        g = load("figure2").graphs["figure2"]
        restored = loads_graph(dumps_graph(g))
        assert restored.path_sequence(301) == (105, 207, 103, 202, 102)
        assert restored.labels(301) == {"toWagner"}
        assert restored.property(301, "trust") == {0.95}

    def test_file_object_round_trip(self):
        g = load("figure2").graphs["figure2"]
        buffer = io.StringIO()
        dump_graph(g, buffer)
        buffer.seek(0)
        assert load_graph(buffer) == g

    def test_file_path_round_trip(self, tmp_path):
        g = load("paper").graphs["social_graph"]
        target = str(tmp_path / "g.json")
        dump_graph(g, target)
        assert load_graph(target) == g


class TestDictFormat:
    def test_dict_shape(self):
        data = graph_to_dict(load("figure2").graphs["figure2"])
        assert set(data) == {"name", "nodes", "edges", "paths"}
        node = data["nodes"][0]
        assert set(node) >= {"id", "labels", "properties"}
        edge = data["edges"][0]
        assert set(edge) >= {"id", "source", "target"}

    def test_deterministic_output(self):
        first, second = (load("paper").graphs["social_graph"] for _ in range(2))
        assert first is not second
        assert dumps_graph(first) == dumps_graph(second)

    def test_unknown_scalar_encoding_rejected(self):
        with pytest.raises(GraphModelError):
            graph_from_dict(
                {
                    "nodes": [
                        {"id": "n", "labels": [],
                         "properties": {"k": [{"$mystery": 1}]}}
                    ]
                }
            )

    def test_empty_graph(self):
        assert loads_graph(dumps_graph(GraphBuilder().build())).is_empty()
