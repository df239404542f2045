"""Shared fixtures: the paper's toy instances wired into an engine."""

from __future__ import annotations

import pytest

from repro import GCoreEngine, GraphBuilder
from repro.datasets import load


@pytest.fixture(scope="session")
def paper():
    return load("paper")


@pytest.fixture(scope="session")
def social(paper):
    return paper.graphs["social_graph"]


@pytest.fixture(scope="session")
def companies(paper):
    return paper.graphs["company_graph"]


@pytest.fixture(scope="session")
def figure2():
    return load("figure2").graphs["figure2"]


@pytest.fixture()
def engine(paper):
    """An engine loaded with the guided-tour graphs and the orders table."""
    eng = GCoreEngine()
    paper.install(eng)
    return eng


@pytest.fixture()
def figure2_engine(figure2):
    eng = GCoreEngine()
    eng.register_graph("figure2", figure2, default=True)
    return eng


@pytest.fixture()
def tiny_graph():
    """A 4-node diamond used by small targeted tests.

    a -x-> b -y-> d,  a -x-> c -y-> d, plus a self-describing Tag node.
    """
    b = GraphBuilder(name="tiny")
    for node, labels in (
        ("a", ["Start"]),
        ("b", ["Mid"]),
        ("c", ["Mid", "Alt"]),
        ("d", ["End"]),
    ):
        b.add_node(node, labels=labels, properties={"name": node})
    b.add_edge("a", "b", edge_id="ab", labels=["x"], properties={"w": 1})
    b.add_edge("a", "c", edge_id="ac", labels=["x"], properties={"w": 2})
    b.add_edge("b", "d", edge_id="bd", labels=["y"], properties={"w": 3})
    b.add_edge("c", "d", edge_id="cd", labels=["y"], properties={"w": 4})
    return b.build()


@pytest.fixture()
def tiny_engine(tiny_graph):
    eng = GCoreEngine()
    eng.register_graph("tiny", tiny_graph, default=True)
    return eng
