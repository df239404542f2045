"""Unit tests for the NP-hard simple-path baseline."""

from repro.lang import ast
from repro.model.builder import GraphBuilder
from repro.paths.automaton import compile_regex
from repro.paths.product import PathFinder
from repro.paths.simplepaths import (
    count_simple_paths,
    enumerate_simple_paths,
    simple_path_exists,
)

KSTAR = compile_regex(ast.RStar(ast.RLabel("k")))


def ladder(rungs):
    """A graph with 2^rungs simple s->t paths (exponential blow-up)."""
    b = GraphBuilder()
    b.add_node("n0")
    previous = "n0"
    for i in range(rungs):
        top, bottom, merge = f"t{i}", f"b{i}", f"n{i+1}"
        b.add_node(top)
        b.add_node(bottom)
        b.add_node(merge)
        b.add_edge(previous, top, edge_id=f"e{i}a", labels=["k"])
        b.add_edge(previous, bottom, edge_id=f"e{i}b", labels=["k"])
        b.add_edge(top, merge, edge_id=f"e{i}c", labels=["k"])
        b.add_edge(bottom, merge, edge_id=f"e{i}d", labels=["k"])
        previous = merge
    return b.build(), "n0", previous


class TestEnumeration:
    def test_exponential_count(self):
        for rungs in (1, 2, 3, 4, 6):
            g, s, t = ladder(rungs)
            assert count_simple_paths(g, KSTAR, s, t) == 2 ** rungs
            # Section 4's contrast: the walk semantics G-CORE adopts stays
            # polynomial on the same ladder (2k-hop walk, all 4k edges).
            finder = PathFinder(g, KSTAR)
            assert finder.shortest(s, t).cost == 2 * rungs
            assert len(finder.all_paths_projection(s, t)[1]) == 4 * rungs

    def test_no_node_repetition(self):
        g, s, t = ladder(2)
        for walk in enumerate_simple_paths(g, KSTAR, s, t):
            nodes = walk.nodes()
            assert len(nodes) == len(set(nodes))

    def test_limit(self):
        g, s, t = ladder(4)
        assert count_simple_paths(g, KSTAR, s, t, limit=5) == 5

    def test_existence(self):
        g, s, t = ladder(2)
        assert simple_path_exists(g, KSTAR, s, t)
        assert not simple_path_exists(g, KSTAR, t, s)

    def test_cycle_not_followed(self):
        b = GraphBuilder()
        b.add_node("x")
        b.add_node("y")
        b.add_edge("x", "y", edge_id="xy", labels=["k"])
        b.add_edge("y", "x", edge_id="yx", labels=["k"])
        walks = list(enumerate_simple_paths(b.build(), KSTAR, "x", "y"))
        assert len(walks) == 1  # the looping walk repeats x, so excluded

    def test_all_targets(self):
        g, s, _ = ladder(1)
        # target None: all conforming simple paths from s (any endpoint).
        count = count_simple_paths(g, KSTAR, s)
        assert count == 5  # the empty walk, two 1-hop and two 2-hop walks

    def test_unknown_source(self):
        g, _, _ = ladder(1)
        assert count_simple_paths(g, KSTAR, "zz") == 0
