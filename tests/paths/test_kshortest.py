"""Unit tests for k-shortest walks and walk values."""

import pytest

from repro.fuzz import oracle
from repro.lang import ast
from repro.model.builder import GraphBuilder
from repro.paths.automaton import compile_regex
from repro.paths.product import PathFinder
from repro.paths.walk import AllPathsHandle, Walk

KSTAR = compile_regex(ast.RStar(ast.RLabel("k")))


def diamond():
    b = GraphBuilder()
    for n in "sabt":
        b.add_node(n)
    b.add_edge("s", "a", edge_id="sa", labels=["k"])
    b.add_edge("s", "b", edge_id="sb", labels=["k"])
    b.add_edge("a", "t", edge_id="at", labels=["k"])
    b.add_edge("b", "t", edge_id="bt", labels=["k"])
    return b.build()


class TestKShortest:
    def test_two_paths_in_diamond(self):
        walks = PathFinder(diamond(), KSTAR).k_shortest("s", "t", 2)
        assert [w.cost for w in walks] == [2, 2]
        assert {w.sequence for w in walks} == {
            ("s", "sa", "a", "at", "t"),
            ("s", "sb", "b", "bt", "t"),
        }

    def test_cost_ordered(self):
        b = GraphBuilder()
        for n in "sat":
            b.add_node(n)
        b.add_edge("s", "t", edge_id="st", labels=["k"])
        b.add_edge("s", "a", edge_id="sa", labels=["k"])
        b.add_edge("a", "t", edge_id="at", labels=["k"])
        walks = PathFinder(b.build(), KSTAR).k_shortest("s", "t", 2)
        assert [w.cost for w in walks] == [1, 2]

    def test_k_one_matches_shortest(self):
        finder = PathFinder(diamond(), KSTAR)
        (walk,) = finder.k_shortest("s", "t", 1)
        assert walk == finder.shortest("s", "t")

    def test_walks_may_revisit_nodes(self):
        # arbitrary-walk semantics: with a cycle the 2nd shortest loops.
        b = GraphBuilder()
        b.add_node("x")
        b.add_node("y")
        b.add_edge("x", "y", edge_id="xy", labels=["k"])
        b.add_edge("y", "x", edge_id="yx", labels=["k"])
        walks = PathFinder(b.build(), KSTAR).k_shortest("x", "y", 2)
        assert [w.cost for w in walks] == [1, 3]
        assert walks[1].sequence == ("x", "xy", "y", "yx", "x", "xy", "y")

    def test_fewer_than_k_available(self):
        b = GraphBuilder()
        b.add_node("x")
        b.add_node("y")
        b.add_edge("x", "y", edge_id="e", labels=["k"])
        walks = PathFinder(b.build(), KSTAR).k_shortest("x", "y", 5)
        assert len(walks) == 1  # a DAG with one path has one walk

    def test_distinct_walks_only(self):
        walks = PathFinder(diamond(), KSTAR).k_shortest("s", "t", 10)
        assert len(walks) == len({w.sequence for w in walks})

    def test_k_zero(self):
        assert PathFinder(diamond(), KSTAR).k_shortest("s", "t", 0) == []

    def test_unknown_endpoints(self):
        finder = PathFinder(diamond(), KSTAR)
        assert finder.k_shortest("zz", "t", 2) == []
        assert finder.k_shortest("s", "zz", 2) == []


def duplicate_run_setup(branches=2):
    """A 2-cycle with a regex whose runs massively duplicate each walk.

    ``((k k)|(k k))*`` accepts every even-length walk, and each walk of
    length 2i has ``branches**i`` distinct automaton runs — all
    converging on the single star-hub product state.
    """
    b = GraphBuilder()
    b.add_node("x")
    b.add_node("y")
    b.add_edge("x", "y", edge_id="exy", labels=["k"])
    b.add_edge("y", "x", edge_id="eyx", labels=["k"])
    pair = ast.RConcat((ast.RLabel("k"), ast.RLabel("k")))
    regex = ast.RStar(ast.RAlt(tuple(pair for _ in range(branches))))
    return b.build(), compile_regex(regex)


class TestKShortestDuplicateTruncation:
    """Regression: a fixed pop bound per product state (the historical
    ``2k + 4``) silently dropped valid walks when duplicate graph walks
    from distinct automaton runs exhausted a state's budget. The scan
    counts only distinct prefixes against the budget."""

    def test_public_api_finds_every_distinct_walk(self):
        graph, nfa = duplicate_run_setup()
        finder = PathFinder(graph, nfa)
        walks = finder.k_shortest("x", "x", 5)
        # x, xx (via y and back), xxxx, ... one distinct walk per even
        # length: all five must be found, in cost order.
        assert [w.cost for w in walks] == [0, 2, 4, 6, 8]
        assert len({w.sequence for w in walks}) == 5

    def test_batched_engine_is_exact(self):
        graph, nfa = duplicate_run_setup(branches=3)
        product = oracle.Product(graph, nfa)
        batched = PathFinder(graph, nfa)
        for k in (1, 3, 4, 5, 7):
            expected = oracle.k_shortest_walks(product, "x", k)["x"]
            assert batched.k_shortest("x", "x", k) == expected
            assert len(expected) == k


class TestWalkValue:
    def test_accessors(self):
        walk = Walk(("a", "e1", "b", "e2", "c"), 2.0)
        assert walk.source == "a" and walk.target == "c"
        assert walk.nodes() == ("a", "b", "c")
        assert walk.edges() == ("e1", "e2")
        assert walk.length() == 2
        assert walk.key() == ("a", "e1", "b", "e2", "c")

    def test_zero_length(self):
        walk = Walk(("a",))
        assert walk.length() == 0 and walk.source == walk.target == "a"

    def test_invalid_sequence(self):
        with pytest.raises(ValueError):
            Walk(("a", "e1"))
        with pytest.raises(ValueError):
            Walk(())

    def test_concat(self):
        w1 = Walk(("a", "e1", "b"), 1.0)
        w2 = Walk(("b", "e2", "c"), 2.0)
        joined = w1.concat(w2)
        assert joined.sequence == ("a", "e1", "b", "e2", "c")
        assert joined.cost == 3.0

    def test_concat_mismatch(self):
        with pytest.raises(ValueError):
            Walk(("a",)).concat(Walk(("b",)))

    def test_hashable(self):
        assert len({Walk(("a",)), Walk(("a",))}) == 1

    def test_all_paths_handle_repr(self):
        handle = AllPathsHandle("a", "b", ("a", "b"), ("e",))
        assert "a" in repr(handle)
