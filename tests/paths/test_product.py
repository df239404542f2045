"""Unit tests for the product-graph path search."""


from repro.lang import ast
from repro.model.builder import GraphBuilder
from repro.paths.automaton import compile_regex, reverse_regex
from repro.paths.product import PathFinder, ViewSegment


def line_graph(n=5, label="k"):
    """a0 -k-> a1 -k-> ... -k-> a(n-1)"""
    b = GraphBuilder()
    for i in range(n):
        b.add_node(f"a{i}", labels=["N"])
    for i in range(n - 1):
        b.add_edge(f"a{i}", f"a{i+1}", edge_id=f"e{i}", labels=[label])
    return b.build()


def diamond_graph():
    b = GraphBuilder()
    for n in "sabt":
        b.add_node(n, labels=["N"])
    b.add_edge("s", "a", edge_id="sa", labels=["k"])
    b.add_edge("s", "b", edge_id="sb", labels=["k"])
    b.add_edge("a", "t", edge_id="at", labels=["k"])
    b.add_edge("b", "t", edge_id="bt", labels=["k"])
    return b.build()


KSTAR = compile_regex(ast.RStar(ast.RLabel("k")))
KPLUS = compile_regex(ast.RPlus(ast.RLabel("k")))


class TestShortest:
    def test_line_distances(self):
        g = line_graph(5)
        walks = PathFinder(g, KSTAR).shortest_multi(["a0"])["a0"]
        assert {node: w.cost for node, w in walks.items()} == {
            "a0": 0, "a1": 1, "a2": 2, "a3": 3, "a4": 4,
        }

    def test_walk_sequences(self):
        g = line_graph(3)
        walks = PathFinder(g, KSTAR).shortest_multi(["a0"])["a0"]
        assert walks["a2"].sequence == ("a0", "e0", "a1", "e1", "a2")

    def test_zero_length_walk(self):
        g = line_graph(2)
        walk = PathFinder(g, KSTAR).shortest("a0", "a0")
        assert walk is not None and walk.sequence == ("a0",) and walk.cost == 0

    def test_plus_excludes_zero_length(self):
        g = line_graph(2)
        finder = PathFinder(g, KPLUS)
        assert finder.shortest("a0", "a0") is None

    def test_label_restriction(self):
        b = GraphBuilder()
        b.add_node("x")
        b.add_node("y")
        b.add_edge("x", "y", edge_id="e", labels=["other"])
        finder = PathFinder(b.build(), KPLUS)
        assert finder.shortest("x", "y") is None

    def test_inverse_traversal(self):
        g = line_graph(3)
        inverse = compile_regex(ast.RPlus(ast.RLabel("k", inverse=True)))
        walk = PathFinder(g, inverse).shortest("a2", "a0")
        assert walk is not None and walk.cost == 2

    def test_deterministic_tie_break(self):
        g = diamond_graph()
        walk = PathFinder(g, KSTAR).shortest("s", "t")
        # Both s-a-t and s-b-t cost 2; the lexicographically smaller node
        # sequence (via 'a') must be chosen, deterministically.
        assert walk.sequence == ("s", "sa", "a", "at", "t")

    def test_targets_early_exit(self):
        g = line_graph(6)
        walks = PathFinder(g, KSTAR).shortest_multi(["a0"], {"a2"})["a0"]
        assert "a2" in walks

    def test_missing_source(self):
        g = line_graph(2)
        assert PathFinder(g, KSTAR).shortest_multi(["zz"]) == {"zz": {}}

    def test_node_test_regex(self):
        b = GraphBuilder()
        b.add_node("p1", labels=["Person"])
        b.add_node("p2", labels=["Person"])
        b.add_node("c", labels=["Company"])
        b.add_edge("p1", "p2", edge_id="e1", labels=["k"])
        b.add_edge("p2", "c", edge_id="e2", labels=["k"])
        g = b.build()
        # :k !Person :k — middle node must be a Person
        regex = ast.RConcat(
            (ast.RLabel("k"), ast.RNodeTest("Person"), ast.RLabel("k"))
        )
        walk = PathFinder(g, compile_regex(regex)).shortest("p1", "c")
        assert walk is not None and walk.cost == 2  # node test costs 0
        # and with !Company in the middle there is no walk
        regex2 = ast.RConcat(
            (ast.RLabel("k"), ast.RNodeTest("Company"), ast.RLabel("k"))
        )
        assert PathFinder(g, compile_regex(regex2)).shortest("p1", "c") is None


class TestViews:
    def test_view_arc_traversal(self):
        g = line_graph(3)
        views = {
            "v": {
                "a0": (ViewSegment("a1", 0.5, ("a0", "e0", "a1")),),
                "a1": (ViewSegment("a2", 0.25, ("a1", "e1", "a2")),),
            }
        }
        nfa = compile_regex(ast.RStar(ast.RView("v")))
        walks = PathFinder(g, nfa, views).shortest_multi(["a0"])["a0"]
        assert walks["a2"].cost == 0.75
        assert walks["a2"].sequence == ("a0", "e0", "a1", "e1", "a2")

    def test_weighted_changes_winner(self):
        g = diamond_graph()
        views = {
            "v": {
                "s": (
                    ViewSegment("a", 5.0, ("s", "sa", "a")),
                    ViewSegment("b", 1.0, ("s", "sb", "b")),
                ),
                "a": (ViewSegment("t", 1.0, ("a", "at", "t")),),
                "b": (ViewSegment("t", 1.0, ("b", "bt", "t")),),
            }
        }
        nfa = compile_regex(ast.RStar(ast.RView("v")))
        walk = PathFinder(g, nfa, views).shortest("s", "t")
        assert walk.sequence == ("s", "sb", "b", "bt", "t")
        assert walk.cost == 2.0


class TestReachability:
    def test_reachable_set(self):
        g = line_graph(4)
        reachable = PathFinder(g, KSTAR).reachable_from("a1")
        assert reachable == {"a1", "a2", "a3"}

    def test_plus_excludes_self_unless_cycle(self):
        g = line_graph(3)
        assert "a0" not in PathFinder(g, KPLUS).reachable_from("a0")

    def test_cycle_reaches_self(self):
        b = GraphBuilder()
        b.add_node("x")
        b.add_node("y")
        b.add_edge("x", "y", edge_id="e1", labels=["k"])
        b.add_edge("y", "x", edge_id="e2", labels=["k"])
        finder = PathFinder(b.build(), KPLUS)
        assert "x" in finder.reachable_from("x")

    def test_unknown_source(self):
        g = line_graph(2)
        assert PathFinder(g, KSTAR).reachable_from("zz") == frozenset()


def backward(graph, regex):
    """A finder searching *regex*'s walks from their target end."""
    return PathFinder(graph, compile_regex(reverse_regex(regex)))


class TestReversal:
    def test_concatenation_reverses_and_edge_steps_flip(self):
        regex = ast.RConcat((ast.RLabel("k"), ast.RNodeTest("N"), ast.RLabel("l", inverse=True)))
        assert reverse_regex(regex) == ast.RConcat(
            (ast.RLabel("l"), ast.RNodeTest("N"), ast.RLabel("k", inverse=True))
        )

    def test_alternation_and_repetition_keep_their_shape(self):
        regex = ast.RAlt((ast.RStar(ast.RAnyEdge()), ast.RRepeat(ast.RLabel("k"), 1, 2)))
        assert reverse_regex(regex) == ast.RAlt(
            (
                ast.RStar(ast.RAnyEdge(inverse=True)),
                ast.RRepeat(ast.RLabel("k", inverse=True), 1, 2),
            )
        )
        assert reverse_regex(reverse_regex(regex)) == regex

    def test_bare_pattern_reverses_to_inverse_any_edge_star(self):
        assert reverse_regex(None) == ast.RStar(ast.RAnyEdge(inverse=True))

    def test_view_reference_is_not_reversible(self):
        assert reverse_regex(ast.RConcat((ast.RLabel("k"), ast.RStar(ast.RView("v"))))) is None

    def test_backward_reach_finds_the_sources(self):
        g = line_graph(5)
        assert backward(g, ast.RStar(ast.RLabel("k"))).reachable_from("a3") == {
            "a0", "a1", "a2", "a3",
        }

    def test_inverse_label(self):
        g = line_graph(4)
        # a2 -k^-> a1 -k^-> a0: the sources reaching a0 are a1.. a3
        regex = ast.RPlus(ast.RLabel("k", inverse=True))
        assert backward(g, regex).reachable_from("a0") == {"a1", "a2", "a3"}

    def test_bounded_repetition(self):
        g = line_graph(5)
        regex = ast.RRepeat(ast.RLabel("k"), 1, 2)
        assert backward(g, regex).reachable_from("a3") == {"a1", "a2"}

    def test_node_test_reads_the_same_node_backwards(self):
        b = GraphBuilder()
        for node, label in (
            ("p1", "Person"),
            ("p2", "Person"),
            ("c", "Company"),
            ("q", "Company"),
        ):
            b.add_node(node, labels=[label])
        b.add_edge("p1", "p2", edge_id="e1", labels=["k"])
        b.add_edge("p2", "c", edge_id="e2", labels=["k"])
        b.add_edge("q", "p2", edge_id="e3", labels=["k"])
        regex = ast.RConcat((ast.RNodeTest("Person"), ast.RLabel("k"), ast.RLabel("k")))
        assert backward(b.build(), regex).reachable_from("c") == {"p1"}

    def test_zero_length_walk_reaches_its_own_target(self):
        g = line_graph(3)
        assert "a1" in backward(g, ast.RStar(ast.RLabel("k"))).reachable_from("a1")
        assert "a1" not in backward(g, ast.RPlus(ast.RLabel("k"))).reachable_from("a1")

    def test_self_loop_needs_a_cycle(self):
        b = GraphBuilder()
        for node in ("x", "y", "z"):
            b.add_node(node)
        b.add_edge("x", "y", edge_id="e1", labels=["k"])
        b.add_edge("y", "x", edge_id="e2", labels=["k"])
        b.add_edge("y", "z", edge_id="e3", labels=["k"])
        finder = backward(b.build(), ast.RPlus(ast.RLabel("k")))
        assert "x" in finder.reachable_from("x")
        assert "z" not in finder.reachable_from("z")

    def test_reversed_walk_costs_the_same(self):
        g = diamond_graph()
        walk = backward(g, ast.RStar(ast.RLabel("k"))).shortest("t", "s")
        assert walk is not None and walk.cost == 2
        assert walk.sequence[0] == "t" and walk.sequence[-1] == "s"
