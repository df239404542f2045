"""Property-based tests for graph set operations (Appendix A.5)."""

from hypothesis import given, settings, strategies as st
from subgraphs import ONES, assert_union_ids, reference_union, subgraphs

from repro.model.builder import GraphBuilder
from repro.model.graph import PathPropertyGraph
from repro.model.setops import (
    empty_graph,
    graph_difference,
    graph_intersect,
    graph_union,
)

NODE_POOL = ["n0", "n1", "n2", "n3"]
# A fixed universe of edges with fixed endpoints guarantees consistency,
# which is what makes union/intersection non-degenerate.
EDGE_POOL = {
    "e0": ("n0", "n1"),
    "e1": ("n1", "n2"),
    "e2": ("n2", "n3"),
    "e3": ("n0", "n2"),
}
LABELS = ["A", "B"]


@st.composite
def graphs(draw):
    nodes = set(draw(st.sets(st.sampled_from(NODE_POOL))))
    builder = GraphBuilder()
    for node in sorted(nodes):
        labels = draw(st.sets(st.sampled_from(LABELS)))
        props = {}
        if draw(st.booleans()):
            props["k"] = draw(st.sets(st.integers(0, 3), min_size=1))
        builder.add_node(node, labels=labels, properties=props)
    for edge, (src, dst) in EDGE_POOL.items():
        if src in nodes and dst in nodes and draw(st.booleans()):
            builder.add_edge(src, dst, edge_id=edge,
                             labels=draw(st.sets(st.sampled_from(LABELS))))
    return builder.build()


@given(graphs())
def test_union_idempotent(g):
    assert graph_union(g, g) == g


@given(graphs(), graphs())
@settings(max_examples=150)
def test_union_commutative(g1, g2):
    assert graph_union(g1, g2) == graph_union(g2, g1)


@given(graphs(), graphs(), graphs())
@settings(max_examples=100)
def test_union_associative(g1, g2, g3):
    assert graph_union(graph_union(g1, g2), g3) == graph_union(
        g1, graph_union(g2, g3)
    )


@given(graphs())
def test_union_identity(g):
    assert graph_union(g, empty_graph()) == g


@given(graphs(), graphs())
@settings(max_examples=150)
def test_intersect_commutative(g1, g2):
    assert graph_intersect(g1, g2) == graph_intersect(g2, g1)


@given(graphs(), graphs())
@settings(max_examples=150)
def test_intersection_contained_in_union(g1, g2):
    inter = graph_intersect(g1, g2)
    union = graph_union(g1, g2)
    assert inter.nodes <= union.nodes
    assert inter.edges <= union.edges


@given(graphs(), graphs())
@settings(max_examples=150)
def test_difference_disjoint_from_right_nodes(g1, g2):
    diff = graph_difference(g1, g2)
    assert not (diff.nodes & g2.nodes)
    assert not (diff.edges & g2.edges)


@given(graphs(), graphs())
@settings(max_examples=150)
def test_results_are_wellformed(g1, g2):
    # Every operation must produce a graph satisfying Definition 2.1;
    # the constructor validates, so building a copy is the check.
    for result in (
        graph_union(g1, g2),
        graph_intersect(g1, g2),
        graph_difference(g1, g2),
    ):
        PathPropertyGraph(
            nodes=result.nodes,
            edges={e: result.endpoints(e) for e in result.edges},
            paths={p: result.path_sequence(p) for p in result.paths},
            labels=result.label_map(),
            properties=result.property_map(),
        )


@given(graphs(), graphs())
@settings(max_examples=150)
def test_difference_then_union_recovers_left_nodes(g1, g2):
    diff = graph_difference(g1, g2)
    assert (diff.nodes | (g1.nodes & g2.nodes)) == g1.nodes


# ---------------------------------------------------------------------------
# Unions with a sub-graph: the larger operand is folded into, or returned
# ---------------------------------------------------------------------------

@st.composite
def graphs_with_one(draw):
    """A graph with the identifier 1 (as 1, 1.0 or TRUE) beside its str
    ids, on an edge and a path of its own."""
    graph = draw(graphs())
    one = draw(st.sampled_from(ONES))
    edges, paths = graph.rho, graph.delta
    if "n0" in graph.nodes:
        edges["e9"] = ("n0", one)
        paths["p9"] = ("n0", "e9", one)
    labels = {**graph.label_map(), one: draw(st.sets(st.sampled_from(LABELS)))}
    props = {**graph.property_map(), one: {"k": draw(st.sets(st.integers(0, 3)))}}
    return PathPropertyGraph(graph.nodes | {one}, edges, paths, labels, props)


@given(st.data(), graphs_with_one(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_union_with_a_subgraph_is_the_a5_union(data, big, big_left):
    small = data.draw(subgraphs(big))
    left, right = (big, small) if big_left else (small, big)
    union = graph_union(left, right)
    assert union == reference_union(left, right)
    assert_union_ids(union, left, right)
    # The id objects are the larger operand's (the left one on a tie) own
    # where it is the left one or no id is a 1.0 or TRUE: a union that
    # adds nothing to it is it.
    larger = left if size(left) >= size(right) else right
    if union == larger and (larger is left or (left.plain_ids() and right.plain_ids())):
        assert union is larger


def size(graph):
    return len(graph.nodes) + len(graph.edges) + len(graph.paths)
