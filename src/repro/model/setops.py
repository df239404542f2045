"""Full-graph set operations — Appendix A.5 of the paper.

UNION, INTERSECT and MINUS are defined over whole PPGs in terms of object
*identity*. Union and intersection require the operands to be *consistent*
(shared edges agree on endpoints, shared paths on sequences); inconsistent
operands yield the empty graph, exactly as A.5 prescribes. Difference keeps
only edges whose endpoints survive and paths whose constituents survive, so
the result is always a well-formed PPG.
"""

from __future__ import annotations

from operator import or_
from typing import Dict

from ..errors import GraphModelError
from .graph import ObjectId, PathPropertyGraph, path_edges, path_nodes

__all__ = ["graph_union", "graph_intersect", "graph_difference", "empty_graph"]


def empty_graph(name: str = "") -> PathPropertyGraph:
    """The empty PPG (used for inconsistent unions and false WHENs)."""
    return PathPropertyGraph(name=name)


def _is_bare_empty(graph: PathPropertyGraph) -> bool:
    return graph.is_empty() and not graph.paths


def graph_union(
    left: PathPropertyGraph, right: PathPropertyGraph
) -> PathPropertyGraph:
    """``G1 UNION G2`` per A.5: union of components, labels and properties.

    Shared identifiers merge their label sets and property value sets.
    Returns the empty graph when the operands are inconsistent. Unions
    with an empty operand (every CONSTRUCT starts from one) short-circuit
    to the other operand; the general case merges the internal stores and
    assembles the result without re-validation — both operands are valid
    graphs, and a consistent union of valid graphs is valid.
    """
    if _is_bare_empty(left):
        return right if not right.name else right.with_name("")
    if _is_bare_empty(right):
        return left if not left.name else left.with_name("")
    if not left.consistent_with(right):
        return empty_graph()
    # Definition 2.1 disjointness across the operands (consistency only
    # covers shared edges/paths agreeing): an identifier must not be a
    # node in one operand and an edge/path in the other, or the union's
    # identifier sets would overlap. The validating constructor used to
    # catch this; the assembling path checks it explicitly.
    if (
        left.nodes & (right.edges | right.paths)
        or left.edges & (right.nodes | right.paths)
        or left.paths & (right.nodes | right.edges)
    ):
        raise GraphModelError(
            "node/edge/path identifier sets must be disjoint"
        )
    prefer_left = (len(left.nodes) + len(left.edges) + len(left.paths)
                   >= len(right.nodes) + len(right.edges) + len(right.paths))
    return PathPropertyGraph._assemble_normalized(
        left.nodes | right.nodes,
        _union_map(left._rho, right._rho, lambda a, _: a, prefer_left),
        _union_map(left._delta, right._delta, lambda a, _: a, prefer_left),
        _union_map(left._labels, right._labels, or_, prefer_left),
        _union_map(left._props, right._props, merge_properties, prefer_left),
        owner=(left if prefer_left else right).fragment_owner(),
    )


def _union_map(left: dict, right: dict, merge, prefer_left: bool) -> dict:
    """``left`` updated by ``right``, shared keys merged by *merge* but
    kept as an operand's own object where equal to it (the larger
    operand's on a tie): a union copies only what it really merges."""
    out = dict(left)
    out.update(right)
    for key in left.keys() & right.keys():
        out[key] = kept_merge(left[key], right[key], merge, prefer_left)
    return out


def kept_merge(left, right, merge, prefer_left: bool = True):
    """``merge(left, right)``, as an operand's own object where equal to
    it (the preferred operand's on a tie)."""
    merged = merge(left, right)
    pair = (left, right) if prefer_left else (right, left)
    return next((value for value in pair if value == merged), merged)


def merge_properties(left: Dict[str, frozenset], right: Dict[str, frozenset]):
    """Two property maps merged key by key (value sets unioned)."""
    return {**left, **{key: left[key] | values if key in left else values
                       for key, values in right.items()}}


def graph_intersect(
    left: PathPropertyGraph, right: PathPropertyGraph
) -> PathPropertyGraph:
    """``G1 INTERSECT G2`` per A.5: intersection of identifiers.

    Labels and property value sets are intersected pointwise; an
    object's intersection equal to ``left``'s keeps ``left``'s objects.
    Returns the empty graph when the operands are inconsistent.
    """
    if not left.consistent_with(right):
        return empty_graph()
    nodes = left.nodes & right.nodes
    edges = {e: left._rho[e] for e in left.edges & right.edges}
    paths = {p: left._delta[p] for p in left.paths & right.paths}
    labels: Dict[ObjectId, frozenset] = {}
    props: Dict[ObjectId, Dict[str, frozenset]] = {}
    for obj in nodes | set(edges) | set(paths):
        mine = left.labels(obj)
        if both := mine & right.labels(obj):
            labels[obj] = mine if both == mine else both
        lprops, rprops = left._props.get(obj, {}), right._props.get(obj, {})
        if kept := {key: values for key in lprops.keys() & rprops.keys()
                    if (values := lprops[key] & rprops[key])}:
            props[obj] = lprops if kept == lprops else kept
    return PathPropertyGraph._assemble_normalized(
        nodes, edges, paths, labels, props, owner=left.fragment_owner()
    )


def graph_difference(
    left: PathPropertyGraph, right: PathPropertyGraph
) -> PathPropertyGraph:
    """``G1 MINUS G2`` per A.5.

    Nodes of the right operand are removed; edges survive only if both
    endpoints survive; paths survive only if all their nodes and edges do.
    Labels/properties restrict to the surviving objects, which keep
    ``left``'s own label sets, property dicts and tuples.
    """
    nodes = left.nodes - right.nodes
    edges = {
        e: ends
        for e in left.edges - right.edges
        if (ends := left.endpoints(e))[0] in nodes and ends[1] in nodes
    }
    paths = {}
    for pid in left.paths - right.paths:
        seq = left.path_sequence(pid)
        if all(n in nodes for n in path_nodes(seq)) and all(
            e in edges for e in path_edges(seq)
        ):
            paths[pid] = seq
    survivors = nodes | set(edges) | set(paths)
    labels = {
        obj: found for obj in survivors if (found := left.labels(obj))
    }
    props = {
        obj: found for obj in survivors if (found := left._props.get(obj))
    }
    return PathPropertyGraph._assemble_normalized(
        nodes, edges, paths, labels, props, owner=left.fragment_owner()
    )
