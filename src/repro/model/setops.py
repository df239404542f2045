"""Full-graph set operations — Appendix A.5 of the paper.

UNION, INTERSECT and MINUS are defined over whole PPGs in terms of object
*identity*. Union and intersection require the operands to be *consistent*
(shared edges agree on endpoints, shared paths on sequences); inconsistent
operands yield the empty graph, exactly as A.5 prescribes. Difference keeps
only edges whose endpoints survive and paths whose constituents survive, so
the result is always a well-formed PPG.
"""

from __future__ import annotations

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
    edges: Dict[ObjectId, tuple] = dict(left._rho)
    edges.update(right._rho)
    paths: Dict[ObjectId, tuple] = dict(left._delta)
    paths.update(right._delta)
    labels: Dict[ObjectId, frozenset] = dict(left._labels)
    for obj, obj_labels in right._labels.items():
        current = labels.get(obj)
        labels[obj] = obj_labels if current is None else current | obj_labels
    props: Dict[ObjectId, Dict[str, frozenset]] = {
        obj: dict(mapping) for obj, mapping in left._props.items()
    }
    for obj, mapping in right._props.items():
        store = props.get(obj)
        if store is None:
            props[obj] = dict(mapping)
        else:
            for key, values in mapping.items():
                current = store.get(key)
                store[key] = values if current is None else current | values
    return PathPropertyGraph._assemble_normalized(
        left.nodes | right.nodes, edges, paths, labels, props
    )


def graph_intersect(
    left: PathPropertyGraph, right: PathPropertyGraph
) -> PathPropertyGraph:
    """``G1 INTERSECT G2`` per A.5: intersection of identifiers.

    Labels and property value sets are intersected pointwise. Returns the
    empty graph when the operands are inconsistent.
    """
    if not left.consistent_with(right):
        return empty_graph()
    nodes = left.nodes & right.nodes
    edges = {e: left.endpoints(e) for e in left.edges & right.edges}
    paths = {p: left.path_sequence(p) for p in left.paths & right.paths}
    shared = nodes | set(edges) | set(paths)
    labels: Dict[ObjectId, frozenset] = {}
    props: Dict[ObjectId, Dict[str, frozenset]] = {}
    for obj in shared:
        both = left.labels(obj) & right.labels(obj)
        if both:
            labels[obj] = both
        left_props = left.properties(obj)
        right_props = right.properties(obj)
        for key in set(left_props) & set(right_props):
            values = left_props[key] & right_props[key]
            if values:
                props.setdefault(obj, {})[key] = values
    return PathPropertyGraph._assemble_normalized(
        nodes, edges, paths, labels, props
    )


def graph_difference(
    left: PathPropertyGraph, right: PathPropertyGraph
) -> PathPropertyGraph:
    """``G1 MINUS G2`` per A.5.

    Nodes of the right operand are removed; edges survive only if both
    endpoints survive; paths survive only if all their nodes and edges do.
    Labels/properties restrict to the surviving objects.
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
        obj: found for obj in survivors if (found := left.properties(obj))
    }
    return PathPropertyGraph._assemble_normalized(
        nodes, edges, paths, labels, props
    )
