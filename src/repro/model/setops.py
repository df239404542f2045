"""Full-graph set operations — Appendix A.5 of the paper.

UNION, INTERSECT and MINUS are defined over whole PPGs in terms of object
*identity*. Union and intersection require the operands to be *consistent*
(shared edges agree on endpoints, shared paths on sequences); inconsistent
operands yield the empty graph, exactly as A.5 prescribes. Difference keeps
only edges whose endpoints survive and paths whose constituents survive, so
the result is always a well-formed PPG.

Results share their operands' objects, name an operand's fragment owner
and record which objects may differ from its (``changed_objects``), so
:func:`repro.model.io.encode_graph` encodes only the change. A result's
ids are its operands' id objects (a union or intersection may keep
either's ``1.0`` for an equal ``1``): ``plain_ids`` holds if theirs do.
"""

from __future__ import annotations

from itertools import chain, permutations
from operator import or_
from typing import Callable, Dict, Optional, Set, TypeVar

from ..errors import GraphModelError
from .graph import ObjectId, PathPropertyGraph
from .values import ValueSet

__all__ = ["graph_union", "graph_intersect", "graph_difference", "empty_graph"]

V = TypeVar("V")


def empty_graph() -> PathPropertyGraph:
    """The empty PPG (used for inconsistent unions and false WHENs)."""
    return PathPropertyGraph()


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
    graphs, and a consistent union of valid graphs is valid. It records
    the larger operand's record plus whatever the other one brings.
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
    kinds = ((left.nodes, right.nodes), (left.edges, right.edges),
             (left.paths, right.paths))
    if any(not mine.isdisjoint(theirs)
           for (mine, _), (_, theirs) in permutations(kinds, 2)):
        raise GraphModelError(
            "node/edge/path identifier sets must be disjoint"
        )
    prefer_left = (len(left.nodes) + len(left.edges) + len(left.paths)
                   >= len(right.nodes) + len(right.edges) + len(right.paths))
    kept, other = (left, right) if prefer_left else (right, left)
    record = kept.changed_objects()
    changed = None if record is None else set(record).union(
        other.nodes - kept.nodes, other.edges - kept.edges,
        other.paths - kept.paths)
    return PathPropertyGraph._assemble_normalized(
        left.nodes | right.nodes,
        _union_map(left._rho, right._rho, lambda a, _: a, prefer_left, changed),
        _union_map(left._delta, right._delta, lambda a, _: a, prefer_left,
                   changed),
        _union_map(left._labels, right._labels, or_, prefer_left, changed),
        _union_map(left._props, right._props, merge_properties, prefer_left,
                   changed),
        owner=kept.fragment_owner(),
        changed=changed,
        plain_ids=(left.plain_ids() and right.plain_ids()) or None,
    )


def _union_map(left: Dict[ObjectId, V], right: Dict[ObjectId, V],
               merge: Callable[[V, V], V], prefer_left: bool,
               changed: Optional[Set[ObjectId]]) -> Dict[ObjectId, V]:
    """``left`` updated by ``right``, shared keys merged by *merge* but
    kept as an operand's own object where equal to it (the larger
    operand's on a tie): a union copies only what it really merges.
    Each key whose value is not the preferred operand's own goes into
    *changed*."""
    out = dict(left)
    out.update(right)
    for key in left.keys() & right.keys():
        out[key] = kept_merge(left[key], right[key], merge, prefer_left)
    if changed is not None:
        kept, other = (left, right) if prefer_left else (right, left)
        changed.update(key for key in other if out[key] is not kept.get(key))
    return out


def kept_merge(left: V, right: V, merge: Callable[[V, V], V],
               prefer_left: bool = True) -> V:
    """``merge(left, right)``, as an operand's own object where equal to
    it (the preferred operand's on a tie)."""
    merged = merge(left, right)
    pair = (left, right) if prefer_left else (right, left)
    return next((value for value in pair if value == merged), merged)


def merge_properties(
    left: Dict[str, ValueSet], right: Dict[str, ValueSet]
) -> Dict[str, ValueSet]:
    """Two property maps merged key by key (value sets unioned)."""
    return {**left, **{key: left[key] | values if key in left else values
                       for key, values in right.items()}}


def graph_intersect(
    left: PathPropertyGraph, right: PathPropertyGraph
) -> PathPropertyGraph:
    """``G1 INTERSECT G2`` per A.5: intersection of identifiers.

    Labels and property value sets are intersected pointwise; an
    object's intersection equal to ``left``'s keeps ``left``'s objects,
    and any other object is added to ``left``'s change record.
    Returns the empty graph when the operands are inconsistent.
    """
    if not left.consistent_with(right):
        return empty_graph()
    nodes = left.nodes & right.nodes
    edges = {e: left._rho[e] for e in left.edges & right.edges}
    paths = {p: left._delta[p] for p in left.paths & right.paths}
    labels: Dict[ObjectId, frozenset] = {}
    props: Dict[ObjectId, Dict[str, ValueSet]] = {}
    record = left.changed_objects()
    changed = None if record is None else set(record)
    for obj in nodes | set(edges) | set(paths):
        mine = left.labels(obj)
        if both := mine & right.labels(obj):
            labels[obj] = mine if both == mine else both
        lprops, rprops = left._props.get(obj, {}), right._props.get(obj, {})
        if kept := {key: values for key in lprops.keys() & rprops.keys()
                    if (values := lprops[key] & rprops[key])}:
            props[obj] = lprops if kept == lprops else kept
        if changed is not None and (
            labels.get(obj) is not left._labels.get(obj)
            or props.get(obj) is not left._props.get(obj)
        ):
            changed.add(obj)
    return PathPropertyGraph._assemble_normalized(
        nodes, edges, paths, labels, props, owner=left.fragment_owner(),
        changed=changed, plain_ids=(left.plain_ids() and right.plain_ids()) or None,
    )


def graph_difference(
    left: PathPropertyGraph, right: PathPropertyGraph
) -> PathPropertyGraph:
    """``G1 MINUS G2`` per A.5.

    Nodes of the right operand are removed; edges survive only if both
    endpoints survive; paths survive only if all their nodes and edges do.
    The result is ``left``'s stores, copied and with the removed objects
    popped, so survivors keep ``left``'s own label sets, property dicts
    and tuples, and ``left``'s change record.
    """
    gone_nodes = left.nodes & right.nodes
    gone = set(left.edges & right.edges) | gone_nodes
    out, into = left.out_adjacency(), left.in_adjacency()
    for node in gone_nodes:
        gone.update(out.get(node, ()), into.get(node, ()))
    # node and edge ids are disjoint, so a path breaks where it meets *gone*
    gone_paths = {pid for pid, seq in left._delta.items()
                  if pid in right.paths or not gone.isdisjoint(seq)}
    if not (gone or gone_paths):
        return left if not left.name else left.with_name("")
    edges, paths = dict(left._rho), dict(left._delta)
    labels, props = dict(left._labels), dict(left._props)
    for obj in chain(gone, gone_paths):
        for store in (edges, paths, labels, props):
            store.pop(obj, None)
    return PathPropertyGraph._assemble_normalized(
        left.nodes - gone_nodes, edges, paths, labels, props,
        owner=left.fragment_owner(), changed=left.changed_objects(),
        plain_ids=left.plain_ids() or None,
    )
