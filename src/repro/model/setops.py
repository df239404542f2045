"""Full-graph set operations — Appendix A.5 of the paper.

UNION, INTERSECT and MINUS are defined over whole PPGs in terms of object
*identity*. Union and intersection require the operands to be *consistent*
(shared edges agree on endpoints, shared paths on sequences); inconsistent
operands yield the empty graph, exactly as A.5 prescribes. Difference keeps
only edges whose endpoints survive and paths whose constituents survive, so
the result is always a well-formed PPG.

Results share their operands' objects, name an operand's fragment owner
and record which objects may differ from its (``changed_objects``), so
:func:`repro.model.io.encode_graph` encodes only the change. They cost
what the smaller operand changes: a union copies only the larger
operand's stores and is that operand itself when the smaller adds
nothing, a difference copies only the stores it removes from. A result's
ids are its operands' id objects (a union or intersection may keep
either's ``1.0`` for an equal ``1``): ``plain_ids`` holds if theirs do.
"""

from __future__ import annotations

from itertools import chain, permutations
from operator import or_
from typing import Any, Callable, Dict, Set, Tuple, TypeVar

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
    Returns the empty graph when the operands are inconsistent, and the
    other operand when one is empty (every CONSTRUCT starts from one).
    Otherwise the smaller operand is folded into copies of the larger's
    stores, Python running only over shared keys; a store it adds
    nothing to stays the larger's, and if it adds nothing at all (no id,
    and every merge keeps the larger's object) the larger operand is the
    result. Nothing is re-validated: a consistent union of valid graphs
    is valid. It records the larger operand's record plus whatever the
    other one brings.
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
    stores = [_merged(mine, theirs, merge, prefer_left) for mine, theirs, merge in zip(
        _stores(kept), _stores(other), (_first, _first, or_, merge_properties))]
    new = (other.nodes - kept.nodes, other.edges - kept.edges,
           other.paths - kept.paths)
    plain = left.plain_ids() and right.plain_ids()
    # fold into the larger's stores where their id objects are the ones
    # `left | right` keeps: it is the left one, or no id is a 1.0 or TRUE
    fold = prefer_left or plain
    if fold and not any(new) and not any(differs for _, differs in stores):
        return kept if not kept.name else kept.with_name("")
    first, second = (kept, other) if fold else (left, right)
    record = kept.changed_objects()
    changed = None if record is None else set(record).union(
        *new, *(differs for _, differs in stores))
    edges, paths, labels, props = (
        mine if fold and not differs else {**ours, **theirs, **fixed}
        for mine, ours, theirs, (fixed, differs)
        in zip(_stores(kept), _stores(first), _stores(second), stores))
    return PathPropertyGraph._assemble_normalized(
        kept.nodes if fold and not new[0] else first.nodes | second.nodes,
        edges, paths, labels, props, owner=kept.fragment_owner(), base=kept,
        changed=changed, plain_ids=plain or None,
    )


def _stores(graph: PathPropertyGraph) -> Tuple[Dict[ObjectId, Any], ...]:
    return graph._rho, graph._delta, graph._labels, graph._props


def _first(left: V, _: V) -> V:
    return left


def _merged(mine: Dict[ObjectId, V], theirs: Dict[ObjectId, V],
            merge: Callable[[V, V], V], mine_left: bool,
            ) -> Tuple[Dict[ObjectId, V], Set[ObjectId]]:
    """What *theirs* brings to *mine*: each shared key whose values are
    not one object, merged by *merge* and kept as an operand's own object
    where equal to it (*mine*'s on a tie); and the keys whose value is
    not *mine*'s own, those that really merge and those *mine* lacks."""
    shared = mine.keys() & theirs.keys()
    differs = theirs.keys() - shared
    fixed = {}
    for key in shared:
        ours, other = mine[key], theirs[key]
        if ours is not other:
            fixed[key] = value = (kept_merge(ours, other, merge) if mine_left
                                  else kept_merge(other, ours, merge, False))
            if value is not ours:
                differs.add(key)
    return fixed, differs


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
    The result is ``left``'s stores with the removed objects popped from
    the stores their kind can be in (a store that loses nothing is
    ``left``'s own), so survivors keep ``left``'s own label sets,
    property dicts and tuples, and ``left``'s change record.
    """
    gone_nodes = left.nodes & right.nodes
    gone_edges = set(left.edges & right.edges)
    out, into = left.out_adjacency(), left.in_adjacency()
    for node in gone_nodes:
        gone_edges.update(out.get(node, ()), into.get(node, ()))
    # node and edge ids are disjoint, so a path breaks where it meets either
    gone = gone_nodes.union(gone_edges) if left._delta else gone_nodes
    gone_paths = {pid for pid, seq in left._delta.items()
                  if pid in right.paths or not gone.isdisjoint(seq)}
    if not (gone_nodes or gone_edges or gone_paths):
        return left if not left.name else left.with_name("")
    labels, props = dict(left._labels), dict(left._props)
    for obj in chain(gone_nodes, gone_edges, gone_paths):
        labels.pop(obj, None)
        props.pop(obj, None)
    return PathPropertyGraph._assemble_normalized(
        left.nodes - gone_nodes, _without(left._rho, gone_edges),
        _without(left._delta, gone_paths), labels, props, base=left,
        owner=left.fragment_owner(), changed=left.changed_objects(),
        plain_ids=left.plain_ids() or None,
    )


def _without(store: Dict[ObjectId, V], gone: Set[ObjectId]) -> Dict[ObjectId, V]:
    """*store* less the keys in *gone* (all of them its own): itself when
    none goes."""
    if not gone:
        return store
    out = dict(store)
    for key in gone:
        del out[key]
    return out
