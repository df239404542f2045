"""Graph deltas — the mutation layer over immutable Path Property Graphs.

:class:`PathPropertyGraph` is immutable (queries produce new graphs), so
"updating" a graph means producing a *new* graph that shares identifiers
with the old one. :class:`GraphDelta` is the description of such an
update: an ordered list of node/edge/label/property insertions and
removals, built with a chainable API::

    delta = (GraphDelta()
             .add_node("dave", labels=["Person"], properties={"score": 3})
             .add_edge("k9", "dave", "alice", labels=["knows"])
             .set_property("alice", "score", 7)
             .remove_edge("k3"))
    new_graph, effects = apply_delta(graph, delta)

:func:`apply_delta` validates every operation against the evolving graph
(unknown identifiers, endpoint existence, identifier-namespace clashes)
and raises :class:`~repro.errors.DeltaError` on the first violation.
Removing a node cascades to its incident edges and to stored paths
through it; removing an edge cascades to stored paths using it — the
result always satisfies Definition 2.1 without re-validation.

The returned :class:`DeltaEffects` summarizes what actually changed —
added/removed/modified object sets and the *touched node* closure
(modified nodes plus the endpoints of every touched edge) that the
incremental view-maintenance engine (:mod:`repro.eval.maintenance`) and
the statistics adjuster (:meth:`GraphStatistics.apply_delta
<repro.model.statistics.GraphStatistics.apply_delta>`) consume.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from ..errors import DeltaError
from .graph import ObjectId, PathPropertyGraph
from .values import ValueSet, as_value_set

__all__ = ["GraphDelta", "DeltaEffects", "apply_delta"]

#: The stores of the evolving graph each operation may write (cascades
#: included); :func:`apply_delta` copies those and shares the rest.
_WRITES = {
    "add_node": ("nodes", "labels", "props"),
    "remove_node": ("nodes", "rho", "paths", "labels", "props"),
    "add_edge": ("rho", "labels", "props"),
    "remove_edge": ("rho", "paths", "labels", "props"),
    "add_label": ("labels",), "remove_label": ("labels",),
    "set_property": ("props",), "remove_property": ("props",),
}


class GraphDelta:
    """An ordered batch of mutations against one base graph.

    Operations are recorded, not applied; :func:`apply_delta` (usually
    via :meth:`GCoreEngine.apply_update <repro.engine.GCoreEngine.apply_update>`)
    replays them against a graph. All builder methods return ``self`` so
    deltas can be written fluently.
    """

    __slots__ = ("ops",)

    def __init__(self) -> None:
        self.ops: List[Tuple[Any, ...]] = []

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def add_node(
        self,
        node_id: ObjectId,
        labels: Iterable[str] = (),
        properties: Optional[Mapping[str, Any]] = None,
    ) -> "GraphDelta":
        """Insert a fresh node with optional labels and properties."""
        self.ops.append(
            ("add_node", node_id, tuple(labels), dict(properties or {}))
        )
        return self

    def remove_node(self, node_id: ObjectId) -> "GraphDelta":
        """Remove a node, cascading to incident edges and paths through it."""
        self.ops.append(("remove_node", node_id))
        return self

    def add_edge(
        self,
        edge_id: ObjectId,
        source: ObjectId,
        target: ObjectId,
        labels: Iterable[str] = (),
        properties: Optional[Mapping[str, Any]] = None,
    ) -> "GraphDelta":
        """Insert a fresh edge between two existing nodes."""
        self.ops.append(
            ("add_edge", edge_id, source, target, tuple(labels),
             dict(properties or {}))
        )
        return self

    def remove_edge(self, edge_id: ObjectId) -> "GraphDelta":
        """Remove an edge, cascading to stored paths that use it."""
        self.ops.append(("remove_edge", edge_id))
        return self

    # ------------------------------------------------------------------
    # Label and property operations
    # ------------------------------------------------------------------
    def add_label(self, obj: ObjectId, label: str) -> "GraphDelta":
        """Attach *label* to an existing object."""
        self.ops.append(("add_label", obj, label))
        return self

    def remove_label(self, obj: ObjectId, label: str) -> "GraphDelta":
        """Detach *label* from an existing object (no-op when absent)."""
        self.ops.append(("remove_label", obj, label))
        return self

    def set_property(self, obj: ObjectId, key: str, value: Any) -> "GraphDelta":
        """Replace the value set of one property of an existing object."""
        self.ops.append(("set_property", obj, key, value))
        return self

    def remove_property(self, obj: ObjectId, key: str) -> "GraphDelta":
        """Drop one property of an existing object (no-op when absent)."""
        self.ops.append(("remove_property", obj, key))
        return self

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ops)

    def __bool__(self) -> bool:
        return bool(self.ops)

    def __repr__(self) -> str:
        kinds: Dict[str, int] = {}
        for op in self.ops:
            kinds[op[0]] = kinds.get(op[0], 0) + 1
        inner = ", ".join(f"{kind}x{kinds[kind]}" for kind in sorted(kinds))
        return f"<GraphDelta {len(self.ops)} ops: {inner or '-'}>"


class DeltaEffects:
    """What one applied delta actually changed (consumed by maintenance).

    ``touched`` is every object id whose existence, labels or properties
    differ between the old and new graph (cascaded removals included);
    ``touched_nodes`` additionally closes over edge endpoints — every
    binding row affected by the delta binds at least one touched node,
    which is what the incremental view-maintenance seeding relies on.
    """

    __slots__ = (
        "added_nodes",
        "removed_nodes",
        "added_edges",
        "removed_edges",
        "removed_paths",
        "modified",
        "touched",
        "touched_nodes",
    )

    def __init__(self) -> None:
        self.added_nodes: Set[ObjectId] = set()
        self.removed_nodes: Set[ObjectId] = set()
        self.added_edges: Dict[ObjectId, Tuple[ObjectId, ObjectId]] = {}
        self.removed_edges: Dict[ObjectId, Tuple[ObjectId, ObjectId]] = {}
        self.removed_paths: Set[ObjectId] = set()
        self.modified: Set[ObjectId] = set()
        self.touched: FrozenSet[ObjectId] = frozenset()
        self.touched_nodes: FrozenSet[ObjectId] = frozenset()

    def _finalize(
        self, edge_endpoints: Mapping[ObjectId, Tuple[ObjectId, ObjectId]]
    ) -> None:
        """Compute the touched closures (*edge_endpoints* covers modified
        edges still present in the new graph)."""
        touched: Set[ObjectId] = set()
        touched |= self.added_nodes | self.removed_nodes | self.modified
        touched |= set(self.added_edges) | set(self.removed_edges)
        touched |= self.removed_paths
        nodes: Set[ObjectId] = set(
            self.added_nodes | self.removed_nodes
        )
        nodes |= {obj for obj in self.modified if obj not in edge_endpoints}
        for endpoints in self.added_edges.values():
            nodes.update(endpoints)
        for endpoints in self.removed_edges.values():
            nodes.update(endpoints)
        for obj in self.modified:
            endpoints = edge_endpoints.get(obj)
            if endpoints is not None:
                nodes.update(endpoints)
        self.touched = frozenset(touched)
        self.touched_nodes = frozenset(nodes)

    def validation_targets(
        self, graph: Optional[PathPropertyGraph] = None
    ) -> FrozenSet[ObjectId]:
        """Objects a schema should re-check: added or modified survivors.

        With the post-delta *graph*, the set closes over the incident
        edges of added/modified nodes — an edge's schema admissibility
        depends on its endpoints' labels, so relabeling a node can
        invalidate edges the delta never named.
        """
        targets = set(
            self.added_nodes | set(self.added_edges) | self.modified
        )
        if graph is not None:
            for obj in list(targets):
                if obj in graph.nodes:
                    targets.update(graph.out_edges(obj))
                    targets.update(graph.in_edges(obj))
        return frozenset(targets)

    def __repr__(self) -> str:
        return (
            f"<DeltaEffects +{len(self.added_nodes)}n/+"
            f"{len(self.added_edges)}e -{len(self.removed_nodes)}n/-"
            f"{len(self.removed_edges)}e ~{len(self.modified)}>"
        )


def apply_delta(
    graph: PathPropertyGraph, delta: GraphDelta
) -> Tuple[PathPropertyGraph, DeltaEffects]:
    """Apply *delta* to *graph*, returning the new graph and its effects.

    Operations apply in order against the evolving state; the first
    invalid operation raises :class:`~repro.errors.DeltaError` (the input
    graph is never modified — graphs are immutable). The result is
    assembled through the normalized fast path: every operation preserves
    Definition 2.1 by construction, so no re-validation pass runs.

    The work is O(|delta|) apart from C-level shallow copies of the
    base's stores the delta writes (the others are shared): an object's
    property dict is copied just before its first change, a removed
    node's incident edges come from the base's adjacency, and the result
    inherits every index the base has built, patched from the effects
    (:meth:`PathPropertyGraph._inherit_indexes`).
    """
    writes = {store for op in delta.ops for store in _WRITES.get(op[0], ())}
    nodes = set(graph._nodes) if "nodes" in writes else graph._nodes
    rho = dict(graph._rho) if "rho" in writes else graph._rho
    paths = dict(graph._delta) if "paths" in writes else graph._delta
    labels = dict(graph._labels) if "labels" in writes else graph._labels
    props = dict(graph._props) if "props" in writes else graph._props
    owned: Set[ObjectId] = set()  # objects whose props dict is this delta's
    effects = DeltaEffects()
    modified_edge_endpoints: Dict[ObjectId, Tuple[ObjectId, ObjectId]] = {}
    # Stored paths by member, built on the first cascade that needs it.
    # No operation adds a path, so the base's paths cover every lookup.
    members: Optional[Dict[ObjectId, List[ObjectId]]] = None

    def paths_through(obj: ObjectId) -> List[ObjectId]:
        nonlocal members
        if members is None:
            members = {}
            for pid, seq in graph._delta.items():
                for member in set(seq):
                    members.setdefault(member, []).append(pid)
        return sorted(
            (pid for pid in members.get(obj, ()) if pid in paths), key=str
        )

    def own_props(obj: ObjectId) -> Dict[str, ValueSet]:
        store = props.get(obj)
        if store is None or obj not in owned:
            store = props[obj] = dict(store or ())
            owned.add(obj)
        return store

    def drop_property(obj: ObjectId, key: str) -> None:
        if key in props.get(obj, ()):
            store = own_props(obj)
            del store[key]
            if not store:
                del props[obj]

    def known(obj: ObjectId) -> bool:
        return obj in nodes or obj in rho or obj in paths

    def mark_modified(obj: ObjectId) -> None:
        if obj in effects.added_nodes or obj in effects.added_edges:
            return  # additions already carry their final labels/properties
        effects.modified.add(obj)
        if obj in rho:
            modified_edge_endpoints[obj] = rho[obj]

    def drop_object_annotations(obj: ObjectId) -> None:
        labels.pop(obj, None)
        props.pop(obj, None)
        effects.modified.discard(obj)
        modified_edge_endpoints.pop(obj, None)

    def drop_edge(edge: ObjectId) -> None:
        endpoints = rho.pop(edge)
        if edge in effects.added_edges:
            del effects.added_edges[edge]
        else:
            effects.removed_edges[edge] = endpoints
        drop_object_annotations(edge)
        for pid in paths_through(edge):
            drop_path(pid)

    def drop_path(pid: ObjectId) -> None:
        del paths[pid]
        effects.removed_paths.add(pid)
        drop_object_annotations(pid)

    for op in delta.ops:
        kind = op[0]
        if kind == "add_node":
            _, node_id, node_labels, node_props = op
            if known(node_id):
                raise DeltaError(
                    f"add_node: identifier {node_id!r} already exists"
                )
            nodes.add(node_id)
            effects.added_nodes.add(node_id)
            if node_labels:
                labels[node_id] = frozenset(node_labels)
            normalized = _normalize_props(node_props)
            if normalized:
                props[node_id] = normalized
                owned.add(node_id)
        elif kind == "remove_node":
            _, node_id = op
            if node_id not in nodes:
                raise DeltaError(f"remove_node: unknown node {node_id!r}")
            incident = {
                edge
                for edge in (*graph.out_edges(node_id),
                             *graph.in_edges(node_id), *effects.added_edges)
                if node_id in rho.get(edge, ())
            }
            for edge in sorted(incident, key=str):
                drop_edge(edge)
            for pid in paths_through(node_id):
                drop_path(pid)
            nodes.remove(node_id)
            if node_id in effects.added_nodes:
                effects.added_nodes.remove(node_id)
            else:
                effects.removed_nodes.add(node_id)
            drop_object_annotations(node_id)
        elif kind == "add_edge":
            _, edge_id, source, target, edge_labels, edge_props = op
            if known(edge_id):
                raise DeltaError(
                    f"add_edge: identifier {edge_id!r} already exists"
                )
            if source not in nodes or target not in nodes:
                raise DeltaError(
                    f"add_edge: endpoints must be existing nodes: "
                    f"{(source, target)!r}"
                )
            rho[edge_id] = (source, target)
            effects.added_edges[edge_id] = (source, target)
            if edge_labels:
                labels[edge_id] = frozenset(edge_labels)
            normalized = _normalize_props(edge_props)
            if normalized:
                props[edge_id] = normalized
                owned.add(edge_id)
        elif kind == "remove_edge":
            _, edge_id = op
            if edge_id not in rho:
                raise DeltaError(f"remove_edge: unknown edge {edge_id!r}")
            drop_edge(edge_id)
        elif kind == "add_label":
            _, obj, label = op
            if not known(obj):
                raise DeltaError(f"add_label: unknown identifier {obj!r}")
            labels[obj] = labels.get(obj, frozenset()) | {label}
            mark_modified(obj)
        elif kind == "remove_label":
            _, obj, label = op
            if not known(obj):
                raise DeltaError(f"remove_label: unknown identifier {obj!r}")
            current = labels.get(obj, frozenset())
            if label in current:
                remaining = current - {label}
                if remaining:
                    labels[obj] = remaining
                else:
                    labels.pop(obj, None)
            mark_modified(obj)
        elif kind == "set_property":
            _, obj, key, value = op
            if not known(obj):
                raise DeltaError(f"set_property: unknown identifier {obj!r}")
            values = as_value_set(value)
            if values:
                own_props(obj)[key] = values
            else:
                drop_property(obj, key)
            mark_modified(obj)
        elif kind == "remove_property":
            _, obj, key = op
            if not known(obj):
                raise DeltaError(
                    f"remove_property: unknown identifier {obj!r}"
                )
            drop_property(obj, key)
            mark_modified(obj)
        else:  # pragma: no cover - builder methods are the only writers
            raise DeltaError(f"unknown delta operation: {kind!r}")

    effects._finalize(modified_edge_endpoints)
    new_graph = PathPropertyGraph._assemble_normalized(
        frozenset(nodes), rho, paths, labels, props, name=graph.name,
        base=graph,
    )
    new_graph._inherit_indexes(graph, effects)
    return new_graph, effects


def _normalize_props(mapping: Mapping[str, Any]) -> Dict[str, ValueSet]:
    normalized: Dict[str, ValueSet] = {}
    for key, value in mapping.items():
        values = as_value_set(value)
        if values:
            normalized[key] = values
    return normalized
