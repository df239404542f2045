"""The Path Property Graph (PPG) — Definition 2.1 of the paper.

A PPG is a tuple ``G = (N, E, P, rho, delta, lambda, sigma)`` where

* ``N``, ``E``, ``P`` are pairwise-disjoint finite sets of node, edge and
  path identifiers,
* ``rho : E -> N x N`` assigns endpoints to edges,
* ``delta : P -> FLIST(N u E)`` assigns to each stored path an alternating
  sequence ``[a1, e1, a2, ..., an, en, an+1]`` of adjacent nodes and edges,
* ``lambda`` assigns a finite set of labels to every node, edge and path,
* ``sigma`` assigns a finite set of literal values to every
  (object, property-key) pair.

Instances of :class:`PathPropertyGraph` are immutable once constructed:
all query operations produce *new* graphs that may share identifiers with
their inputs — exactly the identity-respecting composability G-CORE
builds on (Section 3, "Construction that respects identities").
Use :class:`repro.model.builder.GraphBuilder` to assemble graphs.
"""

from __future__ import annotations

from itertools import chain, filterfalse
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import GraphModelError
from .values import Scalar, ValueSet, as_value_set, format_value_set

__all__ = ["ObjectId", "PathPropertyGraph", "path_nodes", "path_edges"]

ObjectId = Hashable

#: Id types of :meth:`PathPropertyGraph.plain_ids`: ``1``, ``1.0`` and ``True``
#: are equal ids spelled differently, and a ``str`` never equals an ``int``.
PLAIN_ID_TYPES = frozenset((str, int))
PropertyMap = Mapping[str, ValueSet]

#: PATH-view segment relations and path finders one graph epoch keeps.
_EPOCH_MEMO_SLOTS = 16

#: The label indexes, in the order :func:`_kind` numbers object kinds.
_LABEL_INDEX_SLOTS = ("_node_label_index", "_edge_label_index", "_path_label_index")


def path_nodes(sequence: Sequence[ObjectId]) -> Tuple[ObjectId, ...]:
    """The ``nodes(p)`` list of a path sequence (positions 0, 2, 4, ...)."""
    return tuple(sequence[0::2])


def path_edges(sequence: Sequence[ObjectId]) -> Tuple[ObjectId, ...]:
    """The ``edges(p)`` list of a path sequence (positions 1, 3, 5, ...)."""
    return tuple(sequence[1::2])


class PathPropertyGraph:
    """An immutable Path Property Graph.

    Parameters mirror Definition 2.1. ``labels`` and ``properties`` may
    mention only identifiers present in ``nodes | edges | paths``; property
    values are normalized to frozensets via
    :func:`repro.model.values.as_value_set`.
    """

    __slots__ = (
        "_nodes",
        "_edges",
        "_paths",
        "_rho",
        "_delta",
        "_labels",
        "_props",
        "_name",
        "_node_label_index",
        "_edge_label_index",
        "_path_label_index",
        "_adjacency_cache",
        "_property_indexes",
        "_epoch_memo",
        "_statistics",
        "_owner",
        "_changed",
        "_fragments",
        "_wire_sections",
        "_plain_ids",
        "__weakref__",  # an old catalog version is freed: weakrefs tell
    )

    def __init__(
        self,
        nodes: Iterable[ObjectId] = (),
        edges: Mapping[ObjectId, Tuple[ObjectId, ObjectId]] = None,
        paths: Mapping[ObjectId, Sequence[ObjectId]] = None,
        labels: Mapping[ObjectId, Iterable[str]] = None,
        properties: Mapping[ObjectId, Mapping[str, Any]] = None,
        name: str = "",
        validate: bool = True,
    ) -> None:
        self._nodes: FrozenSet[ObjectId] = frozenset(nodes)
        self._rho: Dict[ObjectId, Tuple[ObjectId, ObjectId]] = dict(edges or {})
        self._edges: FrozenSet[ObjectId] = frozenset(self._rho)
        self._delta: Dict[ObjectId, Tuple[ObjectId, ...]] = {
            pid: tuple(seq) for pid, seq in (paths or {}).items()
        }
        self._paths: FrozenSet[ObjectId] = frozenset(self._delta)
        self._labels: Dict[ObjectId, FrozenSet[str]] = {
            obj: frozenset(lbls) for obj, lbls in (labels or {}).items() if lbls
        }
        self._props: Dict[ObjectId, Dict[str, ValueSet]] = {}
        for obj, mapping in (properties or {}).items():
            normalized = {}
            for key, value in mapping.items():
                value_set = as_value_set(value)
                if value_set:
                    normalized[key] = value_set
            if normalized:
                self._props[obj] = normalized
        self._name = name
        self._node_label_index: Optional[Dict[str, FrozenSet[ObjectId]]] = None
        self._edge_label_index: Optional[Dict[str, FrozenSet[ObjectId]]] = None
        self._path_label_index: Optional[Dict[str, FrozenSet[ObjectId]]] = None
        self._adjacency_cache: Dict[
            Tuple[str, Optional[str]], Dict[ObjectId, Tuple[ObjectId, ...]]
        ] = {}
        self._property_indexes: Dict[
            str, Dict[Scalar, Tuple[ObjectId, ...]]
        ] = {}
        self._epoch_memo: Dict[Hashable, Any] = {}
        self._statistics = None
        self._owner: Optional[PathPropertyGraph] = None
        self._changed: Optional[AbstractSet[ObjectId]] = None
        self._fragments: Optional[Dict[ObjectId, bytes]] = {} if name else None
        # an owner's fragments in sorted arrays, built by model.io lazily
        self._wire_sections: Any = None
        self._plain_ids: Optional[bool] = None
        if validate:
            self._check_invariants()

    @classmethod
    def _assemble_normalized(
        cls,
        nodes: FrozenSet[ObjectId],
        edges: Dict[ObjectId, Tuple[ObjectId, ObjectId]],
        paths: Dict[ObjectId, Tuple[ObjectId, ...]],
        labels: Dict[ObjectId, FrozenSet[str]],
        props: Dict[ObjectId, Dict[str, ValueSet]],
        name: str = "",
        owner: Optional["PathPropertyGraph"] = None,
        base: Optional["PathPropertyGraph"] = None,
        changed: Optional[AbstractSet[ObjectId]] = None,
        plain_ids: Optional[bool] = None,
    ) -> "PathPropertyGraph":
        """Assemble a graph from already-normalized, already-valid parts.

        Used by the set operations in :mod:`repro.model.setops`, whose
        inputs are existing (hence valid) graphs: unions/intersections/
        differences of valid graphs cannot violate Definition 2.1, and
        their label/property stores are already frozensets — skipping
        re-validation and re-normalization keeps CONSTRUCT's output
        assembly off the hot path. The argument dicts (and the objects
        in them) are adopted, so *labels* and *props* must hold no empty
        entries; *owner*, *changed* and *plain_ids* become what the
        methods of those names return. An *edges* or *paths* dict that is
        *base*'s own store reuses its identifier set.
        """
        graph = cls.__new__(cls)
        graph._nodes = frozenset(nodes)
        graph._rho = edges
        graph._edges = (
            base._edges if base is not None and edges is base._rho
            else frozenset(edges)
        )
        graph._delta = paths
        graph._paths = (
            base._paths if base is not None and paths is base._delta
            else frozenset(paths)
        )
        graph._labels = labels
        graph._props = props
        graph._name = name
        graph._node_label_index = None
        graph._edge_label_index = None
        graph._path_label_index = None
        graph._adjacency_cache = {}
        graph._property_indexes = {}
        graph._epoch_memo = {}
        graph._statistics = None
        graph._owner = None if name else owner
        graph._changed = None if name or owner is None else changed
        graph._fragments = {} if name else None
        graph._wire_sections = None
        graph._plain_ids = plain_ids
        return graph

    # ------------------------------------------------------------------
    # Invariants (Definition 2.1)
    # ------------------------------------------------------------------
    def _check_invariants(self) -> None:
        if self._nodes & self._edges or self._nodes & self._paths or (
            self._edges & self._paths
        ):
            raise GraphModelError("node/edge/path identifier sets must be disjoint")
        for edge, (src, dst) in self._rho.items():
            if src not in self._nodes or dst not in self._nodes:
                raise GraphModelError(
                    f"edge {edge!r} has endpoint outside the node set: {(src, dst)!r}"
                )
        for pid, seq in self._delta.items():
            self._check_path_sequence(pid, seq)
        known = self._nodes | self._edges | self._paths
        for obj in self._labels:
            if obj not in known:
                raise GraphModelError(f"label assigned to unknown identifier {obj!r}")
        for obj in self._props:
            if obj not in known:
                raise GraphModelError(
                    f"property assigned to unknown identifier {obj!r}"
                )

    def _check_path_sequence(self, pid: ObjectId, seq: Tuple[ObjectId, ...]) -> None:
        if len(seq) % 2 == 0 or not seq:
            raise GraphModelError(
                f"path {pid!r} must alternate nodes and edges and start/end "
                f"with a node; got length {len(seq)}"
            )
        for position, obj in enumerate(seq):
            if position % 2 == 0:
                if obj not in self._nodes:
                    raise GraphModelError(
                        f"path {pid!r} position {position}: {obj!r} is not a node"
                    )
            else:
                if obj not in self._edges:
                    raise GraphModelError(
                        f"path {pid!r} position {position}: {obj!r} is not an edge"
                    )
        for j in range(1, len(seq), 2):
            edge = seq[j]
            before, after = seq[j - 1], seq[j + 1]
            src, dst = self._rho[edge]
            if (src, dst) != (before, after) and (src, dst) != (after, before):
                raise GraphModelError(
                    f"path {pid!r}: edge {edge!r} does not connect "
                    f"{before!r} and {after!r}"
                )

    # ------------------------------------------------------------------
    # Components
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The catalog name this graph was registered under (may be '')."""
        return self._name

    @property
    def nodes(self) -> FrozenSet[ObjectId]:
        """The node identifier set ``N``."""
        return self._nodes

    @property
    def edges(self) -> FrozenSet[ObjectId]:
        """The edge identifier set ``E``."""
        return self._edges

    @property
    def paths(self) -> FrozenSet[ObjectId]:
        """The stored-path identifier set ``P``."""
        return self._paths

    @property
    def rho(self) -> Mapping[ObjectId, Tuple[ObjectId, ObjectId]]:
        """The endpoint assignment ``rho`` as a read-only mapping."""
        return dict(self._rho)

    @property
    def delta(self) -> Mapping[ObjectId, Tuple[ObjectId, ...]]:
        """The path assignment ``delta`` as a read-only mapping."""
        return dict(self._delta)

    def endpoints(self, edge: ObjectId) -> Tuple[ObjectId, ObjectId]:
        """``rho(edge)`` — the (source, target) pair of an edge."""
        try:
            return self._rho[edge]
        except KeyError:
            raise GraphModelError(f"unknown edge: {edge!r}") from None

    def source(self, edge: ObjectId) -> ObjectId:
        """The starting node of *edge*."""
        return self.endpoints(edge)[0]

    def target(self, edge: ObjectId) -> ObjectId:
        """The ending node of *edge*."""
        return self.endpoints(edge)[1]

    def path_sequence(self, path: ObjectId) -> Tuple[ObjectId, ...]:
        """``delta(path)`` — the alternating node/edge sequence."""
        try:
            return self._delta[path]
        except KeyError:
            raise GraphModelError(f"unknown path: {path!r}") from None

    def path_nodes(self, path: ObjectId) -> Tuple[ObjectId, ...]:
        """``nodes(path)`` as defined in Section 2."""
        return path_nodes(self.path_sequence(path))

    def path_edges(self, path: ObjectId) -> Tuple[ObjectId, ...]:
        """``edges(path)`` as defined in Section 2."""
        return path_edges(self.path_sequence(path))

    def path_length(self, path: ObjectId) -> int:
        """The number of edges of a stored path."""
        return len(self.path_edges(path))

    # ------------------------------------------------------------------
    # Labels and properties
    # ------------------------------------------------------------------
    def labels(self, obj: ObjectId) -> FrozenSet[str]:
        """``lambda(obj)`` — the (possibly empty) label set of an object."""
        return self._labels.get(obj, frozenset())

    def has_label(self, obj: ObjectId, label: str) -> bool:
        """True iff *label* is one of ``lambda(obj)``."""
        return label in self._labels.get(obj, frozenset())

    def properties(self, obj: ObjectId) -> Dict[str, ValueSet]:
        """All defined properties of *obj* as ``{key: value-set}``."""
        return dict(self._props.get(obj, {}))

    def property(self, obj: ObjectId, key: str) -> ValueSet:
        """``sigma(obj, key)``; the empty set when the property is absent."""
        return self._props.get(obj, {}).get(key, frozenset())

    def label_map(self) -> Dict[ObjectId, FrozenSet[str]]:
        """A copy of the full ``lambda`` assignment (non-empty entries)."""
        return dict(self._labels)

    def property_map(self) -> Dict[ObjectId, Dict[str, ValueSet]]:
        """A copy of the full ``sigma`` assignment (non-empty entries)."""
        return {obj: dict(props) for obj, props in self._props.items()}

    # ------------------------------------------------------------------
    # Derived indexes (built lazily; the graph is immutable)
    # ------------------------------------------------------------------
    def out_edges(self, node: ObjectId) -> Tuple[ObjectId, ...]:
        """Edges whose source is *node* (sorted by identifier string)."""
        return self._adjacency(True, None).get(node, ())

    def in_edges(self, node: ObjectId) -> Tuple[ObjectId, ...]:
        """Edges whose target is *node* (sorted by identifier string)."""
        return self._adjacency(False, None).get(node, ())

    def degree(self, node: ObjectId) -> int:
        """Total degree (in + out) of *node*."""
        return len(self.out_edges(node)) + len(self.in_edges(node))

    def out_adjacency(
        self, label: Optional[str] = None
    ) -> Dict[ObjectId, Tuple[ObjectId, ...]]:
        """Label-bucketed forward adjacency: ``{node: (edges...)}``.

        With a *label*, only edges carrying it appear; with None, all
        edges. Edge lists are sorted by identifier string, so columnar
        expansion emits candidates in a deterministic order.
        Buckets are built lazily once per (direction, label) and cached —
        the graph is immutable. Nodes without matching edges are omitted
        (probe with ``.get(node, ())``).
        """
        return self._adjacency(True, label)

    def in_adjacency(
        self, label: Optional[str] = None
    ) -> Dict[ObjectId, Tuple[ObjectId, ...]]:
        """Label-bucketed reverse adjacency: ``{node: (edges...)}``."""
        return self._adjacency(False, label)

    def _adjacency(
        self, forward: bool, label: Optional[str]
    ) -> Dict[ObjectId, Tuple[ObjectId, ...]]:
        key = ("out" if forward else "in", label)
        cached = self._adjacency_cache.get(key)
        if cached is not None:
            return cached
        if label is None:
            edges: Iterable[ObjectId] = self._edges
        else:
            edges = self.edges_with_label(label)
        buckets: Dict[ObjectId, List[ObjectId]] = {}
        for edge in edges:
            src, dst = self._rho[edge]
            endpoint = src if forward else dst
            buckets.setdefault(endpoint, []).append(edge)
        index = {
            node: tuple(sorted(bucket, key=str))
            for node, bucket in buckets.items()
        }
        self._adjacency_cache[key] = index
        return index

    def _build_label_indexes(self) -> None:
        node_idx: Dict[str, set] = {}
        edge_idx: Dict[str, set] = {}
        path_idx: Dict[str, set] = {}
        for obj, lbls in self._labels.items():
            if obj in self._nodes:
                target = node_idx
            elif obj in self._edges:
                target = edge_idx
            else:
                target = path_idx
            for label in lbls:
                target.setdefault(label, set()).add(obj)
        self._node_label_index = {l: frozenset(s) for l, s in node_idx.items()}
        self._edge_label_index = {l: frozenset(s) for l, s in edge_idx.items()}
        self._path_label_index = {l: frozenset(s) for l, s in path_idx.items()}

    def nodes_with_label(self, label: str) -> FrozenSet[ObjectId]:
        """All nodes carrying *label* (indexed)."""
        if self._node_label_index is None:
            self._build_label_indexes()
        return self._node_label_index.get(label, frozenset())

    def edges_with_label(self, label: str) -> FrozenSet[ObjectId]:
        """All edges carrying *label* (indexed)."""
        if self._edge_label_index is None:
            self._build_label_indexes()
        return self._edge_label_index.get(label, frozenset())

    def paths_with_label(self, label: str) -> FrozenSet[ObjectId]:
        """All stored paths carrying *label* (indexed)."""
        if self._path_label_index is None:
            self._build_label_indexes()
        return self._path_label_index.get(label, frozenset())

    def property_index(self, key: str) -> Mapping[Scalar, Tuple[ObjectId, ...]]:
        """Value index of one property key: ``{value: (carriers...)}``.

        A carrier of *value* is any node, edge or path whose
        ``sigma(obj, key)`` contains it, so a multi-valued carrier is
        listed under each of its values. Keys follow Python equality
        (``1``, ``1.0`` and ``TRUE`` share an entry) — a lookup proposes
        candidates, the G-CORE comparison (:func:`gcore_equals`, which
        tells them apart) still decides. Built in one sweep on first use
        and cached; the graph is immutable, so like the label and
        adjacency indexes it is never invalidated, only dropped with the
        graph — or inherited, patched, by the next epoch
        (:meth:`_inherit_indexes`).
        """
        index = self._property_indexes.get(key)
        if index is None:
            index = self._build_property_index(key)
            self._property_indexes[key] = index
        return index

    def _build_property_index(self, key: str) -> Dict[Scalar, Tuple[ObjectId, ...]]:
        carriers: Dict[Scalar, List[ObjectId]] = {}
        for obj, props in self._props.items():
            for value in props.get(key, ()):
                carriers.setdefault(value, []).append(obj)
        return {value: tuple(objs) for value, objs in carriers.items()}

    def built_property_indexes(self) -> Tuple[str, ...]:
        """The keys :meth:`property_index` has been built for (sorted)."""
        return tuple(sorted(self._property_indexes))

    def _inherit_indexes(self, base: "PathPropertyGraph", effects) -> None:
        """Adopt every index *base* has built, patched from *effects*.

        *self* is what :func:`~repro.model.delta.apply_delta` made of
        *base*; *effects* is its ``DeltaEffects``. Each adopted index
        equals a fresh build on *self* (value-index carriers up to
        order): shared if the delta leaves it alone, else a patched copy,
        so readers pinned to *base* see what they saw. Unbuilt indexes
        stay lazy. Readers may be building *base*'s indexes meanwhile, so
        caches are copied before iterating and the label-index slots
        count as built once the last-assigned one is. The wire-fragment
        store is inherited less the touched objects: the others keep their
        very label sets, property dicts and tuples, so their entries hold.
        """
        touched = effects.touched
        if base._fragments:
            fragments = base._fragments.copy()  # atomic while readers fill it
            for obj in touched:
                fragments.pop(obj, None)
            self._fragments = fragments
        if base._path_label_index is not None:
            for kind, slot in enumerate(_LABEL_INDEX_SLOTS):
                gone, came = _moves(touched, base, self, lambda g, obj: (
                    g._labels.get(obj, ()) if _kind(g, obj) == kind else ()
                ))
                setattr(self, slot, _patched(
                    getattr(base, slot), gone, came, _merge_members
                ))
        for (direction, label), index in base._adjacency_cache.copy().items():
            side = 0 if direction == "out" else 1
            gone, came = _moves(touched, base, self, lambda g, obj: (
                (g._rho[obj][side],)
                if obj in g._rho
                and (label is None or label in g._labels.get(obj, ()))
                else ()
            ))
            self._adjacency_cache[(direction, label)] = _patched(
                index, gone, came, _merge_bucket
            )
        for key, index in base._property_indexes.copy().items():
            gone, came = _moves(touched, base, self, lambda g, obj: (
                g._props.get(obj, {}).get(key, ())
            ))
            self._property_indexes[key] = _patched(
                index, gone, came, _merge_carriers
            )

    def epoch_memo(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The PATH-view segments or path finder under *key*, from
        *build()* on a miss. Like :meth:`property_index` never invalidated
        (a new epoch is a new graph, starting empty), but bounded: a full
        memo is emptied before the next entry goes in.
        """
        memo = self._epoch_memo
        value = memo.get(key)
        if value is None:
            value = build()
            if len(memo) >= _EPOCH_MEMO_SLOTS:
                memo.clear()
            memo[key] = value
        return value

    def statistics(self):
        """Summary statistics for cost-based planning (lazily cached).

        Returns a :class:`~repro.model.statistics.GraphStatistics`; the
        graph is immutable, so the first call computes it and later calls
        are O(1). The planner consults these counts to estimate atom
        cardinalities (see :mod:`repro.eval.planner`).
        """
        if self._statistics is None:
            from .statistics import GraphStatistics  # local import: cycle

            self._statistics = GraphStatistics(self)
        return self._statistics

    def cached_statistics(self):
        """The statistics if already computed, else None (no side effect).

        The delta layer uses this to decide whether incremental
        statistics adjustment is worthwhile: a graph that never computed
        statistics keeps its lazy slot empty and pays the full build only
        if the planner ever asks.
        """
        return self._statistics

    def adopt_statistics(self, statistics) -> None:
        """Install precomputed statistics (the incremental-adjustment hook).

        Caller contract: *statistics* must describe exactly this graph —
        :meth:`GraphStatistics.apply_delta
        <repro.model.statistics.GraphStatistics.apply_delta>` results
        only.
        """
        self._statistics = statistics

    # ------------------------------------------------------------------
    # Whole-graph views
    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        """True iff the graph has no nodes (hence no edges or paths)."""
        return not self._nodes

    def order(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    def size(self) -> int:
        """Number of edges."""
        return len(self._edges)

    def with_name(self, name: str) -> "PathPropertyGraph":
        """A shallow copy of this graph carrying a catalog *name*."""
        clone = PathPropertyGraph.__new__(PathPropertyGraph)
        for slot in PathPropertyGraph.__slots__[:-1]:  # not __weakref__
            setattr(clone, slot, getattr(self, slot))
        clone._name = name
        clone._owner = None if name else self.fragment_owner()
        clone._changed = None if name else self.changed_objects()
        clone._fragments = {} if name else None
        clone._wire_sections = None
        return clone

    def fragment_owner(self) -> Optional["PathPropertyGraph"]:
        """The named graph whose encoded objects this graph may reuse.

        A named (catalog) graph owns itself and a store of its own; an
        unnamed copy or a set-operation result has its source's (larger
        operand's) owner; any other graph has none. See
        :func:`repro.model.io.encode_graph`.
        """
        return self if self._name else self._owner

    def changed_objects(self) -> Optional[AbstractSet[ObjectId]]:
        """The objects whose label set, property dict or endpoint or
        sequence tuple may not be the fragment owner's very own (``is``):
        ∅ for a named graph, derived from the operands' for a set-operation
        result (:mod:`repro.model.setops`), None when unknown."""
        return frozenset() if self._name else self._changed

    def plain_ids(self) -> bool:
        """True iff every identifier is exactly a ``str`` or an ``int``:
        scanned once, or known from set-operation operands (``setops``)."""
        if self._plain_ids is None:  # racing scans agree
            self._plain_ids = PLAIN_ID_TYPES.issuperset(
                map(type, chain(self._nodes, self._edges, self._paths)))
        return self._plain_ids

    def wire_fragment_count(self) -> int:
        """How many encoded objects this graph's fragment store holds."""
        return len(self._fragments or ())

    def consistent_with(self, other: "PathPropertyGraph") -> bool:
        """The consistency condition of Appendix A.5.

        Two graphs are consistent when shared edges agree on endpoints and
        shared paths agree on their sequences.
        """
        for edge in self._edges & other._edges:
            if self._rho[edge] != other._rho[edge]:
                return False
        for pid in self._paths & other._paths:
            if self._delta[pid] != other._delta[pid]:
                return False
        return True

    def objects(self) -> Iterator[ObjectId]:
        """Iterate over every identifier of the graph (nodes, edges, paths)."""
        yield from self._nodes
        yield from self._edges
        yield from self._paths

    def __contains__(self, obj: ObjectId) -> bool:
        return obj in self._nodes or obj in self._edges or obj in self._paths

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathPropertyGraph):
            return NotImplemented
        return (
            self._nodes == other._nodes
            and self._rho == other._rho
            and self._delta == other._delta
            and self._labels == other._labels
            and self._props == other._props
        )

    def __hash__(self) -> int:  # identity hashing; structural eq is explicit
        return id(self)

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return (
            f"<PathPropertyGraph{label}: {len(self._nodes)} nodes, "
            f"{len(self._edges)} edges, {len(self._paths)} paths>"
        )

    def describe(self) -> str:
        """A multi-line, deterministic dump used by tests and examples."""
        lines = [repr(self)]
        for node in sorted(self._nodes, key=str):
            lines.append(f"  node {node!r} {self._format_obj(node)}")
        for edge in sorted(self._edges, key=str):
            src, dst = self._rho[edge]
            lines.append(
                f"  edge {edge!r} ({src!r})->({dst!r}) {self._format_obj(edge)}"
            )
        for pid in sorted(self._paths, key=str):
            lines.append(
                f"  path {pid!r} {list(self._delta[pid])!r} {self._format_obj(pid)}"
            )
        return "\n".join(lines)

    def _format_obj(self, obj: ObjectId) -> str:
        labels = ":".join(sorted(self.labels(obj)))
        props = ", ".join(
            f"{key}={format_value_set(values)}"
            for key, values in sorted(self.properties(obj).items())
        )
        parts = []
        if labels:
            parts.append(f":{labels}")
        if props:
            parts.append("{" + props + "}")
        return " ".join(parts)


# ----------------------------------------------------------------------
# Index patching (PathPropertyGraph._inherit_indexes)
# ----------------------------------------------------------------------
def _kind(graph: PathPropertyGraph, obj: ObjectId) -> int:
    """Which label index holds *obj*: 0 node, 1 edge, 2 path. An object
    absent from *graph* carries no labels there, so its answer is unused."""
    return 0 if obj in graph._nodes else 1 if obj in graph._rho else 2


def _moves(objects, base, graph, keys: Callable) -> Tuple[Dict, Dict]:
    """The index keys each of *objects* leaves (*gone*) and enters
    (*came*) from *base* to *graph*; ``keys(g, obj)`` lists them in g."""
    gone: Dict = {}
    came: Dict = {}
    for obj in objects:
        was, now = keys(base, obj), keys(graph, obj)
        if was != now:
            for key in was:
                gone.setdefault(key, set()).add(obj)
            for key in now:
                came.setdefault(key, set()).add(obj)
    return gone, came


def _patched(index: Dict, gone: Dict, came: Dict, merge: Callable) -> Dict:
    """A copy of *index* with each key of *gone* / *came* re-merged by
    ``merge(old, gone, came)`` (empty results dropped); *index* itself
    when the delta changes none of its entries."""
    if not gone and not came:
        return index
    patched = dict(index)
    for key in gone.keys() | came.keys():
        merged = merge(index.get(key, ()), gone.get(key, ()), came.get(key, ()))
        if merged:
            patched[key] = merged
        else:
            patched.pop(key, None)
    return patched


def _merge_members(old, gone, came) -> FrozenSet[ObjectId]:
    return frozenset(old).difference(gone).union(came)


def _merge_bucket(old, gone, came) -> Tuple[ObjectId, ...]:
    return tuple(sorted(set(old).difference(gone).union(came), key=str))


def _merge_carriers(old, gone, came) -> Tuple[ObjectId, ...]:
    return (*filterfalse(gone.__contains__, old), *came)
