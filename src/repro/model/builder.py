"""A mutable builder for :class:`~repro.model.graph.PathPropertyGraph`.

The graph class itself is immutable (queries produce new graphs); this
builder is how applications, the datasets package and the tests make
one. The CONSTRUCT evaluator does not use it: its ``_Piece`` objects
(:mod:`repro.eval.construct`) build through
``PathPropertyGraph._assemble_normalized``.

Example
-------
>>> from repro.model.builder import GraphBuilder
>>> b = GraphBuilder()
>>> alice = b.add_node(labels=["Person"], properties={"name": "Alice"})
>>> bob = b.add_node(labels=["Person"], properties={"name": "Bob"})
>>> e = b.add_edge(alice, bob, labels=["knows"])
>>> g = b.build()
>>> g.has_label(alice, "Person")
True
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import GraphModelError
from .graph import ObjectId, PathPropertyGraph
from .values import as_value_set

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Accumulates nodes, edges and stored paths, then freezes into a PPG."""

    def __init__(self, name: str = "") -> None:
        self._name = name
        self._nodes: List[ObjectId] = []
        self._node_set: set = set()
        self._edges: Dict[ObjectId, Tuple[ObjectId, ObjectId]] = {}
        self._paths: Dict[ObjectId, Tuple[ObjectId, ...]] = {}
        self._labels: Dict[ObjectId, set] = {}
        self._props: Dict[ObjectId, Dict[str, frozenset]] = {}
        self._counter = 0

    # ------------------------------------------------------------------
    def _fresh_id(self, prefix: str) -> str:
        while True:
            self._counter += 1
            candidate = f"{prefix}{self._counter}"
            if (
                candidate not in self._node_set
                and candidate not in self._edges
                and candidate not in self._paths
            ):
                return candidate

    def _register_labels(self, obj: ObjectId, labels: Iterable[str]) -> None:
        if labels:
            self._labels.setdefault(obj, set()).update(labels)

    def _register_props(self, obj: ObjectId, properties: Mapping[str, Any]) -> None:
        if not properties:
            return
        store = self._props.setdefault(obj, {})
        for key, value in properties.items():
            values = as_value_set(value)
            if values:
                store[key] = store.get(key, frozenset()) | values

    # ------------------------------------------------------------------
    def add_node(
        self,
        node_id: Optional[ObjectId] = None,
        labels: Iterable[str] = (),
        properties: Optional[Mapping[str, Any]] = None,
        **prop_kwargs: Any,
    ) -> ObjectId:
        """Add a node and return its identifier.

        ``properties`` and keyword arguments are merged; values may be
        scalars or collections (multi-valued properties).
        """
        if node_id is None:
            node_id = self._fresh_id("n")
        if node_id in self._edges or node_id in self._paths:
            raise GraphModelError(f"identifier {node_id!r} already used by an edge/path")
        if node_id not in self._node_set:
            self._node_set.add(node_id)
            self._nodes.append(node_id)
        self._register_labels(node_id, labels)
        merged = dict(properties or {})
        merged.update(prop_kwargs)
        self._register_props(node_id, merged)
        return node_id

    def add_edge(
        self,
        source: ObjectId,
        target: ObjectId,
        edge_id: Optional[ObjectId] = None,
        labels: Iterable[str] = (),
        properties: Optional[Mapping[str, Any]] = None,
        **prop_kwargs: Any,
    ) -> ObjectId:
        """Add an edge ``source -> target`` and return its identifier.

        Endpoints must have been added already; multiple parallel edges
        between the same endpoints are allowed (Definition 2.1).
        """
        if source not in self._node_set or target not in self._node_set:
            raise GraphModelError(
                f"edge endpoints must be existing nodes: {(source, target)!r}"
            )
        if edge_id is None:
            edge_id = self._fresh_id("e")
        if edge_id in self._node_set or edge_id in self._paths:
            raise GraphModelError(f"identifier {edge_id!r} already used by a node/path")
        if edge_id in self._edges and self._edges[edge_id] != (source, target):
            raise GraphModelError(
                f"edge {edge_id!r} re-added with different endpoints"
            )
        self._edges[edge_id] = (source, target)
        self._register_labels(edge_id, labels)
        merged = dict(properties or {})
        merged.update(prop_kwargs)
        self._register_props(edge_id, merged)
        return edge_id

    def add_path(
        self,
        sequence: Sequence[ObjectId],
        path_id: Optional[ObjectId] = None,
        labels: Iterable[str] = (),
        properties: Optional[Mapping[str, Any]] = None,
        **prop_kwargs: Any,
    ) -> ObjectId:
        """Add a stored path over existing nodes/edges and return its id.

        *sequence* is the alternating ``[a1, e1, a2, ..., en, an+1]`` list;
        adjacency is validated when the graph is built.
        """
        if path_id is None:
            path_id = self._fresh_id("p")
        if path_id in self._node_set or path_id in self._edges:
            raise GraphModelError(f"identifier {path_id!r} already used by a node/edge")
        self._paths[path_id] = tuple(sequence)
        self._register_labels(path_id, labels)
        merged = dict(properties or {})
        merged.update(prop_kwargs)
        self._register_props(path_id, merged)
        return path_id

    # ------------------------------------------------------------------
    def set_property(self, obj: ObjectId, key: str, value: Any) -> None:
        """Replace the value set of one property of an existing object."""
        if not self._known(obj):
            raise GraphModelError(f"unknown identifier: {obj!r}")
        values = as_value_set(value)
        store = self._props.setdefault(obj, {})
        if values:
            store[key] = values
        else:
            store.pop(key, None)

    def _known(self, obj: ObjectId) -> bool:
        return obj in self._node_set or obj in self._edges or obj in self._paths

    def __contains__(self, obj: ObjectId) -> bool:
        return self._known(obj)

    # ------------------------------------------------------------------
    def build(self) -> PathPropertyGraph:
        """Freeze the builder into an immutable, validated PPG."""
        return PathPropertyGraph(
            nodes=self._nodes,
            edges=self._edges,
            paths=self._paths,
            labels={obj: frozenset(lbls) for obj, lbls in self._labels.items()},
            properties=self._props,
            name=self._name,
        )
