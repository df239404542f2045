"""Walk values — computed paths bound to path variables.

A MATCH path pattern ``x -p in r-> y`` binds ``p`` to a *fresh* path (a
walk) computed by the engine (Appendix A.2: "a fresh path identifier
associated to the shortest path L"). :class:`Walk` is that value: the
alternating node/edge sequence plus the cost under which it was found.
Walks are immutable and hashable so they can live inside bindings; the
CONSTRUCT evaluator turns them into stored paths with real identifiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..model.graph import ObjectId, path_edges, path_nodes

__all__ = ["Walk", "AllPathsHandle", "walk_key"]


def walk_key(sequence: Tuple[ObjectId, ...]) -> Tuple[str, ...]:
    """The lexicographic tie-breaking key of a walk sequence.

    Equal-cost walks are ordered by the string form of their identifier
    sequence (Appendix A footnote 4), making every search in
    :mod:`repro.paths.product` fully deterministic. The batched engine
    builds these keys incrementally (parent key + extension) instead of
    re-stringifying whole sequences per heap push.
    """
    return tuple(map(str, sequence))


@dataclass(frozen=True)
class Walk:
    """A concrete walk through a graph with its accumulated cost."""

    sequence: Tuple[ObjectId, ...]
    cost: float = 0.0

    def __post_init__(self) -> None:
        if len(self.sequence) % 2 == 0 or not self.sequence:
            raise ValueError("a walk must alternate nodes and edges")

    @property
    def source(self) -> ObjectId:
        """The first node of the walk."""
        return self.sequence[0]

    @property
    def target(self) -> ObjectId:
        """The last node of the walk."""
        return self.sequence[-1]

    def nodes(self) -> Tuple[ObjectId, ...]:
        """``nodes(p)`` for a computed path."""
        return path_nodes(self.sequence)

    def edges(self) -> Tuple[ObjectId, ...]:
        """``edges(p)`` for a computed path."""
        return path_edges(self.sequence)

    def length(self) -> int:
        """Hop count (number of edges)."""
        return len(self.sequence) // 2

    def concat(self, other: "Walk") -> "Walk":
        """Concatenate two walks sharing an endpoint."""
        if self.target != other.source:
            raise ValueError("walks do not share an endpoint")
        return Walk(self.sequence + other.sequence[1:], self.cost + other.cost)

    def key(self) -> Tuple[str, ...]:
        """This walk's lexicographic tie-breaking key (:func:`walk_key`)."""
        return walk_key(self.sequence)

    def __repr__(self) -> str:
        return f"Walk({list(self.sequence)!r}, cost={self.cost})"


@dataclass(frozen=True)
class AllPathsHandle:
    """The value bound by an ``ALL p <r>`` pattern.

    The paper restricts ALL-path variables to graph projection (Section 3),
    since materializing all walks may be infinite. The handle carries the
    *projection* — every node and edge lying on some conforming walk —
    computed without path enumeration (the tractable method of [10]).
    """

    source: ObjectId
    target: ObjectId
    nodes: Tuple[ObjectId, ...]
    edges: Tuple[ObjectId, ...]

    def __repr__(self) -> str:
        return (
            f"AllPathsHandle({self.source!r}->{self.target!r}, "
            f"{len(self.nodes)} nodes, {len(self.edges)} edges)"
        )
