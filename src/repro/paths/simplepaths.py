"""The *simple-path* baseline G-CORE deliberately avoids.

Appendix A.1: "checking if there is a simple path in an extended property
graph whose label satisfies a fixed regular expression is an NP-complete
problem [Mendelzon & Wood 1995]". G-CORE therefore adopts arbitrary-walk
semantics. To reproduce the paper's tractability argument empirically we
also implement the rejected alternative: exhaustive enumeration of simple
(node-disjoint) conforming paths. The complexity benchmarks contrast its
exponential blow-up with the polynomial product-graph search.
"""

from __future__ import annotations

from typing import Iterator, Optional, Set, Tuple

from ..model.graph import ObjectId, PathPropertyGraph
from .automaton import NFA
from .product import PathFinder
from .walk import Walk

__all__ = ["enumerate_simple_paths", "simple_path_exists", "count_simple_paths"]


def enumerate_simple_paths(
    graph: PathPropertyGraph,
    nfa: NFA,
    source: ObjectId,
    target: Optional[ObjectId] = None,
    limit: Optional[int] = None,
) -> Iterator[Walk]:
    """Enumerate conforming *simple* paths (no repeated node) by DFS.

    Worst-case exponential in the graph size — this is the point. The
    optional *limit* bounds the number of yielded walks.
    """
    if source not in graph.nodes:
        return
    finder = PathFinder(graph, nfa)
    produced = 0

    def dfs(
        node: ObjectId,
        state: int,
        sequence: Tuple[ObjectId, ...],
        visited: Set[ObjectId],
    ) -> Iterator[Walk]:
        nonlocal produced
        if nfa.is_accepting(state) and (target is None or node == target):
            produced += 1
            yield Walk(sequence, float(len(sequence) // 2))
        if limit is not None and produced >= limit:
            return
        for _, extension, _, next_node, next_state in finder.moves(node, state):
            if extension and next_node in visited:
                continue
            next_visited = visited | {next_node} if extension else visited
            yield from dfs(
                next_node, next_state, sequence + extension, next_visited
            )
            if limit is not None and produced >= limit:
                return

    yield from dfs(source, nfa.start, (source,), {source})


def simple_path_exists(
    graph: PathPropertyGraph,
    nfa: NFA,
    source: ObjectId,
    target: ObjectId,
) -> bool:
    """Does a conforming simple path source -> target exist? (NP-hard.)"""
    for _ in enumerate_simple_paths(graph, nfa, source, target, limit=1):
        return True
    return False


def count_simple_paths(
    graph: PathPropertyGraph,
    nfa: NFA,
    source: ObjectId,
    target: Optional[ObjectId] = None,
    limit: Optional[int] = None,
) -> int:
    """Count conforming simple paths (bounded by *limit* if given)."""
    return sum(1 for _ in enumerate_simple_paths(graph, nfa, source, target, limit))
