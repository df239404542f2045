"""Product-graph path search: the Dijkstra half of Appendix A.1.

Evaluating a path pattern means searching the product of the data graph
with the regular expression's NFA. There is one search engine, the
:class:`PathFinder`. It keeps the frontier as *parent-pointer entries*:
a heap entry carries only ``(cost, key, id, node, state)`` and back-links
into flat ``parents``/``extensions`` arrays, so walks are reconstructed
lazily — only for entries that actually survive into results — instead
of copying a growing sequence tuple on every heap push. Expansion runs
over per-state *programs* compiled against the graph's label-bucketed
adjacency indexes and is memoized per ``(node, state)``, so all sources
of a batch share one search structure, as do all requests on one graph
epoch (the evaluator keeps its finders in the graph's epoch memo).

Every walk-ranked search is one k-scan (:meth:`PathFinder.k_shortest_multi`),
SHORTEST being 1 SHORTEST (Section 3). When every automaton arc costs 0
or 1 (no PATH-view arcs, :attr:`NFA.unit_cost`) the scan is
level-synchronous and keeps the exact lexicographic tie-break by ranking
each level's walks; otherwise it runs over a heap of ``(cost, walk key)``
entries and pushes nothing a state's k cheapest distinct pushes already
beat. It is property-tested against the definitions of
:mod:`repro.fuzz.oracle`.

Public searches:

* :meth:`PathFinder.k_shortest_multi` — the ``k SHORTEST`` semantics of
  Section 3 (k cheapest *distinct* conforming walks, ties broken by the
  fixed lexicographic order on identifier sequences, per Appendix A
  footnote 4; exact even when duplicate graph walks arise from distinct
  automaton runs): one scan per source for a whole target set
  (:meth:`~PathFinder.k_shortest` is its one-target wrapper),
* :meth:`PathFinder.shortest_multi` — SHORTEST: the k = 1 scan from each
  distinct source of a binding column (:meth:`~PathFinder.shortest` to
  one target),
* :meth:`PathFinder.best_costs` — SHORTEST when no walk is read: each
  target's cost from a frontier of best costs; no walk is built,
* :meth:`PathFinder.reachable_from` — the reachability-test semantics of
  bare ``-/<r>/->`` patterns (DFS, no cost bookkeeping;
  :meth:`~PathFinder.reachable_multi` runs it per distinct source),
* :meth:`PathFinder.all_paths_multi` — the tractable ALL-paths graph
  projection (reachable ∩ co-reachable product states, method [10]):
  one forward pass per source, one backward pass per target
  (:meth:`~PathFinder.all_paths_projection` is its one-target wrapper).

Edge arcs cost 1 (hop count — the paper's default path cost), node-test
arcs cost 0, and view arcs carry the PATH-clause cost of their segment
(validated > 0 at materialization, so Dijkstra's invariants hold).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    cast,
)

from ..model.graph import ObjectId, PathPropertyGraph
from .automaton import NFA
from .walk import Walk, walk_key

__all__ = ["ViewSegment", "PathFinder"]


@dataclass(frozen=True)
class ViewSegment:
    """One materialized segment of a PATH-clause view.

    ``sequence`` is the witness walk (alternating nodes/edges) from the
    segment's source to ``target``; ``cost`` is the evaluated COST
    expression (> 0).
    """

    target: ObjectId
    cost: float
    sequence: Tuple[ObjectId, ...]


ViewIndex = Mapping[str, Mapping[ObjectId, Tuple[ViewSegment, ...]]]

#: ``(cost, extension, extension key, next node, next state)``: one move.
_Move = Tuple[float, Tuple[ObjectId, ...], Tuple[str, ...], ObjectId, int]
#: ``(cost, walk key, entry, node, state)``: a keyed heap entry; the entry
#: index (push order) breaks ties.
_KeyedEntry = Tuple[float, Tuple[str, ...], int, ObjectId, int]

#: Entry sentinel: the root of a parent-pointer chain has no parent.
_NO_PARENT = -1


def _make_walk(sequence: Tuple[ObjectId, ...], cost: float) -> Walk:
    """Build a :class:`Walk` without re-validating the sequence.

    Parent-pointer reconstruction only ever produces well-formed
    alternating sequences, so the dataclass ``__init__``/``__post_init__``
    round-trip is skipped — measurable on searches that materialize
    thousands of surviving walks.
    """
    walk = Walk.__new__(Walk)
    object.__setattr__(walk, "sequence", sequence)
    object.__setattr__(walk, "cost", cost)
    return walk


def _extension_key(extension: Tuple[ObjectId, ...]) -> Tuple[str, ...]:
    """:func:`walk_key` of *extension*: the extension itself when all its
    ids are ``str`` (an equal key, one tuple fewer per move)."""
    if all(type(part) is str for part in extension):
        return cast(Tuple[str, ...], extension)
    return walk_key(extension)


def _admit(
    kept: Tuple[_KeyedEntry, ...], pushed: _KeyedEntry, k: int
) -> Optional[Tuple[_KeyedEntry, ...]]:
    """A product state's *kept* entries — its k cheapest pushes of distinct
    walks, sorted — with *pushed* admitted, or None if it is not one of
    them. A walk is kept once, at its cheapest cost."""
    if len(kept) >= k and kept[-1] <= pushed:
        return None
    key = pushed[1]
    for other in kept:
        if other[1] == key and other <= pushed:
            return None
    return tuple(sorted([*(other for other in kept if other[1] != key), pushed])[:k])


class PathFinder:
    """Shared product-graph search over one graph/NFA/view combination.

    ``bfs=False`` forces the keyed scan even for unit-cost
    automata — used by determinism tests to check that both strategies
    realize the same tie-break. Concurrent searches share only the memos,
    and racing fills store equal values.
    """

    def __init__(
        self,
        graph: PathPropertyGraph,
        nfa: NFA,
        views: Optional[ViewIndex] = None,
        bfs: Optional[bool] = None,
    ) -> None:
        self._graph = graph
        self._nfa = nfa
        self._views: ViewIndex = views or {}
        self._bfs = nfa.unit_cost if bfs is None else (bfs and nfa.unit_cost)
        # Per-state expansion programs against label-bucketed adjacency,
        # and the (node, state) -> moves memo shared by every search this
        # finder runs (the "one search structure").
        self._programs: Optional[List[Tuple[tuple, ...]]] = None
        self._moves: Dict[Tuple[ObjectId, int], Tuple[_Move, ...]] = {}

    # ------------------------------------------------------------------
    # Expansion: memoized programs over bucketed adjacency
    # ------------------------------------------------------------------
    def _build_programs(self) -> List[Tuple[tuple, ...]]:
        """Compile each NFA state into ops over bucketed adjacency.

        An ``edge`` op carries the label's adjacency dict directly, so
        expanding a node is one dict probe returning pre-filtered,
        pre-sorted edges — no per-edge label test. Built once per finder;
        the graph's adjacency buckets themselves are cached on the graph.
        """
        graph = self._graph
        programs: List[Tuple[tuple, ...]] = []
        for state in range(self._nfa.state_count):
            ops: List[tuple] = []
            for arc, next_state in self._nfa.moves(state):
                if arc.kind == "edge":
                    adjacency = (
                        graph.in_adjacency(arc.label)
                        if arc.inverse
                        else graph.out_adjacency(arc.label)
                    )
                    endpoint = 0 if arc.inverse else 1
                    ops.append(("edge", adjacency, endpoint, next_state))
                elif arc.kind == "node":
                    ops.append(("node", arc.label, next_state))
                else:
                    segments = self._views.get(arc.label, {}) if arc.label else {}
                    ops.append(("view", segments, next_state))
            programs.append(tuple(ops))
        self._programs = programs
        return programs

    def moves(self, node: ObjectId, state: int) -> Tuple[_Move, ...]:
        """The memoized ``(cost, extension, key, next node, next state)``
        moves from a product state; the extension excludes *node*, so
        appending it to a walk ending at *node* yields a valid alternating
        sequence, and its key (:func:`_extension_key`) is reused by every
        heap push of every search this finder runs.
        """
        memo_key = (node, state)
        moves = self._moves.get(memo_key)
        if moves is not None:
            return moves
        programs = self._programs
        if programs is None:
            programs = self._build_programs()
        graph = self._graph
        rho = graph.endpoints
        out: List[_Move] = []
        for op in programs[state]:
            kind = op[0]
            if kind == "edge":
                _, adjacency, endpoint, next_state = op
                for edge in adjacency.get(node, ()):
                    other = rho(edge)[endpoint]
                    extension = (edge, other)
                    out.append((1.0, extension, _extension_key(extension), other, next_state))
            elif kind == "node":
                _, label, next_state = op
                if graph.has_label(node, label):
                    out.append((0.0, (), (), node, next_state))
            else:
                _, segments, next_state = op
                for segment in segments.get(node, ()):
                    ext = segment.sequence[1:]
                    out.append((segment.cost, ext, _extension_key(ext), segment.target, next_state))
        moves = tuple(out)
        self._moves[memo_key] = moves
        return moves

    # ------------------------------------------------------------------
    # Parent-pointer plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _walk(
        entry: int, cost: float, parents: List[int], extensions: List[tuple]
    ) -> Walk:
        """Rebuild the walk ending at *entry* by following parent pointers."""
        parts: List[tuple] = []
        while entry != _NO_PARENT:
            parts.append(extensions[entry])
            entry = parents[entry]
        parts.reverse()
        return _make_walk(tuple(chain.from_iterable(parts)), cost)

    # ------------------------------------------------------------------
    # Cost-ranked walks: one k-scan, SHORTEST being k = 1
    # ------------------------------------------------------------------
    def shortest(self, source: ObjectId, target: ObjectId) -> Optional[Walk]:
        """The single cheapest conforming walk from *source* to *target*."""
        found = self.k_shortest(source, target, 1)
        return found[0] if found else None

    def shortest_multi(
        self, sources: Sequence[ObjectId], targets: Optional[AbstractSet[ObjectId]] = None
    ) -> Dict[ObjectId, Dict[ObjectId, Walk]]:
        """SHORTEST from every distinct source (Section 3): the cheapest
        conforming walk to each reachable node, or to each of *targets*
        (a scan stops once all are settled), ties broken by the
        lexicographic order of the walk's identifier sequence. Each
        source runs the k = 1 scan over the same memoized product-graph
        expansion."""
        return {
            source: {
                node: walks[0]
                for node, walks in self.k_shortest_multi(source, targets, 1).items()
            }
            for source in dict.fromkeys(sources)
        }

    def k_shortest(
        self, source: ObjectId, target: ObjectId, k: int
    ) -> List[Walk]:
        """The k cheapest *distinct* conforming walks from source to target.

        Under the paper's arbitrary-walk semantics this is the classic
        "count-bounded Dijkstra": each product state may be expanded a
        bounded number of times, enumerating walks in (cost, key) order.
        Distinct automaton runs can project to the *same* graph walk, so
        a fixed pop bound per state can silently starve the enumeration;
        the exact scan therefore counts only *distinct* walk prefixes
        against the per-state bound (k of them always suffice: the j-th
        cheapest walk to any state extends an i-th cheapest walk to a
        predecessor with i <= j) and skips duplicate prefixes outright.
        This is :meth:`k_shortest_multi` with a one-target stop set.
        """
        return self.k_shortest_multi(source, (target,), k).get(target, [])

    def k_shortest_multi(
        self, source: ObjectId, targets: Optional[Iterable[ObjectId]], k: int
    ) -> Dict[ObjectId, List[Walk]]:
        """:meth:`k_shortest` from *source* to every target, in one scan.

        The parent-pointer exact scan: k distinct-prefix pops per state,
        ranked (unit cost) or keyed. *targets* is a stop set — a target
        leaves it once it has k walks and the scan ends when it is empty;
        None means every conforming target (the scan runs to exhaustion).
        Pop order and per-state budgets never look at the targets, so each
        target's list is exactly what a single-target scan returns.
        Targets without a conforming walk are absent.
        """
        nodes = self._graph.nodes
        if k <= 0 or source not in nodes:
            return {}
        wanted = None if targets is None else {t for t in targets if t in nodes}
        if wanted is not None and not wanted:
            return {}
        if self._bfs:
            return self._k_ranked(source, wanted, k)
        return self._k_keyed(source, wanted, k)

    def _k_keyed(
        self, source: ObjectId, wanted: Optional[Set[ObjectId]], k: int
    ) -> Dict[ObjectId, List[Walk]]:
        """The k-scan over a ``(cost, key)`` heap of whole walk keys.

        Pops come in ``(cost, key)`` order and no push is cheaper than the
        pop it extends, so an entry is one of its state's first k distinct
        pops exactly when it is among the state's k cheapest pushes of
        distinct walks. ``kept`` holds those (:func:`_admit`): a push that
        cannot join them is never made — at k = 1 that is Dijkstra's
        ``known <= candidate`` rule — and a popped entry they no longer
        hold is skipped. One walk can reach a state or a node at two costs
        (a view segment and the edges it spans), so walks are compared
        whole, not by their latest arrival.
        """
        nfa = self._nfa
        is_accepting = nfa.is_accepting
        moves = self.moves
        heappop, heappush = heapq.heappop, heapq.heappush
        results: Dict[ObjectId, List[Walk]] = {}
        parents: List[int] = [_NO_PARENT]
        extensions: List[tuple] = [(source,)]
        start: _KeyedEntry = (0.0, (str(source),), 0, source, nfa.start)
        kept: Dict[Tuple[ObjectId, int], Tuple[_KeyedEntry, ...]] = {
            (source, nfa.start): (start,)
        }
        heap = [start]
        while heap:
            popped = heappop(heap)
            cost, key, entry, node, state = popped
            if popped not in kept[node, state]:
                continue  # superseded, or past the state's k distinct walks
            if is_accepting(state) and (wanted is None or node in wanted):
                walks = results.get(node)
                if walks is None:
                    walks = results[node] = [self._walk(entry, cost, parents, extensions)]
                elif len(walks) < k:
                    walk = self._walk(entry, cost, parents, extensions)
                    if all(other.sequence != walk.sequence for other in walks):
                        walks.append(walk)
                if wanted is not None and len(walks) == k:
                    wanted.discard(node)
                    if not wanted:
                        break
            for delta, extension, ext_key, next_node, next_state in moves(
                node, state
            ):
                next_cost = cost + delta
                pair = (next_node, next_state)
                queue = kept.get(pair)
                if queue is not None and queue[-1][0] < next_cost and len(queue) >= k:
                    continue  # k cheaper walks kept: skip building the key
                pushed = (next_cost, key + ext_key, len(parents), next_node, next_state)
                if queue is None:
                    kept[pair] = (pushed,)
                else:
                    queue = _admit(queue, pushed, k)
                    if queue is None:
                        continue
                    kept[pair] = queue
                parents.append(entry)
                extensions.append(extension)
                heappush(heap, pushed)
        return results

    def _k_ranked(
        self, source: ObjectId, wanted: Optional[Set[ObjectId]], k: int
    ) -> Dict[ObjectId, List[Walk]]:
        """The k-scan on unit-cost automata, level-synchronous.

        All walks popped at depth ``d`` have sequences of length
        ``2d + 1`` (edge arcs append two identifiers, node-test arcs
        none), so the lexicographic order within a level is exactly the
        order :meth:`_next_level` ranks by: the keyed scan's full-key
        tie-break with O(1)-size per-entry keys. Ranks grow across levels,
        so one int stands for a walk's ``(depth, rank)``, and pops come in
        rank order: a duplicate prefix of a state (or walk to a node) is
        always its latest rank.
        """
        nfa = self._nfa
        is_accepting = nfa.is_accepting
        moves = self.moves
        heappop, heappush = heapq.heappop, heapq.heappush
        results: Dict[ObjectId, List[Walk]] = {}
        last_walk: Dict[ObjectId, int] = {}
        expanded: Dict[Tuple[ObjectId, int], int] = {}
        last_rank: Dict[Tuple[ObjectId, int], int] = {}
        parents: List[int] = [_NO_PARENT]
        extensions: List[tuple] = [(source,)]
        depth = rank = 0
        # Heap of (rank, entry, node, state); zero-cost node-test arcs
        # re-enter the current level under their parent's rank.
        level: List[tuple] = [(0, 0, source, nfa.start)]
        while level:
            frontier: List[tuple] = []
            while level:
                walk_rank, entry, node, state = heappop(level)
                pair = (node, state)
                count = expanded.get(pair, 0)
                if count >= k or (count and last_rank[pair] == walk_rank):
                    continue
                expanded[pair] = count + 1
                last_rank[pair] = walk_rank
                if is_accepting(state) and (wanted is None or node in wanted):
                    walks = results.get(node)
                    if walks is None:
                        walks = results[node] = [
                            self._walk(entry, float(depth), parents, extensions)
                        ]
                    elif len(walks) < k and last_walk[node] != walk_rank:
                        walks.append(self._walk(entry, float(depth), parents, extensions))
                    last_walk[node] = walk_rank
                    if wanted is not None and len(walks) == k:
                        wanted.discard(node)
                        if not wanted:
                            return results
                for delta, extension, ext_key, next_node, next_state in moves(
                    node, state
                ):
                    if expanded.get((next_node, next_state), 0) >= k:
                        continue
                    if delta:
                        frontier.append(
                            (walk_rank, ext_key, next_node, next_state, entry, extension)
                        )
                    else:  # same sequence, same level, same rank
                        parents.append(entry)
                        extensions.append(())
                        heappush(level, (walk_rank, len(parents) - 1, next_node, next_state))
            depth += 1
            level, rank = self._next_level(frontier, expanded, k, rank, parents, extensions)
        return results

    @staticmethod
    def _next_level(frontier, expanded, k, rank, parents, extensions) -> Tuple[List[tuple], int]:
        """Rank a level's ``(parent rank, extension key, node, state, parent
        entry, extension)`` moves: sorted by the first two, they are in
        walk order, and equal pairs are one walk sharing one rank (ranks go
        on from *rank*). A state queues at most as many distinct ranks as
        it has pops left of its *k*; later ones would find its budget
        spent. Returns the next level (a heap, ascending) and the last rank.
        """
        frontier.sort(key=itemgetter(0, 1))
        level: List[tuple] = []
        left: Dict[Tuple[ObjectId, int], int] = {}
        queued: Dict[Tuple[ObjectId, int], int] = {}
        previous: Optional[tuple] = None
        for parent_rank, ext_key, node, state, parent, extension in frontier:
            if (parent_rank, ext_key) != previous:
                rank += 1
                previous = (parent_rank, ext_key)
            pair = (node, state)
            budget = left.get(pair)
            if budget is None:
                budget = k - expanded.get(pair, 0)
            if budget <= 0 or queued.get(pair) == rank:
                continue
            left[pair] = budget - 1
            queued[pair] = rank
            parents.append(parent)
            extensions.append(extension)
            level.append((rank, len(parents) - 1, node, state))
        return level, rank

    def best_costs(
        self, source: ObjectId, targets: Optional[Iterable[ObjectId]]
    ) -> Dict[ObjectId, float]:
        """Each target's cost at k = 1 (:meth:`k_shortest_multi`'s stop set)
        from a frontier holding each product state's best cost and no walk:
        level by level on unit-cost automata (node tests stay in their
        level), else a heap."""
        nodes, bfs, accepting = self._graph.nodes, self._bfs, self._nfa.is_accepting
        wanted = None if targets is None else {t for t in targets if t in nodes}
        if source not in nodes or wanted == set():
            return {}
        found: Dict[ObjectId, float] = {}
        done: Set[Tuple[ObjectId, int]] = set()
        start = (source, self._nfa.start)
        best, pushes, frontier = {start: 0.0}, 0, [(0.0, 0, start)]  # (cost, push, state)
        later: List[Tuple[float, int, Tuple[ObjectId, int]]] = []
        while frontier or later:
            if not frontier:
                frontier, later = later, []
            cost, _, pair = frontier.pop() if bfs else heapq.heappop(frontier)
            if pair in done:
                continue
            done.add(pair)
            node, state = pair
            if accepting(state) and node not in found and (wanted is None or node in wanted):
                found[node] = cost
                if wanted is not None:
                    wanted.discard(node)
                    if not wanted:
                        break
            for delta, _, _, next_node, next_state in self.moves(node, state):
                after, next_cost = (next_node, next_state), cost + delta
                if bfs:
                    if after not in done:
                        (later if delta else frontier).append((next_cost, 0, after))
                elif after not in best or next_cost < best[after]:
                    best[after], pushes = next_cost, pushes + 1
                    heapq.heappush(frontier, (next_cost, pushes, after))
        return found

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------
    def reachable_from(self, source: ObjectId) -> FrozenSet[ObjectId]:
        """All nodes reachable from *source* via a conforming walk."""
        if source not in self._graph.nodes:
            return frozenset()
        moves = self.moves
        seen: Set[Tuple[ObjectId, int]] = {(source, self._nfa.start)}
        stack = [(source, self._nfa.start)]
        reachable: Set[ObjectId] = set()
        if self._nfa.is_accepting(self._nfa.start):
            reachable.add(source)
        while stack:
            node, state = stack.pop()
            for _, _, _, after, next_state in moves(node, state):
                pair = (after, next_state)
                if pair in seen:
                    continue
                seen.add(pair)
                stack.append(pair)
                if self._nfa.is_accepting(pair[1]):
                    reachable.add(pair[0])
        return frozenset(reachable)

    def reachable_multi(
        self, sources: Sequence[ObjectId]
    ) -> Dict[ObjectId, FrozenSet[ObjectId]]:
        """Reachability from every distinct source, sharing the move memo."""
        out: Dict[ObjectId, FrozenSet[ObjectId]] = {}
        for source in sources:
            if source not in out:
                out[source] = self.reachable_from(source)
        return out

    # ------------------------------------------------------------------
    # ALL-paths projection
    # ------------------------------------------------------------------
    def all_paths_projection(
        self, source: ObjectId, target: ObjectId
    ) -> Tuple[FrozenSet[ObjectId], FrozenSet[ObjectId]]:
        """Nodes and edges lying on *some* conforming walk source -> target."""
        return self.all_paths_multi(source, (target,)).get(target, (frozenset(), frozenset()))

    def all_paths_multi(
        self, source: ObjectId, targets: Optional[Iterable[ObjectId]] = None
    ) -> Dict[ObjectId, Tuple[FrozenSet[ObjectId], FrozenSet[ObjectId]]]:
        """ALL-paths projections from *source* to each of *targets*.

        One forward pass records the reachable product states and the
        transitions into each; then, per target, one backward pass from
        its accepting states collects every transition it meets — a
        transition reached backwards has both ends reachable and
        co-reachable, which is exactly the paper's tractable ALL-paths
        projection ([10]): no walk is ever materialized. *targets* None
        means every node; targets without a conforming walk are absent.
        """
        if source not in self._graph.nodes:
            return {}
        wanted = None if targets is None else set(targets)
        moves = self.moves
        is_accepting = self._nfa.is_accepting
        start = (source, self._nfa.start)
        forward: Set[Tuple[ObjectId, int]] = {start}
        # product state -> [(predecessor state, sequence extension)]
        incoming: Dict[Tuple[ObjectId, int], List[Tuple[Tuple[ObjectId, int], tuple]]] = {}
        finals: Dict[ObjectId, List[Tuple[ObjectId, int]]] = {}
        stack = [start]
        while stack:
            pair = stack.pop()
            if is_accepting(pair[1]) and (wanted is None or pair[0] in wanted):
                finals.setdefault(pair[0], []).append(pair)
            for _, extension, _, next_node, next_state in moves(*pair):
                after = (next_node, next_state)
                incoming.setdefault(after, []).append((pair, extension))
                if after not in forward:
                    forward.add(after)
                    stack.append(after)
        out: Dict[ObjectId, Tuple[FrozenSet[ObjectId], FrozenSet[ObjectId]]] = {}
        for target, accepting in finals.items():
            nodes: Set[ObjectId] = {target}
            edges: Set[ObjectId] = set()
            co_reachable = set(accepting)
            stack = list(accepting)
            while stack:
                for before, extension in incoming.get(stack.pop(), ()):
                    nodes.add(before[0])
                    nodes.update(extension[1::2])
                    edges.update(extension[0::2])
                    if before not in co_reachable:
                        co_reachable.add(before)
                        stack.append(before)
            out[target] = (frozenset(nodes), frozenset(edges))
        return out
