"""A cost-based atom-ordering planner for MATCH evaluation.

The formal semantics joins every pattern's binding set; the order of
evaluation only affects performance. The planner runs a cardinality
estimator over the graph's statistics
(:meth:`PathPropertyGraph.statistics`): each atom gets an estimated
output-rows-per-input-row factor given the currently bound variables,
and the greedy loop always picks the atom that keeps the intermediate
binding table smallest. Atoms with identical estimates tie-break on the
hand-tuned :func:`atom_score`, which encodes the same intuitions with
constants:

* atoms over already-bound variables run first (they only filter),
* selective atoms (labels, property tests) run before unconstrained ones,
* edges run once an endpoint is bound (index lookups instead of scans),
* path atoms run once their source endpoint is bound (one single-source
  product-graph search per distinct source).

Selection uses a lazy-reevaluation heap instead of repeated ``max()``
over a shrinking list: priorities only change when the bound-variable set
grows, so stale entries are re-scored and re-pushed at most once per
selection. ``naive=True`` disables reordering entirely (pure syntax
order, ``ExecutionConfig(planner="naive")``); the ablation benchmark
EXP-B1 measures the difference.

:func:`plan_atoms` returns the full trace — the score/estimate each atom
actually had at selection time — which EXPLAIN renders; :class:`PlanCache`
memoizes orderings per (pattern site, bound columns, graph) for the
engine's prepared queries.
"""

from __future__ import annotations

import heapq
import threading
from collections import OrderedDict
from typing import Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..paths.automaton import regex_edge_labels

__all__ = [
    "atom_score",
    "estimate_cardinality",
    "order_atoms",
    "plan_atoms",
    "explain_order",
    "PlanStep",
    "PlanCache",
]


# ---------------------------------------------------------------------------
# Heuristic scores (the cost planner's tie-breaker; EXPLAIN's score= column)
# ---------------------------------------------------------------------------

def atom_score(atom, bound: Set[str]) -> int:
    """The heuristic priority of *atom* given already-bound variables."""
    kind = atom.kind
    if kind == "node":
        pattern = atom.pattern
        if atom.var in bound:
            return 100
        selective = bool(pattern.labels) + bool(pattern.prop_tests)
        if selective:
            return 55 + 5 * selective
        return 5
    if kind == "edge":
        pattern = atom.pattern
        if atom.var and atom.var in bound:
            return 95
        endpoints_bound = (atom.src_var in bound) + (atom.dst_var in bound)
        if endpoints_bound == 2:
            return 90
        if endpoints_bound == 1:
            return 70
        if pattern.labels or pattern.prop_tests:
            return 40
        return 15
    if kind == "path":
        if atom.pattern.stored:
            if atom.pattern.var and atom.pattern.var in bound:
                return 85
            if atom.from_var in bound:
                return 65
            return 30
        if atom.from_var in bound:
            return 50
        return 2
    return 0


# ---------------------------------------------------------------------------
# Cardinality estimation (statistics-driven cost model)
# ---------------------------------------------------------------------------

def _node_estimate(atom, bound: Set[str], stats, pushed=None) -> float:
    pattern = atom.pattern
    selectivity = stats.label_selectivity("node", pattern.labels)
    selectivity *= stats.property_tests_selectivity(
        "node", (key for key, _ in pattern.prop_tests)
    )
    if pushed:
        # WHERE conjuncts pushed into this atom filter its candidates
        # exactly like pattern property tests do.
        selectivity *= stats.property_tests_selectivity(
            "node", pushed.get(atom.var, ())
        )
    if atom.var in bound:
        return min(selectivity, 1.0)
    return stats.node_count * selectivity


def _edge_estimate(atom, bound: Set[str], stats, pushed=None) -> float:
    pattern = atom.pattern
    matching = stats.edge_count * stats.label_selectivity("edge", pattern.labels)
    matching *= stats.property_tests_selectivity(
        "edge", (key for key, _ in pattern.prop_tests)
    )
    if pushed and atom.var:
        matching *= stats.property_tests_selectivity(
            "edge", pushed.get(atom.var, ())
        )
    nodes = max(stats.node_count, 1)
    undirected = 2.0 if pattern.direction == "undirected" else 1.0
    if atom.var and atom.var in bound:
        # The edge object itself is fixed: a pure filter.
        return min(matching / max(stats.edge_count, 1), 1.0)
    endpoints_bound = (atom.src_var in bound) + (atom.dst_var in bound)
    if endpoints_bound == 2:
        # Expected parallel edges between two specific endpoints.
        return undirected * matching / (nodes * nodes)
    if endpoints_bound == 1:
        # Expected fan from a uniformly chosen bound endpoint.
        return undirected * matching / nodes
    return undirected * matching


def _path_estimate(atom, bound: Set[str], stats) -> float:
    pattern = atom.pattern
    nodes = max(stats.node_count, 1)
    if pattern.stored:
        matching = stats.path_count * stats.label_selectivity(
            "path", pattern.labels
        )
        if pattern.var and pattern.var in bound:
            return min(matching / max(stats.path_count, 1), 1.0)
        if atom.from_var in bound:
            matching /= nodes
        if atom.to_var in bound:
            matching /= nodes
        return matching
    # Computed path: bound the reachable-target fan by the statically
    # known edge labels of the regex (None = unbounded wildcard/view).
    fanout = stats.reachability_estimate(regex_edge_labels(pattern.regex))
    if pattern.mode not in ("reach", "all"):
        fanout *= max(pattern.count, 1)
    if atom.from_var in bound:
        if atom.to_var in bound:
            return 1.0
        return fanout
    # Unbound source: one product-graph search per node — schedule last.
    return nodes * fanout


def estimate_cardinality(
    atom, bound: Iterable[str], stats, pushed_props=None
) -> float:
    """Estimated output rows per input row for *atom* under *bound*.

    Values below 1.0 mean the atom is expected to shrink the binding
    table (a filter); values above 1.0 mean expansion. The estimate is
    relative — the greedy planner only compares atoms against each other
    at the same step — but on simple scans it equals the true output
    cardinality (tested against the paper's instances).
    ``pushed_props`` maps a variable to the property keys of WHERE
    conjuncts pushed down into the atom binding it (see
    :mod:`repro.eval.pushdown`), sharpening the estimate with the same
    per-key selectivities pattern property tests use.
    """
    bound_set = set(bound)
    kind = atom.kind
    if kind == "node":
        return _node_estimate(atom, bound_set, stats, pushed_props)
    if kind == "edge":
        return _edge_estimate(atom, bound_set, stats, pushed_props)
    if kind == "path":
        return _path_estimate(atom, bound_set, stats)
    return float(stats.node_count)


# ---------------------------------------------------------------------------
# Greedy ordering
# ---------------------------------------------------------------------------

class PlanStep(NamedTuple):
    """One planning decision: the atom and its selection-time priority."""

    atom: object
    score: int
    estimate: Optional[float]


def plan_atoms(
    atoms: Sequence[object],
    bound: Iterable[str],
    stats,
    naive: bool = False,
    pushed_props=None,
) -> List[PlanStep]:
    """Order *atoms* and record the priority each had when selected.

    The priority is the estimated cardinality over *stats* (lower runs
    first); ties break on :func:`atom_score` (higher runs first), then
    on syntax order. The returned steps carry the selection-time
    score/estimate so EXPLAIN reports what the planner actually
    compared, not a post-hoc recomputation. ``naive=True`` keeps syntax
    order; only then may *stats* be None (no estimates are recorded).
    """
    bound_set: Set[str] = set(bound)
    steps: List[PlanStep] = []

    if naive:
        for atom in atoms:
            estimate = (
                estimate_cardinality(atom, bound_set, stats, pushed_props)
                if stats is not None
                else None
            )
            steps.append(PlanStep(atom, atom_score(atom, bound_set), estimate))
            bound_set |= atom.binds()
        return steps

    def priority(atom) -> Tuple[float, int]:
        return (
            estimate_cardinality(atom, bound_set, stats, pushed_props),
            -atom_score(atom, bound_set),
        )

    heap: List[Tuple[Tuple[float, int], int]] = [
        (priority(atom), index) for index, atom in enumerate(atoms)
    ]
    heapq.heapify(heap)
    while heap:
        stale_priority, index = heapq.heappop(heap)
        atom = atoms[index]
        current = priority(atom)
        if current != stale_priority:
            # Bound variables grew since this entry was pushed; re-score.
            heapq.heappush(heap, (current, index))
            continue
        estimate, negated_score = current
        steps.append(PlanStep(atom, -negated_score, estimate))
        bound_set |= atom.binds()
    return steps


def order_atoms(
    atoms: Sequence[object],
    bound: Iterable[str],
    stats,
    naive: bool = False,
    pushed_props=None,
) -> List[object]:
    """Order *atoms* for evaluation, starting from *bound* variables."""
    if naive:
        return list(atoms)
    steps = plan_atoms(atoms, bound, stats, pushed_props=pushed_props)
    return [step.atom for step in steps]


def explain_order(
    atoms: Sequence[object],
    bound: Iterable[str],
    stats,
    naive: bool = False,
    pushed_props=None,
    batched_paths: bool = True,
) -> str:
    """A human-readable trace of the chosen order (EXPLAIN support).

    Each line reports the score and the estimated output cardinality the
    atom had at the moment the planner selected it — taken from the
    recorded :class:`PlanStep`, so the numbers match the actual planning
    decisions. *batched_paths* names the path engine of the executor the
    plan would run on (columnar: batched, reference: per-row naive).
    """
    path_engine = "batched" if batched_paths else "naive"
    lines: List[str] = []
    for step in plan_atoms(
        atoms, bound, stats, naive=naive, pushed_props=pushed_props
    ):
        detail = f"score={step.score:<3}"
        if step.estimate is not None:
            detail += f" est~{_format_estimate(step.estimate):<8}"
        line = f"  {step.atom.kind:<5} {detail} binds={sorted(step.atom.binds())}"
        strategy = getattr(step.atom, "explain_strategy", None)
        if strategy is not None:
            # Path atoms report their search strategy (bfs vs dijkstra)
            # and which path engine will run them (batched vs naive).
            line += f" strategy={strategy()},{path_engine}"
        lines.append(line)
    return "\n".join(lines)


def _format_estimate(estimate: float) -> str:
    if estimate >= 100 or estimate == int(estimate):
        return f"{estimate:.0f}"
    return f"{estimate:.2f}"


# ---------------------------------------------------------------------------
# Plan memoization (prepared queries)
# ---------------------------------------------------------------------------

class PlanCache:
    """An LRU memo of atom orderings, keyed by pattern site and graph.

    A :class:`~repro.engine.PreparedQuery` owns one of these; the match
    evaluator consults it before planning so repeated executions of the
    same statement skip ordering work entirely. Entries pin the pattern
    location and graph objects and are validated by identity — a graph
    re-registered under the same name is a different object and simply
    misses, so stale orderings can never be replayed.

    Thread-safe: the query server executes one prepared statement from
    many snapshot readers concurrently while ``apply_update`` purges
    superseded-graph entries, so every structural operation on the LRU
    (lookup's move-to-end included) runs under a lock. Keying by graph
    *object* doubles as per-epoch cache keying — readers pinned to
    different catalog versions never share (or clobber) an ordering.
    """

    def __init__(self, maxsize: int = 128) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._mutex = threading.Lock()

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def lookup(self, site, columns: Tuple[str, ...], graph) -> Optional[List[int]]:
        """The memoized ordering (as atom indices), or None."""
        key = (id(site), columns, id(graph))
        with self._mutex:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            entry_site, entry_graph, order = entry
            if entry_site is not site or entry_graph is not graph:
                # id() reuse after garbage collection; drop the stale entry.
                del self._entries[key]
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return order

    def store(
        self, site, columns: Tuple[str, ...], graph, order: List[int]
    ) -> None:
        key = (id(site), columns, id(graph))
        with self._mutex:
            self._entries[key] = (site, graph, list(order))
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def purge_graph(self, graph) -> int:
        """Drop every ordering memoized against *graph* (by identity).

        Called when a graph delta replaces a catalog entry: the prepared
        queries themselves stay hot (parse and AST survive — names
        re-resolve to the new graph at execution), only the orderings
        planned against the superseded graph object are evicted. A
        snapshot reader still pinned to *graph* simply re-plans on its
        next execution (a cache miss, never an error) and re-stores the
        ordering under the same identity key. Returns the number of
        dropped entries.
        """
        with self._mutex:
            doomed = [
                key
                for key, (_, entry_graph, _) in self._entries.items()
                if entry_graph is graph
            ]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def clear(self) -> None:
        with self._mutex:
            self._entries.clear()
