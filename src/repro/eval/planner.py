"""A cost-based atom-ordering planner for MATCH evaluation.

The formal semantics joins the binding sets of every atom of a MATCH or
OPTIONAL block; evaluation order is the engine's one free choice. The
planner orders **all atoms of a block at once** — every comma-separated
pattern contributes to one atom list, each atom remembering the graph
its pattern is ``ON`` — over that graph's statistics
(:meth:`PathPropertyGraph.statistics`).

Every estimate is the same unit, output rows per input row given the
currently bound variables (an unbound scan multiplies the table by its
candidate count, an expansion by its fan, a filter by its selectivity),
so the planner can track the running table size. Binding a variable
makes the edges and paths touching it cheaper, so after each step every
remaining atom the step touched is re-scored, and the atom with the
smallest **cumulative** estimate ``rows x factor`` runs next:

* a computed path atom is priced by the search it runs — it visits its
  whole reachable set whatever it emits — so selective endpoint node
  atoms precede it. It searches from its bound endpoint: forward from
  a source, over the nodes its steps enter (label targets, fan-out), or
  backward from a target alone, over the label sources (fan-in) — not
  for a regex naming a PATH view. Neither bound: one search per node;
* a disconnected atom that would multiply the table (factor > 1, no
  variable shared with the bound set) waits while an index probe (node,
  edge or stored-path atom) connected to the bound set remains: no
  cartesian product is built that the pattern lets the plan avoid;
* ties break on connectivity to the bound set, then on the hand-tuned
  :func:`atom_score` (bound filters, then selective atoms, then
  anchored edges and paths), then on syntax position;
* an atom whose property tests read other variables keeps its syntax
  position (they see exactly the bindings syntax order gives them).

Blocks have at most a dozen atoms, so comparing all of them at every
step is microseconds.

:func:`plan_atoms` returns the full trace — the score, the per-row
estimate and the cumulative table size each atom had at selection time.
:func:`plan_block` adds the WHERE assignment of
:mod:`repro.eval.pushdown` to make one immutable :class:`BlockPlan`:
block evaluation runs it, EXPLAIN prints it, and :class:`PlanCache`
memoizes it per (block site, bound columns, graphs) for the engine's
prepared queries.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import (
    Any, Collection, Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
    Sequence, Set, Tuple,
)

from ..lang import ast
from ..lang.pretty import pretty_expr
from ..paths.automaton import regex_edge_steps, reverse_regex
from .context import chain_reads_stay_in
from .expressions import expr_variables
from .pushdown import PushdownPlan

__all__ = [
    "atom_score",
    "estimate_cardinality",
    "plan_atoms",
    "plan_block",
    "BlockPlan",
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
        if len(pattern.labels) != 1 or len(pattern.labels[0]) != 1:
            # Expected fan from a uniformly chosen bound endpoint.
            return undirected * matching / nodes
        # One label: the bound endpoint was reached because it has such
        # edges, so average over the distinct sources (targets) only.
        (label,) = pattern.labels[0]
        tested = matching / max(stats.edge_label_count(label), 1)
        return tested * sum(
            stats.fan_out(label) if from_var in bound else stats.fan_in(label)
            for from_var, _ in atom.orientations()
        )
    return undirected * matching


def _searches_backward(atom, bound: Collection[str]) -> bool:
    """Whether path *atom* searches backward from its target under *bound*."""
    return (
        not atom.pattern.stored
        and atom.from_var not in bound
        and atom.to_var in bound
        and reverse_regex(atom.pattern.regex) is not None
    )


def _search_reach(atom, bound: Collection[str], stats) -> float:
    """The nodes computed path *atom*'s search visits under *bound*."""
    regex = atom.pattern.regex
    if _searches_backward(atom, bound):
        regex = reverse_regex(regex)
    return stats.reachability_estimate(regex_edge_steps(regex))


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
    # Computed path: the search's reach from its bound endpoint bounds
    # the fan of the other one.
    fanout = _search_reach(atom, bound, stats)
    if pattern.mode not in ("reach", "all"):
        fanout *= max(pattern.count, 1)
    if atom.from_var in bound and atom.to_var in bound:
        return 1.0
    if atom.from_var in bound or _searches_backward(atom, bound):
        return fanout
    # No source, nor a target to search back from: one search per node —
    # schedule last.
    return nodes * fanout


def estimate_cardinality(
    atom, bound: Iterable[str], stats, pushed_props=None
) -> float:
    """Estimated output rows per input row for *atom* under *bound*.

    Values below 1.0 mean the atom is expected to shrink the binding
    table (a filter); values above 1.0 mean expansion — an unbound scan
    multiplies every input row by its candidate count, so on a one-row
    table it equals the true output cardinality (tested against the
    paper's instances).
    ``pushed_props`` maps a variable to the property keys of WHERE
    conjuncts pushed down into the atom binding it (see
    :mod:`repro.eval.pushdown`), sharpening the estimate with the same
    per-key selectivities pattern property tests use.
    """
    bound_set = bound if isinstance(bound, (set, frozenset)) else set(bound)
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
    """One planning decision, with the numbers it was taken on, and the
    WHERE conjuncts the step applies (set by :func:`plan_block`)."""

    atom: Any
    score: int
    estimate: Optional[float]  # output rows per input row
    rows: Optional[float]  # cumulative table size after the step
    probe: Tuple[Any, ...] = ()  # pushdown conjuncts filtering the candidates
    post: Tuple[ast.Expr, ...] = ()  # conjuncts applied to the step's output


def _is_search(atom) -> bool:
    return atom.kind == "path" and not atom.pattern.stored


def _reads_row(atom) -> bool:
    tests = getattr(atom.pattern, "prop_tests", ())
    return any(expr_variables(expr) for _, expr in tests)


def plan_atoms(
    atoms: Sequence[Any],
    bound: Iterable[str],
    pushed_props=None,
) -> List[PlanStep]:
    """Order the *atoms* of one block, starting from *bound* variables.

    Each atom is estimated over the statistics of its own ``graph``.
    The next atom is the one with the smallest cumulative table size
    (see the module docstring for the search-price, deferral, tie-break
    and syntax-position rules). The returned steps carry the
    selection-time numbers so EXPLAIN reports what the planner actually
    compared. A block with an atom whose graph is unknown (EXPLAIN of
    an ``ON (subquery)`` pattern) keeps syntax order: nothing is
    compared, so no statistics are read and the steps carry no
    estimates.
    """
    bound_set: Set[str] = set(bound)
    steps: List[PlanStep] = []
    if any(atom.graph is None for atom in atoms):
        for atom in atoms:
            steps.append(PlanStep(atom, atom_score(atom, bound_set), None, None))
            bound_set |= atom.binds()
        return steps

    stats = [atom.graph.statistics() for atom in atoms]
    binds = [atom.binds() for atom in atoms]
    pinned = [i for i, atom in enumerate(atoms) if _reads_row(atom)]
    remaining = list(range(len(atoms)))
    rows = 1.0
    # (estimate, price, score) per atom, valid until one of its variables
    # is bound: only the atoms a step touches are re-scored after it.
    scored: Dict[int, Tuple[float, float, int]] = {}
    while remaining:
        barrier = next((i for i in pinned if i in remaining), len(atoms))
        candidates = [i for i in remaining if i < barrier] or [barrier]
        for i in candidates:
            if i not in scored:
                atom = atoms[i]
                factor = price = estimate_cardinality(
                    atom, bound_set, stats[i], pushed_props
                )
                if _is_search(atom):
                    # The search visits its reachable set whatever it emits.
                    price = max(price, _search_reach(atom, bound_set, stats[i]))
                scored[i] = (factor, price, atom_score(atom, bound_set))
        joined = {i for i in candidates if binds[i] & bound_set}
        probe_waits = any(not _is_search(atoms[i]) for i in joined)

        def key(i: int) -> Tuple[bool, float, bool, int, int]:
            # The running table size multiplies every candidate alike, so
            # the smallest price is the smallest cumulative size.
            factor, price, score = scored[i]
            apart = i not in joined
            return (probe_waits and apart and factor > 1, price, apart, -score, i)

        choice = min(candidates, key=key)
        factor, _, score = scored[choice]
        rows *= factor
        steps.append(PlanStep(atoms[choice], score, factor, rows))
        remaining.remove(choice)
        fresh = binds[choice] - bound_set
        bound_set |= fresh
        for i in remaining:
            if binds[i] & fresh:
                scored.pop(i, None)
    return steps


def _format_estimate(estimate: float) -> str:
    if estimate >= 100 or estimate == int(estimate):
        return f"{estimate:.0f}"
    return f"{estimate:.2f}"


# ---------------------------------------------------------------------------
# Block plans: one per block, run by execution and printed by EXPLAIN
# ---------------------------------------------------------------------------

class BlockPlan(NamedTuple):
    """The plan of one MATCH/OPTIONAL block: its steps, each with the
    WHERE conjuncts it applies, and the residual WHERE for block end.

    Immutable, so one plan serves every run that replays it, prepared
    executions on concurrent threads included.
    """

    steps: Tuple[PlanStep, ...]
    residual: Tuple[ast.Expr, ...]
    bound: FrozenSet[str]  # the variables bound before the block runs
    pushed_props: Optional[Dict[str, Tuple[str, ...]]]  # read-only

    def describe(self) -> str:
        """EXPLAIN's step table: per step, what the atom had when the
        planner selected it — the heuristic score, ``est~`` (estimated
        output rows per input row) and ``rows~`` (the cumulative
        estimated table size after the step).

        A syntax-order plan compared no estimates, so the ones shown
        for it are computed here, over statistics execution never read.
        """
        steps: Sequence[PlanStep] = self.steps
        if steps and steps[0].estimate is None:
            steps = _estimated(steps, self.bound, self.pushed_props)
        lines: List[str] = []
        bound = set(self.bound)
        for step in steps:
            detail = f"score={step.score:<3}"
            if step.estimate is not None:
                detail += f" est~{_format_estimate(step.estimate):<8}"
            if step.rows is not None:
                detail += f" rows~{_format_estimate(step.rows):<8}"
            line = f"  {step.atom.kind:<5} {detail} binds={sorted(step.atom.binds())}"
            strategy = getattr(step.atom, "explain_strategy", None)
            if strategy is not None:
                # Path atoms report their search strategy (bfs vs dijkstra),
                # the batched search every strategy runs in, and direction.
                line += f" strategy={strategy()},batched"
                if _searches_backward(step.atom, bound):
                    line += ",backward"
            lines.append(line)
            bound |= step.atom.binds()
        return "\n".join(lines)

    def describe_where(self, chain: Sequence[Any]) -> List[str]:
        """EXPLAIN's WHERE lines: each step's pushed conjuncts, then the
        residual.

        *chain* is the property-lookup chain the block runs under
        (graphs touched so far, then the default graph): a probe
        conjunct reads ``[index]`` when it is a lookup and the chain
        lets the atom's own graph answer it, ``[probe]`` otherwise; a
        post-atom conjunct reads ``[filter]``.
        """
        lines: List[str] = []
        for step in self.steps:
            atom = step.atom
            label = atom.explain_label()
            for conjunct in step.probe:
                (var,) = conjunct.variables
                indexed = (
                    conjunct.lookup is not None
                    and atom.graph is not None
                    and chain_reads_stay_in(
                        chain, atom.graph,
                        getattr(atom.graph, atom.probe_universe(var)),
                    )
                )
                tag = "index" if indexed else "probe"
                lines.append(f"pushed {pretty_expr(conjunct.expr)} -> {label} [{tag}]")
            for expr in step.post:
                lines.append(f"pushed {pretty_expr(expr)} -> {label} [filter]")
        lines.extend(f"residual {pretty_expr(expr)}" for expr in self.residual)
        return lines


def _estimated(
    steps: Sequence[PlanStep], bound: Iterable[str], pushed_props
) -> List[PlanStep]:
    """*steps* with the estimates of their order filled in (``None``
    where an atom's graph is unknown, and cumulatively after it)."""
    bound_set = set(bound)
    known: Optional[float] = 1.0
    estimated: List[PlanStep] = []
    for step in steps:
        atom = step.atom
        estimate = None if atom.graph is None else estimate_cardinality(
            atom, bound_set, atom.graph.statistics(), pushed_props
        )
        known = None if known is None or estimate is None else known * estimate
        estimated.append(step._replace(estimate=estimate, rows=known))
        bound_set |= atom.binds()
    return estimated


def plan_block(
    atoms: Sequence[Any],
    where: Optional[ast.Expr],
    bound: Iterable[str],
    params: Collection[str],
) -> BlockPlan:
    """Plan one block: its *atoms* (each knowing its graph) ordered from
    the *bound* variables, and *where* assigned to the steps.

    The planner prices the pushed conjuncts into its estimates. *params*
    names the bound query parameters (a conjunct reading a missing one
    is never pushed). The assignment is a pure function of the step
    order, which is what lets a prepared query replay the plan and
    EXPLAIN print it.
    """
    variables = frozenset(bound)
    pushdown = PushdownPlan(where, params)
    pushed_props = pushdown.pushed_property_keys() or None
    steps = plan_atoms(atoms, variables, pushed_props=pushed_props)
    applied, residual = pushdown.assign(step.atom for step in steps)
    return BlockPlan(
        tuple(
            step._replace(probe=probe, post=post)
            for step, (probe, post) in zip(steps, applied)
        ),
        residual,
        variables,
        pushed_props,
    )


# ---------------------------------------------------------------------------
# Plan memoization (prepared queries)
# ---------------------------------------------------------------------------

class PlanCache:
    """An LRU memo of :class:`BlockPlan` objects, keyed by site and graphs.

    A :class:`~repro.engine.PreparedQuery` owns one of these; the match
    evaluator consults it before planning so repeated executions of the
    same statement skip planning work entirely. Entries pin the block
    and the graph objects of its patterns and are validated by identity
    — a graph re-registered under the same name is a different object
    and simply misses, so stale plans can never be replayed.

    Thread-safe: the query server executes one prepared statement from
    many snapshot readers concurrently while ``apply_update`` purges
    superseded-graph entries, so every structural operation on the LRU
    (lookup's move-to-end included) runs under a lock. Keying by graph
    *object* doubles as per-epoch cache keying — readers pinned to
    different catalog versions never share (or clobber) a plan.
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

    @staticmethod
    def _key(site, columns: Tuple[str, ...], graphs: Sequence[Any]) -> tuple:
        return (id(site), columns, tuple(map(id, graphs)))

    def lookup(
        self, site, columns: Tuple[str, ...], graphs: Sequence[Any]
    ) -> Any:
        """The memoized plan, or None."""
        key = self._key(site, columns, graphs)
        with self._mutex:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            entry_site, entry_graphs, plan = entry
            if entry_site is not site or any(
                mine is not theirs for mine, theirs in zip(entry_graphs, graphs)
            ):
                # id() reuse after garbage collection; drop the stale entry.
                del self._entries[key]
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return plan

    def store(
        self,
        site,
        columns: Tuple[str, ...],
        graphs: Sequence[Any],
        plan: Any,
    ) -> None:
        key = self._key(site, columns, graphs)
        with self._mutex:
            self._entries[key] = (site, tuple(graphs), plan)
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def purge_graph(self, graph) -> int:
        """Drop every plan memoized against *graph* (by identity).

        Called when a graph delta replaces a catalog entry: the prepared
        queries themselves stay hot (parse and AST survive — names
        re-resolve to the new graph at execution), only the plans made
        against the superseded graph object are evicted. A
        snapshot reader still pinned to *graph* simply re-plans on its
        next execution (a cache miss, never an error) and re-stores the
        plan under the same identity key. Returns the number of
        dropped entries.
        """
        with self._mutex:
            doomed = [
                key
                for key, (_, entry_graphs, _) in self._entries.items()
                if any(entry is graph for entry in entry_graphs)
            ]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def clear(self) -> None:
        with self._mutex:
            self._entries.clear()
