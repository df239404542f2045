"""A cost-based atom-ordering planner for MATCH evaluation.

The formal semantics joins the binding sets of every atom of a MATCH or
OPTIONAL block; evaluation order is the engine's one free choice. The
planner orders **all atoms of a block at once** — every comma-separated
pattern contributes to one atom list, each atom remembering the slot of
its pattern — over the statistics of the graph that slot is ``ON``
(:meth:`PathPropertyGraph.statistics`).

Every estimate is the same unit, output rows per input row given the
currently bound variables (an unbound scan multiplies the table by its
candidate count, an expansion by its fan, a filter by its selectivity;
the block's pushed conjuncts — its pattern ``{k = v}`` tests and WHERE
``=`` / ``IN`` conjuncts alike — filter the atom binding their
variable), so the planner can track the running table size. Binding a
variable makes the atoms touching it cheaper, so every candidate is
estimated again at each step, and the atom with the smallest
**cumulative** estimate ``rows x factor`` runs next, keyed by
(deferred, estimate, disconnected, syntax position):

* a disconnected atom that would multiply the table (factor > 1, no
  variable shared with the bound set) is deferred while an index probe
  (node, edge or stored-path atom) connected to the bound set remains:
  no cartesian product is built that the pattern lets the plan avoid;
* of two equal estimates, the atom connected to the bound set goes
  first, then the earlier one in syntax;
* a computed path atom's fan is the reach of the search it runs from
  its bound endpoint: forward from a source, over the nodes its steps
  enter (label targets, fan-out), or backward from a target alone, over
  the label sources (fan-in) — not for a regex naming a PATH view.
  Neither bound: one search per node.

No atom is pinned: a pattern test is a conjunct of the block, applied
once its variables are bound, so every atom order gives the same rows.

The regret harness of the test suite (``tests/atom_orders.py``) holds
each rule to account: it compares the work of the planned order, the
summed table sizes after its steps, with the least work of any allowed
order. Blocks have at most a dozen atoms, so estimating every candidate
at every step is microseconds.

:func:`plan_atoms` returns the full trace — the per-row estimate and
the cumulative table size each atom had at selection time.
:func:`plan_block` adds the WHERE assignment of
:mod:`repro.eval.pushdown` to make one immutable :class:`BlockPlan`:
block evaluation runs it, EXPLAIN prints it, and :class:`PlanCache`
memoizes it per (block site, bound columns, graph versions) for the
engine's prepared queries. A plan names no graph: what needs one takes
the block's graph list and reads ``graphs[atom.slot]``.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import (
    Any, Collection, Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
    Sequence, Set, Tuple,
)

from ..lang import ast
from ..lang.pretty import pretty_expr
from ..paths.automaton import regex_edge_steps
from .kernels import PatternTest
from .pushdown import PushdownPlan

__all__ = [
    "conjunct_text",
    "estimate_cardinality",
    "plan_atoms",
    "plan_block",
    "BlockPlan",
    "PlanStep",
    "PlanCache",
]


# ---------------------------------------------------------------------------
# Cardinality estimation (statistics-driven cost model)
# ---------------------------------------------------------------------------

def _node_estimate(atom, bound: Set[str], stats, pushed=None) -> float:
    pattern = atom.pattern
    selectivity = stats.label_selectivity("node", pattern.labels)
    if pushed:
        selectivity *= stats.property_tests_selectivity(
            "node", pushed.get(atom.var, ())
        )
    if atom.var in bound:
        return min(selectivity, 1.0)
    return stats.node_count * selectivity


def _edge_estimate(atom, bound: Set[str], stats, pushed=None) -> float:
    pattern = atom.pattern
    matching = stats.edge_count * stats.label_selectivity("edge", pattern.labels)
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
        atom.reverse is not None
        and atom.from_var not in bound
        and atom.to_var in bound
    )


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
    backward = _searches_backward(atom, bound)
    regex = atom.reverse if backward else pattern.regex
    fanout = stats.reachability_estimate(regex_edge_steps(regex))
    if pattern.mode not in ("reach", "all"):
        fanout *= max(pattern.count, 1)
    if atom.from_var in bound and atom.to_var in bound:
        return 1.0
    if atom.from_var in bound or backward:
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
    ``pushed_props`` maps a variable to the property keys of the
    block's pushed conjuncts (:meth:`PushdownPlan.pushed_property_keys`),
    sharpening the estimate of the atom binding it with per-key
    selectivities.
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
    estimate: Optional[float]  # output rows per input row
    rows: Optional[float]  # cumulative table size after the step
    probe: Tuple[Any, ...] = ()  # pushdown conjuncts filtering the candidates
    post: Tuple[ast.Expr, ...] = ()  # conjuncts applied to the step's output


def _is_search(atom) -> bool:
    return atom.kind == "path" and not atom.pattern.stored


def plan_atoms(
    atoms: Sequence[Any],
    graphs: Sequence[Any],
    bound: Iterable[str],
    pushed_props=None,
) -> List[PlanStep]:
    """Order the *atoms* of one block, starting from *bound* variables.

    Each atom is estimated over the statistics of its own graph,
    ``graphs[atom.slot]``, every candidate again at every step.
    The next atom is the one with the smallest cumulative table size
    (see the module docstring for the deferral and tie-break rules).
    The returned steps carry the selection-time numbers so EXPLAIN
    reports what the planner actually compared. A block with an atom
    whose graph is unknown (EXPLAIN of an ``ON (subquery)`` pattern)
    keeps syntax order: nothing is compared, so no statistics are read
    and the steps carry no estimates.
    """
    if any(graphs[atom.slot] is None for atom in atoms):
        return [PlanStep(atom, None, None) for atom in atoms]

    bound_set: Set[str] = set(bound)
    steps: List[PlanStep] = []
    stats = [graphs[atom.slot].statistics() for atom in atoms]
    binds = [atom.binds() for atom in atoms]
    remaining = list(range(len(atoms)))
    rows = 1.0
    while remaining:
        factor = {
            i: estimate_cardinality(atoms[i], bound_set, stats[i], pushed_props)
            for i in remaining
        }
        joined = {i for i in remaining if binds[i] & bound_set}
        probe_waits = any(not _is_search(atoms[i]) for i in joined)

        def key(i: int) -> Tuple[bool, float, bool, int]:
            # The running table size multiplies every candidate alike, so
            # the smallest factor is the smallest cumulative size.
            apart = i not in joined
            return (probe_waits and apart and factor[i] > 1, factor[i], apart, i)

        choice = min(remaining, key=key)
        rows *= factor[choice]
        steps.append(PlanStep(atoms[choice], factor[choice], rows))
        remaining.remove(choice)
        bound_set |= binds[choice]
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

    def describe(self, graphs: Sequence[Any]) -> str:
        """EXPLAIN's step table: per step, what the atom had when the
        planner selected it — ``est~`` (estimated output rows per input
        row) and ``rows~`` (the cumulative estimated table size after
        the step).

        A syntax-order plan compared no estimates, so the ones shown
        for it are computed here, over the statistics of the block's
        *graphs*, which execution never read.
        """
        steps: Sequence[PlanStep] = self.steps
        if steps and steps[0].estimate is None:
            steps = _estimated(steps, graphs, self.bound, self.pushed_props)
        lines: List[str] = []
        bound = set(self.bound)
        for step in steps:
            detail = ""
            if step.estimate is not None:
                detail += f"est~{_format_estimate(step.estimate):<8} "
            if step.rows is not None:
                detail += f"rows~{_format_estimate(step.rows):<8} "
            line = f"  {step.atom.kind:<5} {detail}binds={sorted(step.atom.binds())}"
            strategy = getattr(step.atom, "explain_strategy", None)
            if strategy is not None:
                # Path atoms report their search strategy (bfs, dijkstra,
                # reach or projection), the batched search every strategy
                # runs in, and direction.
                line += f" strategy={strategy()},batched"
                if _searches_backward(step.atom, bound):
                    line += ",backward"
            lines.append(line)
            bound |= step.atom.binds()
        return "\n".join(lines)

    def describe_where(self, graphs: Sequence[Any], ctx: Any) -> List[Tuple[ast.Expr, str]]:
        """EXPLAIN's conjunct lines, each with its conjunct: each step's
        pushed conjuncts (pattern tests, then WHERE conjuncts), then the
        residual.

        *graphs* is the block's graph list (None where unknown); *ctx*
        the context it runs in: a probe conjunct reads ``[index]`` when
        it is a lookup the atom's own graph answers — a test of a pattern
        ON that graph, or a WHERE conjunct whose reads
        :meth:`~repro.eval.context.EvalContext.property_reads_stay_in`
        that graph, as execution decides — ``[probe]`` otherwise; a
        post-atom conjunct reads ``[filter]``.
        """
        lines: List[Tuple[ast.Expr, str]] = []
        for step in self.steps:
            atom = step.atom
            graph = graphs[atom.slot]
            label = atom.explain_label()
            for conjunct in step.probe:
                (var,) = conjunct.variables
                expr = conjunct.expr
                indexed = conjunct.lookup is not None and graph is not None and (
                    graphs[expr.slot] is graph if isinstance(expr, PatternTest)
                    else ctx.property_reads_stay_in(
                        graph, getattr(graph, atom.probe_universe(var))
                    )
                )
                tag = "index" if indexed else "probe"
                lines.append((expr, f"pushed {conjunct_text(expr)} -> {label} [{tag}]"))
            for expr in step.post:
                lines.append((expr, f"pushed {conjunct_text(expr)} -> {label} [filter]"))
        lines.extend((expr, f"residual {conjunct_text(expr)}") for expr in self.residual)
        return lines


def conjunct_text(expr: ast.Expr) -> str:
    """How EXPLAIN prints a conjunct: a pattern test as ``x {k = v}``."""
    if isinstance(expr, PatternTest):
        return f"{expr.var} {{{expr.key} = {pretty_expr(expr.value)}}}"
    return pretty_expr(expr)


def _estimated(
    steps: Sequence[PlanStep], graphs: Sequence[Any], bound: Iterable[str],
    pushed_props,
) -> List[PlanStep]:
    """*steps* with the estimates of their order filled in (``None``
    where an atom's graph is unknown, and cumulatively after it)."""
    bound_set = set(bound)
    known: Optional[float] = 1.0
    estimated: List[PlanStep] = []
    for step in steps:
        atom = step.atom
        graph = graphs[atom.slot]
        estimate = None if graph is None else estimate_cardinality(
            atom, bound_set, graph.statistics(), pushed_props
        )
        known = None if known is None or estimate is None else known * estimate
        estimated.append(step._replace(estimate=estimate, rows=known))
        bound_set |= atom.binds()
    return estimated


def plan_block(
    atoms: Sequence[Any],
    graphs: Sequence[Any],
    where: Optional[ast.Expr],
    bound: Iterable[str],
    params: Collection[str],
) -> BlockPlan:
    """Plan one block: its *atoms* ordered from the *bound* variables
    over the statistics of *graphs* (one per pattern slot), and their
    pattern tests and *where* assigned to the steps.

    The planner prices the pushed conjuncts into its estimates. *params*
    names the bound query parameters (a conjunct reading a missing one
    is never pushed). The assignment is a pure function of the step
    order, which is what lets a prepared query replay the plan and
    EXPLAIN print it.
    """
    variables = frozenset(bound)
    pushdown = PushdownPlan(where, params, atoms)
    pushed_props = pushdown.pushed_property_keys() or None
    steps = plan_atoms(atoms, graphs, variables, pushed_props=pushed_props)
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
    """An LRU memo of :class:`BlockPlan` objects, one per (block site,
    bound columns, graph versions).

    A :class:`~repro.engine.PreparedQuery` owns one of these; the match
    evaluator consults it before planning so repeated executions of the
    same statement skip planning work entirely. A plan names no graph,
    and an entry holds the graph objects it was made for only through
    :func:`weakref.ref`, so no memo keeps a superseded catalog version
    alive. A graph object is one version (graphs are immutable):
    readers of different catalog versions never share a plan, and an
    entry whose graph has died never matches again and ages out of the
    LRU.

    Thread-safe: the query server executes one prepared statement from
    many snapshot readers concurrently, so every operation on the LRU
    (lookup's move-to-end included) runs under a lock.
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
            entry_site, refs, plan = entry
            if entry_site is not site or any(
                ref() is not graph for ref, graph in zip(refs, graphs)
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
        refs = tuple(map(weakref.ref, graphs))
        with self._mutex:
            self._entries[key] = (site, refs, plan)
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._mutex:
            self._entries.clear()
