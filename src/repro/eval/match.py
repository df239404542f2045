"""MATCH evaluation — Appendix A.2.

A match block is decomposed into *atoms* — node, edge and path patterns —
that are evaluated incrementally against a growing binding table. A
cost-based planner (see :mod:`repro.eval.planner`) orders all atoms of a
block at once — every comma-separated pattern, each atom expanding
against ``graphs[atom.slot]``, the graph its pattern is ``ON`` — by
cumulative estimated table size, so that selective atoms run first and
every later atom probes outward from what is already bound; path atoms
run once an endpoint is bound, grouping the binding column by source id
(found by a backward reach when only the target is bound) and expanding
via batched product-graph searches (one shared search structure per
group, :mod:`repro.paths.product`). Prepared queries memoize the
block's whole plan — order and WHERE pushdown — per block site and
graph versions (:class:`~repro.eval.planner.PlanCache`).

Semantics notes:

* homomorphism semantics — no injectivity constraints (Section 6);
* anonymous pattern elements are existential: they do not contribute
  binding columns (internally they get hidden names, projected away);
* ``OPTIONAL`` blocks left-outer-join in syntactic order (A.2);
* ``WHERE`` filters; implicit existential patterns inside WHERE evaluate
  the pattern seeded with the current row (A.2's `J.K_{Omega,G}`).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from ..algebra.binding import ABSENT, Binding, BindingTable
from ..algebra.ops import table_left_join
from ..errors import EvaluationError, SemanticError, UnknownGraphError
from ..lang import ast
from ..model.graph import ObjectId, PathPropertyGraph
from ..model.values import gcore_in
from ..paths.automaton import NFA, compile_regex, regex_view_names, reverse_regex
from ..paths.product import PathFinder
from ..paths.walk import AllPathsHandle
from .context import EvalContext
from .kernels import ExpressionCompiler, PatternTest, compiled_filter_rows
from .planner import BlockPlan, PlanStep, plan_block
from .pushdown import CandidateProbe, candidate_probes

__all__ = [
    "evaluate_match",
    "evaluate_block",
    "chain_matches",
    "block_atoms",
    "block_graphs",
    "pattern_targets",
    "decompose_chain",
    "match_rows_touching",
    "outer_seed",
    "predicate_block",
    "run_atom_sequence",
    "finish_block_where",
    "NodeAtom",
    "EdgeAtom",
    "PathAtom",
]

ANON_PREFIX = "#anon"

#: Distinct regexes whose compiled automata stay cached.
_NFA_SLOTS = 256

_NFA_CACHE: Dict[ast.RegexExpr, NFA] = {}


def _nfa_for(regex: Optional[ast.RegexExpr]) -> NFA:
    key = regex if regex is not None else ast.RStar(ast.RAnyEdge())
    nfa = _NFA_CACHE.get(key)
    if nfa is None:
        if len(_NFA_CACHE) >= _NFA_SLOTS:
            _NFA_CACHE.clear()
        nfa = _NFA_CACHE[key] = compile_regex(key)
    return nfa


def path_finder(
    regex: Optional[ast.RegexExpr], graph: PathPropertyGraph, ctx: EvalContext
) -> PathFinder:
    """The product-graph search for *regex* over *graph*: from the graph's
    epoch memo, keyed by the regex text and its views' clause texts, when
    every view is per epoch (:meth:`EvalContext.epoch_view_key`); else fresh.
    """
    names = sorted(regex_view_names(regex))
    keys = tuple(ctx.epoch_view_key(name, graph) for name in names)

    def build() -> PathFinder:
        views = {name: ctx.segments_for(name, graph) for name in names}
        return PathFinder(graph, _nfa_for(regex), views)

    if None in keys:
        return build()
    return graph.epoch_memo(("finder", repr(regex), keys), build)


def _sorted_ids(ids: Iterable[ObjectId]) -> List[ObjectId]:
    return sorted(ids, key=str)


def _label_candidates(
    universe: FrozenSet[ObjectId],
    labels: Tuple[Tuple[str, ...], ...],
    index,
    within: Optional[Set[ObjectId]] = None,
) -> List[ObjectId]:
    """Candidates satisfying a conjunction of label-disjunction groups.

    *within* (value-index hits, any kind of object) bounds the
    candidates before they are sorted.
    """
    if not labels:
        return _sorted_ids(universe if within is None else within & universe)
    current: Optional[Set[ObjectId]] = within
    for group in labels:
        group_set: Set[ObjectId] = set()
        for label in group:
            group_set |= index(label)
        current = group_set if current is None else current & group_set
        if not current:
            return []
    return _sorted_ids(current or set())


def _satisfies_labels(
    graph_labels: FrozenSet[str], labels: Tuple[Tuple[str, ...], ...]
) -> bool:
    return not any(graph_labels.isdisjoint(group) for group in labels)


# ---------------------------------------------------------------------------
# Columnar expansion helpers
#
# Every atom expands into index vectors: ``rows``, the input row each
# output row extends (non-decreasing for node and edge atoms; grouped by
# source for path atoms), and ``fresh``, the output vectors of the names
# the atom binds where the input leaves them unbound. _assemble gathers
# every other column through ``rows`` in one pass. Atoms test labels
# only: ``{k = v}`` tests are conjuncts of the block, and reach an atom
# as its candidate probes.
# ---------------------------------------------------------------------------

def _gather(vector: List[Any], index: List[int]) -> List[Any]:
    return [vector[i] for i in index]


def _fresh_vectors(
    table: BindingTable, rows: List[int], emitted: Dict[str, List[Any]]
) -> Dict[str, List[Any]]:
    """The fresh vectors of the names an expansion binds, from the
    objects it *emitted* per name (aligned with *rows*).

    A name bound on every input row gets none: :func:`_assemble`
    gathers its input column. One bound on some rows only gets its
    input cells where bound, so the bound objects stay the input's own.
    """
    fresh: Dict[str, List[Any]] = {}
    for name, column in emitted.items():
        vector = table.column_values(name)
        if vector is None:
            fresh[name] = column
        elif any(value is ABSENT for value in vector):
            fresh[name] = [
                column[k] if vector[i] is ABSENT else vector[i] for k, i in enumerate(rows)
            ]
    return fresh


def _current(
    table: BindingTable, rows: List[int], fresh: Dict[str, List[Any]], name: str
) -> Optional[List[Any]]:
    """*name*'s output vector so far, or None when no row binds it."""
    if name in fresh:
        return fresh[name]
    vector = table.column_values(name)
    return None if vector is None else _gather(vector, rows)


def _unroll_binds(
    graph: PathPropertyGraph,
    binds: Tuple[Tuple[str, str], ...],
    table: BindingTable,
    rows: List[int],
    objs: List[ObjectId],
    fresh: Dict[str, List[Any]],
) -> Tuple[List[int], Dict[str, List[Any]]]:
    """Unroll multi-valued property binds ``{k = x}`` (Section 3),
    column-wise over the emitted (row, object) pairs.

    Bind by bind, each pair becomes one pair per value of its object's
    property, in sorted value order. A pair whose *x* is already
    assigned — by its input row, the atom or an earlier bind — is kept
    once if that value is a member under G-CORE value equality.
    """
    memo: Dict[Tuple[ObjectId, str], List[Any]] = {}
    for key, bind_var in binds:
        existing = _current(table, rows, fresh, bind_var)
        take: List[int] = []
        new: List[Any] = []
        for p, obj in enumerate(objs):
            values = memo.get((obj, key))
            if values is None:
                values = sorted(
                    graph.property(obj, key),
                    key=lambda v: (str(type(v)), str(v)),
                )
                memo[obj, key] = values
            have = ABSENT if existing is None else existing[p]
            if have is ABSENT:
                take.extend([p] * len(values))
                new.extend(values)
            elif have in values and gcore_in(have, values):
                take.append(p)
                new.append(have)
        rows = _gather(rows, take)
        objs = _gather(objs, take)
        fresh = {name: _gather(column, take) for name, column in fresh.items()}
        fresh[bind_var] = new
    return rows, fresh


def _assemble(
    table: BindingTable,
    columns: Tuple[str, ...],
    rows: List[int],
    fresh: Dict[str, List[Any]],
    dedup: bool,
) -> BindingTable:
    """Build an extension result: gather the input columns through the
    emitted row indices and splice in the fresh vectors.

    Distinct input rows extend to distinct output rows unless a fresh
    vector fills a partly bound input column, so only then, or when the
    atom says its expansion can repeat a row (*dedup*), is the result
    deduplicated. With no fresh vector the result is a row selection.
    """
    in_vars = table.variables
    dedup = dedup or any(name in fresh for name in in_vars)
    if not fresh:
        if dedup:  # a row repeats only as a run of one input row
            rows = list(dict.fromkeys(rows))
        if len(rows) < len(table):
            table = table.select_rows(rows)
        return table.with_columns(columns)
    data = {
        var: _gather(table.column_values(var) or [], rows)
        for var in in_vars if var not in fresh
    }
    data.update(fresh)
    variables = [*in_vars, *(name for name in fresh if name not in in_vars)]
    return BindingTable.from_columns(columns, variables, data, len(rows), dedup=dedup)


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

class _Atom:
    """What the three atom kinds share: the slot of the pattern they come
    from — ``graphs[atom.slot]`` is the graph that pattern is ON — and
    the position of their element in its chain."""

    slot = 0  # set by block_atoms
    position = 0  # set by decompose_chain
    pattern: Any
    var: Any  # the variable a node or edge atom binds its element to

    def tests(self) -> Tuple[PatternTest, ...]:
        """The pattern's ``{k = v}`` tests, lowered to block conjuncts
        (path patterns have none)."""
        return tuple(
            PatternTest(self.var, key, value, self.slot)
            for key, value in getattr(self.pattern, "prop_tests", ())
        )

    def probe_universe(self, var: str) -> Optional[str]:
        """Which object set of the graph — ``"nodes"`` or ``"edges"`` —
        this atom draws *var*'s candidates from; None when it cannot
        filter *var* at its probe (path atoms never do)."""
        return None


class NodeAtom(_Atom):
    """A node pattern bound to a variable (named or hidden)."""

    kind = "node"

    def __init__(self, pattern: ast.NodePattern, var: str) -> None:
        if pattern.copy_of is not None:
            raise SemanticError("copy patterns (=x) are CONSTRUCT-only")
        self.pattern = pattern
        self.var = var

    def binds(self) -> FrozenSet[str]:
        return frozenset(
            {self.var, *(v for _, v in self.pattern.prop_binds)}
        )

    def explain_label(self) -> str:
        return f"node({self.var})"

    def probe_universe(self, var: str) -> Optional[str]:
        return "nodes" if var == self.var else None

    def extend(
        self,
        table: BindingTable,
        graph: PathPropertyGraph,
        ctx: EvalContext,
        probes: Dict[str, CandidateProbe],
    ) -> BindingTable:
        """Index-vector expansion: emitted row indices plus the freshly
        bound columns, assembled in one gather.

        Rows arriving with the variable bound (seeded blocks) get one
        verdict per distinct object; when the atom binds no new column
        the result is a row mask of the input. Unbound rows share one
        candidate vector, resolved once in identifier order: value-index
        hits of the conjuncts in ``probes`` (var ->
        :class:`CandidateProbe`) bound the label candidates before they
        are sorted, and the conjuncts then run on the survivors only.
        ``{k = x}`` binds unroll column-wise over the emitted pairs.
        """
        pattern = self.pattern
        var = self.var
        probe: Optional[CandidateProbe] = probes.get(var)
        var_vector = table.column_values(var)

        def admissible(nodes: List[ObjectId]) -> List[ObjectId]:
            return nodes if probe is None else probe.keep(nodes)

        bound_ok: Set[ObjectId] = set()
        if var_vector is not None:
            bound_ok.update(admissible([
                node
                for node in dict.fromkeys(var_vector)
                if node is not ABSENT
                and node in graph.nodes
                and _satisfies_labels(graph.labels(node), pattern.labels)
            ]))
        scan: Optional[List[ObjectId]] = None
        rows: List[int] = []
        objs: List[ObjectId] = []
        for i in range(len(table)):
            bound = ABSENT if var_vector is None else var_vector[i]
            candidates: Sequence[ObjectId]
            if bound is not ABSENT:
                if bound not in bound_ok:
                    continue
                candidates = (bound,)
            else:
                if scan is None:
                    hits = None if probe is None else probe.narrow(graph, graph.nodes)
                    scan = admissible(_label_candidates(
                        graph.nodes, pattern.labels, graph.nodes_with_label,
                        within=hits,
                    ))
                candidates = scan
            rows.extend([i] * len(candidates))
            objs.extend(candidates)
        fresh = _fresh_vectors(table, rows, {var: objs})
        if pattern.prop_binds:
            rows, fresh = _unroll_binds(
                graph, pattern.prop_binds, table, rows, objs, fresh
            )
        columns = tuple(table.columns) + tuple(self.binds())
        return _assemble(table, columns, rows, fresh, bool(pattern.prop_binds))


class EdgeAtom(_Atom):
    """An edge pattern between two node variables."""

    kind = "edge"

    def __init__(
        self, pattern: ast.EdgePattern, src_var: str, dst_var: str, var: Optional[str]
    ) -> None:
        if pattern.copy_of is not None:
            raise SemanticError("copy patterns -[=y]- are CONSTRUCT-only")
        self.pattern = pattern
        self.src_var = src_var
        self.dst_var = dst_var
        self.var = var  # None = anonymous (existential, not bound)

    def binds(self) -> FrozenSet[str]:
        names = {self.src_var, self.dst_var}
        if self.var:
            names.add(self.var)
        names.update(v for _, v in self.pattern.prop_binds)
        return frozenset(names)

    def explain_label(self) -> str:
        return f"edge({self.var or '_'}:{self.src_var}->{self.dst_var})"

    def probe_universe(self, var: str) -> Optional[str]:
        if var in (self.src_var, self.dst_var):
            return "nodes"
        return "edges" if var == self.var else None

    def orientations(self) -> List[Tuple[str, str]]:
        if self.pattern.direction == ast.OUT:
            return [(self.src_var, self.dst_var)]
        if self.pattern.direction == ast.IN:
            return [(self.dst_var, self.src_var)]
        return [(self.src_var, self.dst_var), (self.dst_var, self.src_var)]

    def extend(
        self,
        table: BindingTable,
        graph: PathPropertyGraph,
        ctx: EvalContext,
        probes: Dict[str, CandidateProbe],
    ) -> BindingTable:
        """Index-vector expansion against label-bucketed adjacency lists.

        A bound endpoint probes the graph's adjacency index bucketed by
        the pattern's first label group when that group is one label
        (all edges otherwise); the output is emitted row indices plus
        the freshly bound columns, assembled in one gather. The bucket
        is the label rule: when it is the pattern's whole label
        constraint its edges are admitted untested; a memoized per-edge
        test remains only for residual label groups and index hits. Rows
        with neither endpoint bound share one filtered scan of the edges.

        ``probes`` (var -> :class:`CandidateProbe`) carries the pushed
        conjuncts — pattern tests and WHERE conjuncts — on the edge
        variable or an endpoint. Their value-index hits are membership
        sets that drop a candidate edge as soon as it or its endpoints
        resolve; the conjuncts themselves then run once over the
        distinct objects of each probed output vector, before the result
        is assembled. Only an anonymous edge (parallel edges), an
        undirected pattern or ``{k = x}`` binds can repeat a row, so
        only they deduplicate.
        """
        pattern = self.pattern
        var = self.var
        edge_hits = probes[var].narrow(graph, graph.edges) if var in probes else None
        node_hits = {
            name: probes[name].narrow(graph, graph.nodes)
            for name in (self.src_var, self.dst_var)
            if name in probes
        }
        var_vector = table.column_values(var) if var else None

        labels = pattern.labels
        bucket = labels[0][0] if labels and len(labels[0]) == 1 else None
        residual = labels[1:] if bucket is not None else labels
        out_adj = graph.out_adjacency(bucket)
        in_adj = graph.in_adjacency(bucket)
        in_bucket = graph.edges if bucket is None else graph.edges_with_label(bucket)
        tested = bool(residual) or edge_hits is not None
        edge_ok: Dict[ObjectId, bool] = {}

        def admit(edges: Sequence[ObjectId]) -> Sequence[ObjectId]:
            """The bucket *edges* passing the residual test (memoized)."""
            if not tested:
                return edges
            for edge in edges:
                if edge not in edge_ok:
                    edge_ok[edge] = (
                        (edge_hits is None or edge in edge_hits)
                        and _satisfies_labels(graph.labels(edge), residual)
                    )
            return [edge for edge in edges if edge_ok[edge]]

        rho = graph.endpoints
        scan: Optional[Sequence[ObjectId]] = None
        orientations = [
            (
                table.column_values(from_var), table.column_values(to_var),
                node_hits.get(from_var), node_hits.get(to_var),
                from_var == to_var, from_var != self.src_var,
            )
            for from_var, to_var in self.orientations()
        ]
        # (row, src_var's object, dst_var's object, edge) per output row
        emitted: List[Tuple[int, ObjectId, ObjectId, ObjectId]] = []
        for i in range(len(table)):
            bound_edge = ABSENT if var_vector is None else var_vector[i]
            for from_vec, to_vec, from_hits, to_hits, loop, swap in orientations:
                fv = ABSENT if from_vec is None else from_vec[i]
                tv = ABSENT if to_vec is None else to_vec[i]
                candidates: Sequence[ObjectId]
                if bound_edge is not ABSENT:
                    candidates = admit((bound_edge,)) if bound_edge in in_bucket else ()
                elif fv is not ABSENT:
                    candidates = admit(out_adj.get(fv, ()))
                    fv = ABSENT  # the bucket holds fv's out-edges only
                elif tv is not ABSENT:
                    candidates = admit(in_adj.get(tv, ()))
                    tv = ABSENT
                else:
                    if scan is None:
                        scan = admit(_label_candidates(
                            graph.edges, labels, graph.edges_with_label, within=edge_hits
                        ))
                    candidates = scan
                for edge in candidates:
                    src, dst = rho(edge)
                    if (
                        (fv is not ABSENT and fv != src)
                        or (tv is not ABSENT and tv != dst)
                        or (loop and src != dst)
                        or (from_hits is not None and src not in from_hits)
                        or (to_hits is not None and dst not in to_hits)
                    ):
                        continue
                    emitted.append((i, dst, src, edge) if swap else (i, src, dst, edge))
        rows, src_objs, dst_objs, edges = (
            [list(vector) for vector in zip(*emitted)] if emitted else [[], [], [], []]
        )
        values = {self.src_var: src_objs, self.dst_var: dst_objs}
        if var:
            values[var] = edges
        fresh = _fresh_vectors(table, rows, values)
        if pattern.prop_binds:
            rows, fresh = _unroll_binds(
                graph, pattern.prop_binds, table, rows, edges, fresh
            )
        for name, probe in probes.items():
            vector = _current(table, rows, fresh, name) or []
            distinct = list(dict.fromkeys(vector))
            passing = set(probe.keep(distinct))
            if len(passing) < len(distinct):
                kept = [j for j, obj in enumerate(vector) if obj in passing]
                rows = _gather(rows, kept)
                fresh = {column: _gather(col, kept) for column, col in fresh.items()}
        columns = tuple(table.columns) + tuple(self.binds())
        dedup = var is None or pattern.direction == ast.UNDIRECTED or bool(pattern.prop_binds)
        return _assemble(table, columns, rows, fresh, dedup)


#: A path pattern's answers from one source: per target, each ``(value,
#: cost)`` it binds — a walk, ALL handle or stored path id, and the
#: walk's cost — with None where the mode binds nothing.
Answers = Dict[ObjectId, Tuple[Tuple[Any, Any], ...]]
#: The stop set of a search: the targets wanted, None for every target.
Wanted = Optional[Set[ObjectId]]
#: ``answers(source, wanted)``: one search from *source*.
AnswerFunction = Callable[[ObjectId, Wanted], Answers]


class PathAtom(_Atom):
    """A path pattern between two node variables (Appendix A.2)."""

    kind = "path"

    def __init__(
        self, pattern: ast.PathPatternElem, src_var: str, dst_var: str
    ) -> None:
        self.pattern = pattern
        self.src_var = src_var
        self.dst_var = dst_var
        #: The regex a search from a bound target runs, or None when the
        #: atom cannot search backward (stored paths, PATH-view regexes).
        self.reverse = None if pattern.stored else reverse_regex(pattern.regex)

    @property
    def from_var(self) -> str:
        return self.dst_var if self.pattern.direction == ast.IN else self.src_var

    @property
    def to_var(self) -> str:
        return self.src_var if self.pattern.direction == ast.IN else self.dst_var

    def binds(self) -> FrozenSet[str]:
        names = {self.src_var, self.dst_var}
        if self.pattern.var:
            names.add(self.pattern.var)
        if self.pattern.cost_var:
            names.add(self.pattern.cost_var)
        return frozenset(names)

    def explain_label(self) -> str:
        return f"path({self.src_var}->{self.dst_var})"

    def explain_strategy(self) -> str:
        """The search strategy EXPLAIN reports for this atom."""
        if self.pattern.stored:
            return "stored"
        if self.pattern.mode == "reach":
            return "reach"  # a DFS over the move memo
        if self.pattern.mode == "all":
            return "projection"  # forward and backward projection passes
        return "bfs" if _nfa_for(self.pattern.regex).unit_cost else "dijkstra"

    def _answers(
        self, graph: PathPropertyGraph, ctx: EvalContext
    ) -> Tuple[AnswerFunction, Iterable[ObjectId]]:
        """The pattern's :data:`AnswerFunction` over *graph*, and the
        sources a row with an unbound source tries: every node, or for
        stored paths the start nodes of the stored path table."""
        pattern = self.pattern
        if pattern.stored:
            stored: Dict[ObjectId, Answers] = {}
            for pid in _label_candidates(graph.paths, pattern.labels, graph.paths_with_label):
                sequence = graph.path_sequence(pid)
                ends = stored.setdefault(sequence[0], {})
                ends[sequence[-1]] = (*ends.get(sequence[-1], ()), (pid, len(sequence) // 2))
            return (lambda source, wanted: stored.get(source, {})), stored
        finder = path_finder(pattern.regex, graph, ctx)
        if pattern.mode == "reach":
            def reach(source: ObjectId, wanted: Wanted) -> Answers:
                return dict.fromkeys(finder.reachable_from(source), ((None, None),))
            return reach, graph.nodes
        if pattern.mode == "all":
            def projections(source: ObjectId, wanted: Wanted) -> Answers:
                return {
                    target: ((AllPathsHandle(
                        source, target, tuple(_sorted_ids(ns)), tuple(_sorted_ids(es))
                    ), None),)
                    for target, (ns, es) in finder.all_paths_multi(source, wanted).items()
                }
            return projections, graph.nodes
        if pattern.count == 1 and (
            not pattern.var or pattern.var in ctx.unread_paths
            and not any(v.startswith(ANON_PREFIX) for v in (self.from_var, self.to_var))
        ):
            def costs(source: ObjectId, wanted: Wanted) -> Answers:
                found = finder.best_costs(source, wanted)
                return {target: ((None, _coerce_cost(cost)),) for target, cost in found.items()}
            return costs, graph.nodes

        def walks(source: ObjectId, wanted: Wanted) -> Answers:
            found = finder.k_shortest_multi(source, wanted, pattern.count)
            return {
                target: tuple((walk, _coerce_cost(walk.cost)) for walk in ranked)
                for target, ranked in found.items()
            }
        return walks, graph.nodes

    def extend(
        self,
        table: BindingTable,
        graph: PathPropertyGraph,
        ctx: EvalContext,
        probes: Dict[str, CandidateProbe],
    ) -> BindingTable:
        """Batched columnar path expansion (path atoms are never probed).

        Rows are grouped by source id, and each group asks the pattern's
        answer function once (:meth:`_answers`: a reach, an ALL
        projection pass, a best-cost frontier for SHORTEST whose walk
        nothing reads — none, or an unread one between named endpoints —
        else the k-scan, SHORTEST being k = 1; stored paths read the
        stored path table by start node), its stop set the group's bound
        targets. Rows whose target alone is bound take their sources from
        one backward reach per distinct target: reachability emits them
        with no forward search, other modes search forward from them
        (walks and their tie-break stay the forward ones). A walk or cost
        variable the row already binds keeps only the answers equal to
        it: a name two patterns share binds one value. The emitted
        ``(row, source, target, walk, cost)`` tuples become index vectors
        that :func:`_fresh_vectors` and :func:`_assemble` build the
        result from.
        """
        pattern = self.pattern
        if pattern.direction == ast.UNDIRECTED:
            raise SemanticError("path patterns must be directed (-/ /-> or <-/ /-)")
        answers, starts = self._answers(graph, ctx)
        from_var, to_var = self.from_var, self.to_var
        unset = [ABSENT] * len(table)

        def vector(name: Optional[str]) -> List[Any]:
            return (table.column_values(name) if name else None) or unset

        from_vec, to_vec = vector(from_var), vector(to_var)
        # Group rows by source. An unbound row with a bound target
        # (``backward``) joins the groups of the sources its target's
        # backward reach finds; any other unbound row tries every start.
        groups: Dict[ObjectId, List[int]] = defaultdict(list)
        unbound: List[int] = []
        for i, source in enumerate(from_vec):
            if source is ABSENT:
                unbound.append(i)
            else:
                groups[source].append(i)
        backward = {
            i for i in unbound if to_vec[i] is not ABSENT
        } if self.reverse is not None else set()
        sources_of = path_finder(self.reverse, graph, ctx).reachable_multi(
            [to_vec[i] for i in backward]
        ) if backward else {}
        for i in unbound:
            for node in sources_of[to_vec[i]] if i in backward else starts:
                groups[node].append(i)

        walk_vec, cost_vec = vector(pattern.var), vector(pattern.cost_var)
        emitted: List[Tuple[int, ObjectId, ObjectId, Any, Any]] = []
        for source in sorted(groups, key=str):
            if source not in graph.nodes:
                continue
            # A self-loop pattern's target is its source.
            rows = [(i, source if from_var == to_var else to_vec[i]) for i in groups[source]]
            found: Optional[Answers] = None
            for i, target in rows:
                if i in backward and pattern.mode == "reach":  # the reverse reach found source
                    emitted.append((i, source, target, None, None))
                    continue
                if found is None:
                    bound = {t for _, t in rows}
                    found = answers(source, None if ABSENT in bound else bound)
                    ordered = sorted(found, key=str)
                walk, cost = walk_vec[i], cost_vec[i]
                for t in ordered if target is ABSENT else (target,):
                    for w, c in found.get(t, ()):
                        if (walk is ABSENT or w is None or w == walk) and (
                            cost is ABSENT or c is None or c == cost
                        ):
                            emitted.append((i, source, t, w, c))
        out_rows, sources, targets, walks, costs = (
            [list(column) for column in zip(*emitted)] if emitted else [[], [], [], [], []]
        )
        values = {from_var: sources, to_var: targets}
        # A mode binds no walk (reach, the best-cost frontier) or no cost
        # (reach, ALL) by answering None there.
        for name, column in ((pattern.var, walks), (pattern.cost_var, costs)):
            if name and column and column[0] is not None:
                values[name] = column
        fresh = _fresh_vectors(table, out_rows, values)
        columns = tuple(table.columns) + tuple(self.binds())
        return _assemble(table, columns, out_rows, fresh, True)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _coerce_cost(cost: float) -> Any:
    """Integral walk costs bind as ints (hop counts print as 2, not 2.0)."""
    if isinstance(cost, float) and cost.is_integer():
        return int(cost)
    return cost


# ---------------------------------------------------------------------------
# Chain decomposition
# ---------------------------------------------------------------------------

def decompose_chain(chain: ast.Chain, hidden: Iterator[str]) -> List[Any]:
    """Split a chain into Node/Edge/Path atoms with resolved endpoints,
    each with its element's position in the chain. An anonymous node,
    and an anonymous edge with a ``{k = v}`` test (the test is a
    conjunct over it), takes the next of the *hidden* names."""
    atoms: List[Any] = []
    node_vars: List[str] = []
    for index, element in enumerate(chain.nodes()):
        var = element.var or next(hidden)
        node_vars.append(var)
        atoms.append(NodeAtom(element, var))
        atoms[-1].position = 2 * index
    for index, connector in enumerate(chain.connectors()):
        src_var = node_vars[index]
        dst_var = node_vars[index + 1]
        if isinstance(connector, ast.EdgePattern):
            var = connector.var
            if var is None and connector.prop_tests:
                var = next(hidden)
            atoms.append(EdgeAtom(connector, src_var, dst_var, var))
        elif isinstance(connector, ast.PathPatternElem):
            atoms.append(PathAtom(connector, src_var, dst_var))
        else:  # pragma: no cover - parser guarantees the alternation
            raise SemanticError(f"unexpected chain element: {connector!r}")
        atoms[-1].position = 2 * index + 1
    return atoms


# ---------------------------------------------------------------------------
# Block and clause evaluation
# ---------------------------------------------------------------------------

def _resolve_on(on: Any, ctx: EvalContext) -> PathPropertyGraph:
    """Execution's resolution of an ``ON``: a graph name, or a subquery
    run one level below *ctx*."""
    if isinstance(on, str):
        return ctx.resolve_graph(on)
    from .query import evaluate_query  # local import: cycle

    result = evaluate_query(on, ctx.child())
    if not isinstance(result, PathPropertyGraph):
        raise EvaluationError("ON (subquery) must produce a graph")
    return result


def pattern_targets(block: ast.MatchBlock, inherited: Any, resolve: Callable) -> List[Any]:
    """What each pattern of *block* reads, in pattern order: the one scope
    rule, which execution, EXPLAIN, the analyzer and view maintenance
    apply each with its own *resolve* (an ``ON``, a graph name or a
    subquery, to a target), called once per distinct ``ON``.

    A pattern reads its own ``ON``; without one, its block's first ``ON``
    (``MATCH p1, p2 ON g`` scopes the whole pattern list, Section 3);
    without that, *inherited*, what the block inherits.
    """
    first = next((l.on for l in block.patterns if l.on is not None), None)
    if first is None:
        return [inherited] * len(block.patterns)
    resolved: Dict[Any, Any] = {}
    targets: List[Any] = []
    for location in block.patterns:
        on = first if location.on is None else location.on
        key = on if isinstance(on, str) else id(on)
        if key not in resolved:
            resolved[key] = resolve(on)
        targets.append(resolved[key])
    return targets


def block_graphs(block: ast.MatchBlock, ctx: EvalContext,
                 inherited: Optional[PathPropertyGraph] = None) -> List[PathPropertyGraph]:
    """The graph each pattern of *block* reads (:func:`pattern_targets`),
    in pattern order; an ON-less block reads *inherited*, by default the
    graph *ctx*'s scope inherits. Each is touched, so property lookups
    follow the pattern order.

    Name resolution is eager: whether an atom ever runs depends on the
    data and the atom order, but an unknown ON graph or path view must
    raise regardless, matching the analyzer's GC101/GC105 verdicts.
    """
    inherited = ctx.current_graph if inherited is None else inherited
    graphs = pattern_targets(block, inherited, lambda on: _resolve_on(on, ctx))
    if graphs[0] is None:  # an ON-less block in a scope that inherits the default
        default = ctx.catalog.default_graph()
        if default is None:
            raise UnknownGraphError("<default>")
        graphs = [default] * len(graphs)
    for location in block.patterns:
        for element in location.chain.elements:
            if isinstance(element, ast.PathPatternElem):
                for view_name in sorted(regex_view_names(element.regex)):
                    ctx.require_path_view(view_name)
    for graph in graphs:
        ctx.touch_graph(graph)
    return graphs


def block_atoms(block: ast.MatchBlock) -> List[Any]:
    """Every pattern of *block* as one atom list, in syntax order.

    Each atom records the slot of its pattern: with the block's graph
    list (:func:`block_graphs`, or EXPLAIN's best guess, None where it
    cannot know), ``graphs[atom.slot]`` is the graph it runs against, so
    one plan and one :func:`run_atom_sequence` cover multi-graph blocks
    and the plan itself names no graph.
    """
    hidden = (f"{ANON_PREFIX}{i}" for i in itertools.count())
    atoms: List[Any] = []
    for slot, location in enumerate(block.patterns):
        for atom in decompose_chain(location.chain, hidden):
            atom.slot = slot
            atoms.append(atom)
    return atoms


def _block_plan(
    site: Any,
    block: ast.MatchBlock,
    graphs: List[PathPropertyGraph],
    table: BindingTable,
    ctx: EvalContext,
) -> BlockPlan:
    """Plan a block, consulting the prepared-query plan cache if any.

    Plans are memoized per (block site, bound columns, graph versions) —
    atom order and pushdown never affect the result (the semantics is a
    join), so a cached plan is always safe to replay against the
    identical site and graphs. A cache is only installed for runs with
    every parameter bound (:class:`~repro.engine.PreparedQuery`), the
    other input of :func:`~repro.eval.planner.plan_block`.
    """
    cache = ctx.plan_cache
    columns = tuple(table.columns)
    if cache is not None:
        plan = cache.lookup(site, columns, graphs)
        if plan is not None:
            return plan
    plan = plan_block(block_atoms(block), graphs, block.where, columns, ctx.params)
    if cache is not None:
        cache.store(site, columns, graphs, plan)
    return plan


def _apply_conjuncts(
    conjuncts: Sequence[ast.Expr],
    table: BindingTable,
    ctx: EvalContext,
    compiler: Optional[ExpressionCompiler],
) -> BindingTable:
    """Filter *table* by a conjunction of the block's conjuncts (columnar).

    Conjuncts apply in order over a narrowing row-index set (the batched
    mirror of the oracle's short-circuiting AND): each runs as one
    compiled kernel sharing a :class:`KernelContext` (label lookups
    memoize across the whole conjunction).
    """
    if not conjuncts or not table:
        return table
    rows = compiled_filter_rows(table, ctx, conjuncts, compiler)
    if len(rows) == len(table):
        return table
    return table.select_rows(rows)


def run_atom_sequence(
    steps: Sequence[PlanStep],
    graphs: Sequence[PathPropertyGraph],
    table: BindingTable,
    ctx: EvalContext,
    compiler: ExpressionCompiler,
) -> BindingTable:
    """Run planned *steps* against *table*, each atom against the graph
    its pattern is ON (``graphs[atom.slot]``), *compiler* compiling for
    *graphs*.

    The shared inner loop of block evaluation: a step's ``probe``
    conjuncts become the atom's candidate probes (value-index lookups,
    then one compiled filter over the candidates), columnar atom
    expansion, then the step's ``post`` conjuncts. The steps are only
    read, so concurrent executions of one cached plan share them freely.
    """
    for step in steps:
        probes = candidate_probes(step.probe, ctx, compiler)
        table = step.atom.extend(table, graphs[step.atom.slot], ctx, probes)
        table = _apply_conjuncts(step.post, table, ctx, compiler)
        if not table:
            break
    return table


def finish_block_where(
    table: BindingTable,
    residual: Sequence[ast.Expr],
    ctx: EvalContext,
    compiler: Optional[ExpressionCompiler],
) -> BindingTable:
    """Apply a plan's block-end *residual*: the conjuncts pushdown left."""
    return _apply_conjuncts(residual, table, ctx, compiler)


def evaluate_block(
    block: ast.MatchBlock,
    ctx: EvalContext,
    seed: Optional[BindingTable] = None,
    site: Any = None,
    graphs: Optional[List[PathPropertyGraph]] = None,
) -> BindingTable:
    """Evaluate one pattern block (the MATCH body or an OPTIONAL block)
    over its patterns' *graphs* (default: :func:`block_graphs`); its
    WHERE's pattern predicates and subqueries inherit the first.

    *site* is the AST node the plan is memoized under when *block* itself
    is rebuilt per call (default: the block).
    """
    # One plan per block: every pattern's graph is resolved up front, the
    # patterns decompose into one atom list and the planner orders it as
    # a whole.
    if graphs is None:
        graphs = block_graphs(block, ctx)
    if graphs[0] is not ctx.current_graph:
        ctx = ctx.scope(graphs[0])
    override = ctx.match_block(block, seed, graphs)
    if override is not None:
        return override
    table = seed if seed is not None else BindingTable.unit()
    compiler = ExpressionCompiler(ctx, graphs)
    plan = _block_plan(site or block, block, graphs, table, ctx)
    steps = plan.steps
    table = run_atom_sequence(steps, graphs, table, ctx, compiler)
    table = finish_block_where(table, plan.residual, ctx, compiler)
    if not table:
        # However early the table emptied, every pattern variable is a
        # column: CONSTRUCT groups an unbound variable by all of them.
        table = BindingTable(
            [*table.columns, *(v for step in steps for v in sorted(step.atom.binds()))]
        )
    hidden = [c for c in table.columns if c.startswith(ANON_PREFIX)]
    return table.drop(hidden) if hidden else table


def evaluate_match(match: ast.MatchClause, ctx: EvalContext,
                   seed: Optional[BindingTable] = None,
                   graphs: Optional[List[PathPropertyGraph]] = None) -> BindingTable:
    """Evaluate a full MATCH clause in its query's scope *ctx*: the main
    block over *graphs* (default: :func:`block_graphs`), then OPTIONAL
    blocks, whose ON-less patterns read the main block's first graph (A.2).

    Nothing here checks sorts: the clause was checked when its statement
    was prepared (:class:`~repro.engine.PreparedQuery`), or by
    :meth:`~repro.engine.GCoreEngine.bindings` for a bare fragment.
    """
    if graphs is None:
        graphs = block_graphs(match.block, ctx)
    table = evaluate_block(match.block, ctx, seed, graphs=graphs)
    for optional in match.optionals:
        inner = block_graphs(optional, ctx, graphs[0])
        table = table_left_join(table, evaluate_block(optional, ctx, table, graphs=inner))
    return table


def match_rows_touching(
    block: ast.MatchBlock,
    ctx: EvalContext,
    node_vars: Iterable[str],
    touched_nodes: Iterable[ObjectId],
) -> BindingTable:
    """The binding rows of *block* that bind a touched node — the
    join-delta primitive of incremental view maintenance.

    For each node variable the block is re-evaluated *seeded* with that
    variable pre-bound to every touched node: the planner sees the
    variable as bound, so the evaluation hash-joins outward from the
    touched objects instead of scanning the graph, and the result is
    exactly the selection sigma_{var in touched}(Omega). The union over
    all node variables (deduplicated — binding tables are sets) is every
    row of the full binding table that binds at least one touched node.
    For delta-eligible blocks (every chain node named, no path atoms;
    see :mod:`repro.eval.maintenance`) this is precisely the set of rows
    a graph delta with the given touched-node closure can have added or
    removed, at a cost proportional to the delta instead of the graph.
    """
    from ..algebra.ops import table_union  # local import: cycle via ops

    seeds = _sorted_ids(touched_nodes)
    result: Optional[BindingTable] = None
    for var in dict.fromkeys(node_vars):
        seed = BindingTable((var,), [Binding({var: node}) for node in seeds])
        table = evaluate_block(block, ctx, seed=seed)
        result = table if result is None else table_union(result, table)
    return result if result is not None else BindingTable.unit()


def outer_seed(row: Binding) -> BindingTable:
    """*row* as the seed of a nested pattern, minus its hidden ``#`` columns:
    each block names its anonymous elements afresh from ``#anon0``."""
    visible = sorted(v for v in row.domain if not v.startswith("#"))
    return BindingTable(tuple(visible), [row.project(visible)])


def chain_matches(chain: ast.Chain, ctx: EvalContext, row: Binding) -> bool:
    """Does *chain* match, given the bindings of *row*? (WHERE predicates.)

    The row seeds the match, so the chain's ``{k = v}`` tests read outer
    variables as an EXISTS subquery does.
    """
    # The block is rebuilt per row; its plan is memoized under the chain.
    return bool(evaluate_block(predicate_block(chain), ctx, outer_seed(row), site=chain))


def predicate_block(chain: ast.Chain) -> ast.MatchBlock:
    """The one-pattern block a WHERE pattern predicate evaluates: ON-less,
    so it reads the graph of the first pattern of the block whose WHERE
    holds it (the scope :func:`evaluate_block` gives that WHERE)."""
    return ast.MatchBlock((ast.PatternLocation(chain, None),), None)
