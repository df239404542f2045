"""MATCH evaluation — Appendix A.2.

A match block is decomposed into *atoms* — node, edge and path patterns —
that are evaluated incrementally against a growing binding table. A
cost-based planner (see :mod:`repro.eval.planner`) orders all atoms of a
block at once — every comma-separated pattern, each atom expanding
against the graph its pattern is ``ON`` — by cumulative estimated table
size, so that selective atoms run first and every later atom probes
outward from what is already bound; path atoms run once an endpoint
is bound, grouping the binding column by source id (found by a backward
reach when only the target is bound) and expanding via batched
product-graph searches (one shared search structure per group,
:mod:`repro.paths.product`). Prepared queries
memoize the block's whole plan — order and WHERE pushdown — per block
site and graphs (:class:`~repro.eval.planner.PlanCache`).

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
    Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple,
)

from ..algebra.binding import ABSENT, Binding, BindingTable, EMPTY_BINDING
from ..algebra.ops import table_left_join
from ..errors import EvaluationError, SemanticError
from ..lang import ast
from ..model.graph import ObjectId, PathPropertyGraph
from ..model.values import gcore_equals, gcore_in
from ..paths.automaton import NFA, compile_regex, regex_view_names, reverse_regex
from ..paths.product import PathFinder
from ..paths.walk import AllPathsHandle, Walk
from .analysis import analyze_match
from .context import EvalContext
from .expressions import ExpressionEvaluator
from .kernels import ExpressionCompiler, compiled_filter_rows
from .planner import BlockPlan, PlanStep, plan_block
from .pushdown import CandidateProbe, candidate_probes, index_candidates

__all__ = [
    "evaluate_match",
    "evaluate_block",
    "chain_matches",
    "block_atoms",
    "block_default_on",
    "block_graphs",
    "decompose_chain",
    "match_rows_touching",
    "run_atom_sequence",
    "finish_block_where",
    "NodeAtom",
    "EdgeAtom",
    "PathAtom",
]

ANON_PREFIX = "#anon"

_NFA_CACHE: Dict[ast.RegexExpr, NFA] = {}


def _nfa_for(regex: Optional[ast.RegexExpr]) -> NFA:
    key = regex if regex is not None else ast.RStar(ast.RAnyEdge())
    if key not in _NFA_CACHE:
        _NFA_CACHE[key] = compile_regex(key)
    return _NFA_CACHE[key]


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
# Node and edge atoms expand into index vectors: ``rows``, the input row
# each output row extends (non-decreasing), and ``fresh``, the output
# vectors of the names the atom binds where the input leaves them
# unbound. _assemble gathers every other column through ``rows`` in one
# pass. Constant property tests are evaluated once; row-reading ones run
# per (row, candidate).
# ---------------------------------------------------------------------------

def _row_independent(expr: ast.Expr) -> bool:
    """Conservatively: does *expr* evaluate the same for every row?

    Only shapes that provably reference no binding are admitted (the
    common ``{name='Wagner'}`` and ``{since=$year}`` property tests);
    anything else stays on the per-row evaluation path.
    """
    if isinstance(expr, (ast.Literal, ast.Param)):
        return True
    if isinstance(expr, ast.Unary):
        return _row_independent(expr.operand)
    if isinstance(expr, ast.Binary):
        return _row_independent(expr.left) and _row_independent(expr.right)
    if isinstance(expr, ast.ListLiteral):
        return all(_row_independent(item) for item in expr.items)
    return False


def _split_prop_tests(
    tests: Tuple[Tuple[str, ast.Expr], ...], ev: ExpressionEvaluator
) -> Tuple[List[Tuple[str, Any]], List[Tuple[str, ast.Expr]]]:
    """Partition property tests into (key, pre-evaluated value) constants
    and (key, expr) row-dependent tests.

    A constant test that *raises* (e.g. a missing ``$param``) is kept on
    the dynamic path instead: a test is only evaluated once a candidate
    reaches it, so eager evaluation must never introduce an error that
    per-candidate evaluation would not produce.
    """
    const: List[Tuple[str, Any]] = []
    dynamic: List[Tuple[str, ast.Expr]] = []
    for key, expr in tests:
        if _row_independent(expr):
            try:
                const.append((key, ev.evaluate(expr, EMPTY_BINDING)))
            except Exception:
                dynamic.append((key, expr))
        else:
            dynamic.append((key, expr))
    return const, dynamic


def _property_value_ok(actual, expected) -> bool:
    """One ``{k = v}`` test against an already-evaluated expected value:
    G-CORE equality, or membership under G-CORE value equality (Python's
    ``in`` first, as a cheap filter: it also admits ``TRUE`` for ``1``)."""
    return gcore_equals(actual, expected) or (
        not isinstance(expected, frozenset)
        and expected in actual
        and gcore_in(expected, actual)
    )


def _const_tests_pass(
    graph: PathPropertyGraph, obj: ObjectId, const: List[Tuple[str, Any]]
) -> bool:
    for key, expected in const:
        if not _property_value_ok(graph.property(obj, key), expected):
            return False
    return True


def _meet(
    left: Optional[Set[ObjectId]], right: Optional[Set[ObjectId]]
) -> Optional[Set[ObjectId]]:
    """Intersection of two candidate bounds, None meaning unbounded."""
    if left is None or right is None:
        return right if left is None else left
    return left & right


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
    """What the three atom kinds share: the graph their pattern is ON."""

    graph: Optional[PathPropertyGraph] = None  # set by evaluate_block/EXPLAIN

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
        ev: ExpressionEvaluator,
        ctx: EvalContext,
        probes: Dict[str, CandidateProbe],
    ) -> BindingTable:
        """Index-vector expansion: emitted row indices plus the freshly
        bound columns, assembled in one gather.

        Rows arriving with the variable bound (seeded blocks) get one
        verdict per distinct object; when the atom binds no new column
        the result is a row mask of the input. Unbound rows share one
        candidate vector, resolved once in identifier order:
        value-index hits — of the pushed-down WHERE conjuncts in
        ``probes`` (var -> :class:`CandidateProbe`) and of the constant
        ``{k = v}`` tests — bound the label candidates before they are
        sorted, and the tests and conjuncts then run on the survivors
        only. Row-reading property tests run per (row, candidate);
        ``{k = x}`` binds unroll column-wise over the emitted pairs.
        """
        pattern = self.pattern
        var = self.var
        probe: Optional[CandidateProbe] = probes.get(var)
        const_tests, dyn_tests = _split_prop_tests(pattern.prop_tests, ev)
        var_vector = table.column_values(var)
        dyn_rows = table.rows if dyn_tests else ()

        def admissible(nodes: List[ObjectId]) -> List[ObjectId]:
            nodes = [
                node for node in nodes
                if _const_tests_pass(graph, node, const_tests)
            ]
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
                    hits = index_candidates(graph, const_tests)
                    if probe is not None:
                        hits = _meet(hits, probe.narrow(graph, graph.nodes))
                    scan = admissible(_label_candidates(
                        graph.nodes, pattern.labels, graph.nodes_with_label,
                        within=hits,
                    ))
                candidates = scan
            if dyn_tests:
                candidates = [
                    node for node in candidates
                    if _property_tests_pass(graph, node, dyn_tests, ev, dyn_rows[i])
                ]
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
        ev: ExpressionEvaluator,
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
        test remains only for residual label groups, constant
        ``{k = v}`` tests and index hits. Rows with neither endpoint bound
        share one filtered scan of the edges.

        ``probes`` (var -> :class:`CandidateProbe`) carries pushed-down
        WHERE conjuncts on the edge variable or an endpoint.
        Their value-index hits (and those of the constant ``{k = v}``
        tests) are membership sets that drop a candidate edge as soon as
        it or its endpoints resolve; the conjuncts themselves then run
        once over the distinct objects of each probed output vector,
        before the result is assembled. Only an anonymous edge (parallel
        edges), an undirected pattern or ``{k = x}`` binds can repeat a
        row, so only they deduplicate.
        """
        pattern = self.pattern
        var = self.var
        const_tests, dyn_tests = _split_prop_tests(pattern.prop_tests, ev)
        edge_hits = index_candidates(graph, const_tests)
        if var is not None and var in probes:
            edge_hits = _meet(edge_hits, probes[var].narrow(graph, graph.edges))
        node_hits = {
            name: probes[name].narrow(graph, graph.nodes)
            for name in (self.src_var, self.dst_var)
            if name in probes
        }
        var_vector = table.column_values(var) if var else None
        dyn_rows = table.rows if dyn_tests else ()

        labels = pattern.labels
        bucket = labels[0][0] if labels and len(labels[0]) == 1 else None
        residual = labels[1:] if bucket is not None else labels
        out_adj = graph.out_adjacency(bucket)
        in_adj = graph.in_adjacency(bucket)
        in_bucket = graph.edges if bucket is None else graph.edges_with_label(bucket)
        tested = bool(residual or const_tests) or edge_hits is not None
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
                        and _const_tests_pass(graph, edge, const_tests)
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
                    if dyn_tests and not _property_tests_pass(
                        graph, edge, dyn_tests, ev, dyn_rows[i]
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


class PathAtom(_Atom):
    """A path pattern between two node variables (Appendix A.2)."""

    kind = "path"

    def __init__(
        self, pattern: ast.PathPatternElem, src_var: str, dst_var: str
    ) -> None:
        self.pattern = pattern
        self.src_var = src_var
        self.dst_var = dst_var

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

    # -- stored paths ------------------------------------------------------
    def _extend_stored(self, table: BindingTable, graph: PathPropertyGraph) -> BindingTable:
        pattern = self.pattern
        candidates = _label_candidates(
            graph.paths, pattern.labels, graph.paths_with_label
        )
        out_rows: List[Binding] = []
        for row in table:
            for pid in candidates:
                sequence = graph.path_sequence(pid)
                start, end = sequence[0], sequence[-1]
                if self.from_var == self.to_var and start != end:
                    continue  # self-loop pattern: endpoints must agree
                if self.from_var in row and row[self.from_var] != start:
                    continue
                if self.to_var in row and row[self.to_var] != end:
                    continue
                if pattern.var and pattern.var in row and row[pattern.var] != pid:
                    continue
                extended = row
                if self.from_var not in extended:
                    extended = extended.extend(self.from_var, start)
                if self.to_var not in extended:
                    extended = extended.extend(self.to_var, end)
                if pattern.var and pattern.var not in extended:
                    extended = extended.extend(pattern.var, pid)
                if pattern.cost_var:
                    extended = extended.extend(
                        pattern.cost_var, len(sequence) // 2
                    )
                out_rows.append(extended)
        columns = tuple(table.columns) + tuple(self.binds())
        return BindingTable(columns, out_rows)

    # -- computed paths ------------------------------------------------------
    def explain_label(self) -> str:
        return f"path({self.src_var}->{self.dst_var})"

    def explain_strategy(self) -> str:
        """The search strategy EXPLAIN reports for this atom."""
        if self.pattern.stored:
            return "stored"
        return "bfs" if _nfa_for(self.pattern.regex).unit_cost else "dijkstra"

    def extend(
        self,
        table: BindingTable,
        graph: PathPropertyGraph,
        ev: ExpressionEvaluator,
        ctx: EvalContext,
        probes: Dict[str, CandidateProbe],
    ) -> BindingTable:
        """Batched columnar path expansion (path atoms are never probed).

        The incoming binding vectors are grouped by source id; each group
        runs one batched product-graph search
        (:meth:`~repro.paths.product.PathFinder.shortest_multi` and
        friends share a memoized expansion structure across all groups),
        and result vectors — target, walk handle, cost — are emitted
        directly. Rows whose target alone is bound take their sources
        from one backward reach per distinct target: reachability emits
        them, other modes search forward from them to the bound targets
        (walks and their tie-break stay the forward ones). Stored-path
        patterns run the stored-path scan.
        """
        if self.pattern.direction == ast.UNDIRECTED:
            raise SemanticError("path patterns must be directed (-/ /-> or <-/ /-)")
        if self.pattern.stored:
            return self._extend_stored(table, graph)
        pattern = self.pattern
        views = {
            name: ctx.segments_for(name, graph)
            for name in regex_view_names(pattern.regex)
        }
        finder = PathFinder(graph, _nfa_for(pattern.regex), views)
        from_var, to_var = self.from_var, self.to_var
        names = list(
            dict.fromkeys(
                [
                    self.src_var,
                    self.dst_var,
                    *((pattern.var,) if pattern.var else ()),
                    *((pattern.cost_var,) if pattern.cost_var else ()),
                ]
            )
        )
        nrows = len(table)
        name_vectors = {name: table.column_values(name) for name in names}

        def value_at(name: str, index: int):
            vector = name_vectors.get(name)
            if vector is None:
                vector = table.column_values(name)
            return vector[index] if vector is not None else ABSENT

        # Group row indices by the source endpoint (bound rows first, then
        # unbound rows, per bucket). An unbound row with a bound target
        # (``backward``) joins the buckets of the sources its target's
        # backward reach finds; any other unbound row tries every node.
        groups: Dict[Any, List[int]] = defaultdict(list)
        from_vec = name_vectors.get(from_var)
        unbound_rows: List[int] = []
        for i in range(nrows):
            value = from_vec[i] if from_vec is not None else ABSENT
            if value is not ABSENT:
                groups[value].append(i)
            else:
                unbound_rows.append(i)
        to_vec = name_vectors.get(to_var) or []
        reverse = reverse_regex(pattern.regex)
        backward: Set[int] = set()
        sources_of: Dict[Any, FrozenSet[ObjectId]] = {}
        if to_vec and reverse is not None:
            backward = {i for i in unbound_rows if to_vec[i] is not ABSENT}
        if backward:
            sources_of = PathFinder(graph, _nfa_for(reverse)).reachable_multi(
                [to_vec[i] for i in backward]
            )
        for i in unbound_rows:
            for node in sources_of[to_vec[i]] if i in backward else graph.nodes:
                groups[node].append(i)

        out_index: List[int] = []
        out_cols: Dict[str, List[Any]] = {name: [] for name in names}

        def emit(index: int, assigned: Dict[str, Any]) -> None:
            out_index.append(index)
            for name in names:
                if name in assigned:
                    out_cols[name].append(assigned[name])
                else:
                    vector = name_vectors[name]
                    out_cols[name].append(vector[index] if vector is not None else ABSENT)

        def base_assignment(index: int, source: Any) -> Dict[str, Any]:
            if value_at(from_var, index) is ABSENT:
                return {from_var: source}
            return {}

        def target_at(index: int, assigned: Dict[str, Any]) -> Any:
            # A self-loop pattern shares one variable between endpoints;
            # once base_assignment pins it to the source, the target is
            # pinned too (so the table vector alone is not the truth).
            if to_var in assigned:
                return assigned[to_var]
            return value_at(to_var, index)

        sources = [s for s in sorted(groups, key=str) if s in graph.nodes]

        if pattern.mode == "reach":
            for source in sources:
                reachable: Optional[FrozenSet[ObjectId]] = None
                for i in groups[source]:
                    assigned = base_assignment(i, source)
                    if i in backward:  # the backward reach found source
                        emit(i, assigned)
                        continue
                    if reachable is None:
                        reachable = finder.reachable_from(source)
                    bound_target = target_at(i, assigned)
                    if bound_target is not ABSENT:
                        if bound_target in reachable:
                            emit(i, assigned)
                    else:
                        for target in _sorted_ids(reachable):
                            emit(i, {**assigned, to_var: target})
        elif pattern.count == 1 and pattern.mode != "all":
            # One batched multi-source search: per-source target sets when
            # every row of the group pins the target, the full reachable
            # set otherwise.
            targets_map: Dict[Any, Optional[Set[Any]]] = {}
            for source in sources:
                bound: Set[Any] = set()
                all_bound = True
                for i in groups[source]:
                    value = value_at(to_var, i)
                    if value is ABSENT:
                        all_bound = False
                        break
                    bound.add(value)
                targets_map[source] = bound if all_bound else None
            walks_by_source = finder.shortest_multi(sources, targets_map)
            for source in sources:
                walks = walks_by_source[source]
                for i in groups[source]:
                    assigned = base_assignment(i, source)
                    bound_target = target_at(i, assigned)
                    if bound_target is not ABSENT:
                        walk = walks.get(bound_target)
                        if walk is not None:
                            emit(i, self._walk_assignment(i, assigned, walk, value_at))
                    else:
                        for target in sorted(walks, key=str):
                            extended = {**assigned, to_var: target}
                            emit(i, self._walk_assignment(i, extended, walks[target], value_at))
        else:
            # ALL and k SHORTEST: one multi-target search per source, its
            # stop set the group's bound targets (None once any row leaves
            # the target open); every row then reads its targets' answers.
            for source in sources:
                rows = []
                for i in groups[source]:
                    assigned = base_assignment(i, source)
                    rows.append((i, assigned, target_at(i, assigned)))
                bound = {t for _, _, t in rows}
                wanted = None if ABSENT in bound else bound
                if pattern.mode == "all":
                    projections = finder.all_paths_multi(source, wanted).items()
                    found: Dict[Any, Any] = {
                        target: AllPathsHandle(
                            source, target, tuple(_sorted_ids(ns)), tuple(_sorted_ids(es))
                        )
                        for target, (ns, es) in projections
                    }
                else:
                    found = finder.k_shortest_multi(source, wanted, pattern.count)
                ordered = sorted(found, key=str)
                for i, assigned, bound_target in rows:
                    if bound_target is ABSENT:
                        targets = ordered
                    else:
                        targets = [bound_target] if bound_target in found else []
                    for target in targets:
                        extended = dict(assigned)
                        if bound_target is ABSENT:
                            extended[to_var] = target
                        if pattern.mode == "all":
                            if pattern.var:
                                extended[pattern.var] = found[target]
                            emit(i, extended)
                            continue
                        for walk in found[target]:
                            emit(i, self._walk_assignment(i, dict(extended), walk, value_at))
        columns = tuple(table.columns) + tuple(self.binds())
        return _assemble(table, columns, out_index, out_cols, True)

    def _walk_assignment(
        self, index: int, assigned: Dict[str, Any], walk: Walk, value_at
    ) -> Dict[str, Any]:
        """Bind the walk and its cost to the variables still unassigned."""
        pattern = self.pattern
        if pattern.var and pattern.var not in assigned:
            if value_at(pattern.var, index) is ABSENT:
                assigned[pattern.var] = walk
        if pattern.cost_var and pattern.cost_var not in assigned:
            if value_at(pattern.cost_var, index) is ABSENT:
                assigned[pattern.cost_var] = _coerce_cost(walk.cost)
        return assigned


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _coerce_cost(cost: float) -> Any:
    """Integral walk costs bind as ints (hop counts print as 2, not 2.0)."""
    if isinstance(cost, float) and cost.is_integer():
        return int(cost)
    return cost


def _property_tests_pass(
    graph: PathPropertyGraph,
    obj: ObjectId,
    tests: Sequence[Tuple[str, ast.Expr]],
    ev: ExpressionEvaluator,
    row: Binding,
) -> bool:
    for key, expr in tests:
        if not _property_value_ok(graph.property(obj, key), ev.evaluate(expr, row)):
            return False
    return True


# ---------------------------------------------------------------------------
# Chain decomposition
# ---------------------------------------------------------------------------

class _AnonNamer:
    def __init__(self) -> None:
        self._counter = itertools.count()

    def fresh(self) -> str:
        return f"{ANON_PREFIX}{next(self._counter)}"


def decompose_chain(
    chain: ast.Chain,
    namer: _AnonNamer,
    name_anonymous_edges: bool = False,
) -> List[Any]:
    """Split a chain into Node/Edge/Path atoms with resolved endpoints."""
    atoms: List[Any] = []
    node_vars: List[str] = []
    for element in chain.nodes():
        var = element.var or namer.fresh()
        node_vars.append(var)
        atoms.append(NodeAtom(element, var))
    for index, connector in enumerate(chain.connectors()):
        src_var = node_vars[index]
        dst_var = node_vars[index + 1]
        if isinstance(connector, ast.EdgePattern):
            var = connector.var
            if var is None and name_anonymous_edges:
                var = namer.fresh()
            atoms.append(EdgeAtom(connector, src_var, dst_var, var))
        elif isinstance(connector, ast.PathPatternElem):
            atoms.append(PathAtom(connector, src_var, dst_var))
        else:  # pragma: no cover - parser guarantees the alternation
            raise SemanticError(f"unexpected chain element: {connector!r}")
    return atoms


# ---------------------------------------------------------------------------
# Block and clause evaluation
# ---------------------------------------------------------------------------

def _resolve_on(
    on: Any,
    ctx: EvalContext,
    block_default: Optional[PathPropertyGraph] = None,
) -> PathPropertyGraph:
    if on is None:
        if block_default is not None:
            return block_default
        if ctx.current_graph is not None:
            return ctx.current_graph
        return ctx.default_graph()
    if isinstance(on, str):
        return ctx.resolve_graph(on)
    from .query import evaluate_query  # local import: cycle

    result = evaluate_query(on, ctx.child())
    if not isinstance(result, PathPropertyGraph):
        raise EvaluationError("ON (subquery) must produce a graph")
    return result


def block_default_on(block: ast.MatchBlock) -> Any:
    """The ``ON`` target the ON-less patterns of *block* inherit, or None.

    The paper writes ``MATCH p1, p2 ON g`` with the trailing ON scoping
    the whole pattern list (final query of Section 3), so patterns
    without their own ON inherit the block's first specified location.
    EXPLAIN applies the same rule.
    """
    return next((l.on for l in block.patterns if l.on is not None), None)


def block_graphs(block: ast.MatchBlock, ctx: EvalContext) -> List[PathPropertyGraph]:
    """The graph each pattern of *block* is ON, in pattern order (the first
    becomes the current graph; each is touched, so property lookups
    follow the pattern order).

    Name resolution is eager: whether an atom ever runs depends on the
    data and the atom order, but an unknown ON graph or path view must
    raise regardless, matching the analyzer's GC101/GC105 verdicts.
    """
    for location in block.patterns:
        if isinstance(location.on, str):
            ctx.resolve_graph(location.on)
        for element in location.chain.elements:
            if isinstance(element, ast.PathPatternElem):
                for view_name in sorted(regex_view_names(element.regex)):
                    ctx.require_path_view(view_name)
    inherited = block_default_on(block)
    block_default = None if inherited is None else _resolve_on(inherited, ctx)
    graphs: List[PathPropertyGraph] = []
    for location in block.patterns:
        graph = _resolve_on(location.on, ctx, block_default)
        if not graphs:
            ctx.current_graph = graph
        ctx.touch_graph(graph)
        graphs.append(graph)
    return graphs


def block_atoms(
    block: ast.MatchBlock,
    graphs: Sequence[Optional[PathPropertyGraph]],
    name_anonymous_edges: bool = False,
) -> List[Any]:
    """Every pattern of *block* as one atom list, in syntax order.

    ``graphs[i]`` is the graph pattern *i* is ON (None when EXPLAIN
    cannot know it before execution); each atom remembers its own, so
    one plan and one :func:`run_atom_sequence` cover multi-graph blocks.
    """
    namer = _AnonNamer()
    atoms: List[Any] = []
    for location, graph in zip(block.patterns, graphs):
        for atom in decompose_chain(location.chain, namer, name_anonymous_edges):
            atom.graph = graph
            atoms.append(atom)
    return atoms


def _block_plan(
    site: Any,
    block: ast.MatchBlock,
    graphs: List[PathPropertyGraph],
    table: BindingTable,
    ctx: EvalContext,
    name_anonymous_edges: bool,
) -> BlockPlan:
    """Plan a block, consulting the prepared-query plan cache if any.

    Plans are memoized per (block site, bound columns, graphs) — atom
    order and pushdown never affect the result (the semantics is a
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
    plan = plan_block(
        block_atoms(block, graphs, name_anonymous_edges),
        block.where, columns, ctx.params
    )
    if cache is not None:
        cache.store(site, columns, graphs, plan)
    return plan


def _apply_conjuncts(
    conjuncts: Sequence[ast.Expr],
    table: BindingTable,
    ctx: EvalContext,
    compiler: Optional[ExpressionCompiler],
) -> BindingTable:
    """Filter *table* by a conjunction of WHERE conjuncts (columnar).

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
    table: BindingTable,
    ctx: EvalContext,
    ev: ExpressionEvaluator,
    compiler: ExpressionCompiler,
) -> BindingTable:
    """Run planned *steps* against *table*, each atom against the graph
    its pattern is ON.

    The shared inner loop of block evaluation: a step's ``probe``
    conjuncts become the atom's candidate probes (value-index lookups,
    then one compiled filter over the candidates), columnar atom
    expansion, then the step's ``post`` conjuncts. The steps are only
    read, so concurrent executions of one cached plan share them freely.
    """
    for step in steps:
        probes = candidate_probes(step.probe, ctx, compiler, ev)
        table = step.atom.extend(table, step.atom.graph, ev, ctx, probes)
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
    keep_anonymous: bool = False,
    name_anonymous_edges: bool = False,
    site: Any = None,
) -> BindingTable:
    """Evaluate one pattern block (the MATCH body or an OPTIONAL block).

    *site* is the AST node the plan is memoized under when *block* itself
    is rebuilt per call (default: the block).
    """
    override = ctx.match_block(block, seed)
    if override is not None:
        return override
    table = seed if seed is not None else BindingTable.unit()
    ev = ExpressionEvaluator(ctx)
    compiler = ExpressionCompiler(ctx)
    # One plan per block: every pattern's graph is resolved up front, the
    # patterns decompose into one atom list and the planner orders it as
    # a whole.
    graphs = block_graphs(block, ctx)
    plan = _block_plan(
        site or block, block, graphs, table, ctx, name_anonymous_edges
    )
    steps = plan.steps
    table = run_atom_sequence(steps, table, ctx, ev, compiler)
    table = finish_block_where(table, plan.residual, ctx, compiler)
    if not table:
        # However early the table emptied, every pattern variable is a
        # column: CONSTRUCT groups an unbound variable by all of them.
        table = BindingTable(
            [*table.columns, *(v for step in steps for v in sorted(step.atom.binds()))]
        )
    if not keep_anonymous:
        hidden = [c for c in table.columns if c.startswith(ANON_PREFIX)]
        if hidden:
            table = table.drop(hidden)
    return table


def evaluate_match(
    match: Optional[ast.MatchClause],
    ctx: EvalContext,
    seed: Optional[BindingTable] = None,
) -> BindingTable:
    """Evaluate a full MATCH clause: main block then OPTIONAL blocks (A.2)."""
    if match is None:
        return seed if seed is not None else BindingTable.unit()
    analyze_match(match)
    table = evaluate_block(match.block, ctx, seed)
    for optional in match.optionals:
        extended = evaluate_block(optional, ctx, seed=table)
        table = table_left_join(table, extended)
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


def chain_matches(chain: ast.Chain, ctx: EvalContext, row: Binding) -> bool:
    """Does *chain* match, given the bindings of *row*? (WHERE predicates.)"""
    variables = set()
    for element in chain.elements:
        var = getattr(element, "var", None)
        if var:
            variables.add(var)
    seed_row = row.project([v for v in variables if v in row])
    seed = BindingTable(tuple(seed_row.domain), [seed_row])
    block = ast.MatchBlock((ast.PatternLocation(chain, None),), None)
    # The block is rebuilt per row; its plan is memoized under the chain.
    return bool(evaluate_block(block, ctx, seed=seed, site=chain))
