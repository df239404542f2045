"""CONSTRUCT evaluation — Appendix A.3, per column.

Given the binding set Omega produced by MATCH, each construct item is
evaluated in phases over Omega's column vectors, with the compiled
kernels of :mod:`repro.eval.kernels` that SELECT uses:

1. **Node constructs** group Omega by their grouping set Γ (``{x}`` for a
   bound variable, the explicit ``GROUP`` expressions, the copy source
   for ``(=n)``, or — for an unbound variable without GROUP — all match
   variables, one element per binding, per footnote 2). Each Γ-key
   expression is one kernel pass (a variable reads its vector); rows
   whose values are the same under ``=`` share a group
   (:func:`~repro.algebra.grouping.group_indices`), and groups are taken
   in sorted key order, which fixes the order in which unbound
   variables receive their skolem identifiers ``new(x, Γ-key)``. Bound
   variables keep their identity, labels and properties.
2. The bindings are extended with the constructed node identities
   (Omega_N of the formal semantics) — the table is rebuilt in group
   order, so later groups take their representative rows from it — and
3. **edge constructs** connect *constructed* endpoints: since skolem ids
   are injective in the Γ-key, grouping edges by (source-id, target-id,
   bound-edge-id, explicit GROUP) realizes Γz ⊇ Γx ∪ Γy ∪ {x,y} exactly.
4. **Path constructs** store computed walks (``@p``) as new stored paths
   with their constituent nodes/edges, or project a walk / ALL-paths
   handle into plain nodes and edges.
5. ``{k := expr}`` and ``SET`` values are computed for all groups of one
   element kind at once by grouped kernels — aggregates (e.g.
   ``COUNT(*)``) range over the group's rows; ``REMOVE`` drops labels and
   keys.
6. A ``WHEN`` condition is one compiled filter over the bindings, with
   the freshly constructed elements visible through the context overlay
   (so ``WHEN e.score > 0`` can read the score just assigned to the new
   edge); an element survives when a row of the group that built it
   passes. The overlay lives for one :func:`evaluate_construct` call.

A bound element that no pattern relabels, assigns, SETs or REMOVEs is
passed through by reference: the item graph adopts its home graph's label
set and property dict and copies them only where two contributions to one
element really merge (``CONSTRUCT (m)`` adopts its column without grouping).
Item graphs are assembled without re-validation (only the identifier-kind
disjointness that mixing graphs can break is checked) and name the home
graph that supplied most adopted elements as their fragment owner, so
:func:`repro.model.io.encode_graph` splices those elements' cached wire
entries.

The result of the CONSTRUCT clause is the union of all items' graphs
(graph names in the item list union the named graphs in — the shorthand
of Section 3).
"""

from __future__ import annotations

import sys
from collections import Counter
from operator import or_
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..algebra.binding import ABSENT, BindingTable
from ..algebra.grouping import MISSING, Key, group_indices, key_column
from ..errors import EvaluationError, GraphModelError, SemanticError
from ..lang import ast
from ..model.graph import ObjectId, PathPropertyGraph, path_edges, path_nodes
from ..model.setops import empty_graph, graph_union, kept_merge, merge_properties
from ..model.values import ValueSet, as_value_set
from ..paths.walk import AllPathsHandle, Walk
from .context import EvalContext
from .kernels import ExpressionCompiler, GroupSpec, KernelContext, compiled_filter_rows

__all__ = ["evaluate_construct", "identity_item_spec"]

Labels = FrozenSet[str]
Props = Dict[str, ValueSet]
#: One constructed element and the row indices of the group that built it.
Built = Tuple[ObjectId, List[int]]
Pattern = Union[ast.NodePattern, ast.EdgePattern, ast.PathPatternElem]


def evaluate_construct(
    construct: ast.ConstructClause,
    omega: BindingTable,
    ctx: EvalContext,
    declared: FrozenSet[str],
    operand: Optional[ast.BasicQuery] = None,
) -> PathPropertyGraph:
    """Evaluate a CONSTRUCT clause over the binding set *omega*.

    ``shared`` carries unbound construct variables across items:
    "Unbound variables in a CONSTRUCT are useful if they occur multiple
    times in the construct patterns, in order to ensure that the same
    identities will be used" (Section 3) — so ``(cust ...)`` grouped in one
    item and referenced by an edge in another resolves to the same nodes.

    The overlay of elements under construction starts as a copy of the
    caller's and is restored on return: the items and any subquery of
    their WHEN conditions see it, the rest of the statement does not.

    Skolem sites start with the text of *operand* (the basic query the
    clause heads; else the clause), computed once here: operands of one
    statement that differ anywhere never share an identifier, and the
    same operand gets the same ids on every run, as the engine's
    :class:`~repro.eval.context.IdFactory` memo outlives statements.
    """
    clause = sys.intern(repr(operand or construct))  # one copy per text
    saved = ctx.overlay_labels, ctx.overlay_props
    ctx.overlay_labels, ctx.overlay_props = dict(saved[0]), dict(saved[1])
    try:
        compiler = ExpressionCompiler(ctx)
        maxdom = omega.maximal_domain()
        result = empty_graph()
        shared: Dict[str, _Record] = {}
        for item_index, item in enumerate(construct.items):
            if isinstance(item, ast.GraphRefItem):
                piece = ctx.resolve_graph(item.name)
            else:
                piece = _Item(
                    (clause, item_index), omega, ctx, compiler, declared, maxdom
                ).run(item, shared)
            result = graph_union(result, piece)
        return result
    finally:
        ctx.overlay_labels, ctx.overlay_props = saved


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------


class _Piece:
    """One item's output graph under assembly.

    Label sets and property dicts are kept as handed in — an adopted
    element shares its home graph's (or the overlay's) objects — and a
    second contribution to one element copies only what really merges.
    """

    def __init__(self) -> None:
        self.nodes: Set[ObjectId] = set()
        self.edges: Dict[ObjectId, Tuple[ObjectId, ObjectId]] = {}
        self.paths: Dict[ObjectId, Tuple[ObjectId, ...]] = {}
        self.labels: Dict[ObjectId, Labels] = {}
        self.props: Dict[ObjectId, Props] = {}
        #: the home graph of each adopted element
        self.homes: List[PathPropertyGraph] = []

    def add(self, obj: ObjectId, labels: Optional[Labels], props: Optional[Props]) -> None:
        if labels:
            old = self.labels.setdefault(obj, labels)
            if old is not labels:
                self.labels[obj] = kept_merge(old, labels, or_)
        if props:
            was = self.props.setdefault(obj, props)
            if was is not props:
                self.props[obj] = kept_merge(was, props, merge_properties)

    def adopt(self, objs: Iterable[ObjectId], ctx: EvalContext) -> None:
        """Add *objs* with their labels and properties by reference: the
        overlay's for an element under construction, else its home
        graph's (the context's direct graph read in place)."""
        graph = ctx.direct_graph()
        nodes, edges, paths = graph._nodes, graph._edges, graph._paths
        overlay, homes, add = ctx.overlay_labels, self.homes, self.add
        for obj in objs:
            if obj in overlay or not (obj in nodes or obj in edges or obj in paths):
                labels, props, home = _stored(obj, ctx)
            else:
                labels, props, home = graph._labels.get(obj), graph._props.get(obj), graph
            if home is not None:
                homes.append(home)
            add(obj, labels, props)

    def keep(self, survivors: Set[ObjectId]) -> None:
        """Keep only *survivors*, minus the edges and paths they leave
        dangling."""
        nodes = self.nodes & survivors
        edges = {
            edge: ends
            for edge, ends in self.edges.items()
            if edge in survivors and ends[0] in nodes and ends[1] in nodes
        }
        paths = {
            pid: seq
            for pid, seq in self.paths.items()
            if pid in survivors
            and all(n in nodes for n in path_nodes(seq))
            and all(e in edges for e in path_edges(seq))
        }
        known = nodes.union(edges, paths)
        self.labels = {obj: ls for obj, ls in self.labels.items() if obj in known}
        self.props = {obj: ps for obj, ps in self.props.items() if obj in known}
        self.nodes, self.edges, self.paths = nodes, edges, paths

    def build(self) -> PathPropertyGraph:
        nodes = frozenset(self.nodes)
        if not (
            nodes.isdisjoint(self.edges)
            and nodes.isdisjoint(self.paths)
            and self.paths.keys().isdisjoint(self.edges)
        ):
            raise GraphModelError("node/edge/path identifier sets must be disjoint")
        owner: Optional[PathPropertyGraph] = None
        if self.homes:  # the home graph of most adopted elements
            counts = Counter(map(id, self.homes))
            best = max(counts, key=counts.__getitem__)
            owner = next(h for h in self.homes if id(h) == best).fragment_owner()
        return PathPropertyGraph._assemble_normalized(
            nodes, self.edges, self.paths, self.labels, self.props, owner=owner
        )


class _Record:
    """The elements one construct pattern built: by group (for WHEN) and,
    for a node variable, by the sameness key of its Γ values (for items
    that share it)."""

    def __init__(self, gamma: Tuple[ast.Expr, ...]) -> None:
        self.gamma = gamma
        self.id_by_key: Dict[Key, ObjectId] = {}
        self.groups: List[Built] = []
        #: the Omega row of each table index the groups refer to
        self.origin: Sequence[int] = ()


def _with_column(
    table: BindingTable, var: str, values: List[Any], order: Optional[List[int]] = None
) -> BindingTable:
    """*table* with *var* set to *values*, its rows taken in *order*.

    *order* lists every row once, so rows stay distinct: *var* is a new
    column, or a bound one whose ABSENT cells only ever receive elements
    of this construct site.
    """
    variables = list(table.variables)
    data: Dict[str, List[Any]] = {}
    for v in variables:
        vector = table.column_values(v)
        assert vector is not None
        data[v] = vector if order is None else [vector[i] for i in order]
    if var not in data:
        variables.append(var)
    data[var] = values
    return BindingTable.from_columns(
        table.columns + (var,), variables, data, len(values), dedup=False
    )


def _stored(
    obj: ObjectId, ctx: EvalContext
) -> Tuple[Optional[Labels], Optional[Props], Optional[PathPropertyGraph]]:
    """*obj*'s label set and property dict — the overlay's, else its home
    graph's own objects (None where it has none) — and that home."""
    labels = ctx.overlay_labels.get(obj)
    if labels is not None:
        return labels, ctx.overlay_props.get(obj), None
    home = ctx.graph_of(obj)
    if home is None:
        return None, None, None
    return home._labels.get(obj), home._props.get(obj), home


def _to_value_set(value: Any) -> ValueSet:
    if isinstance(value, tuple):  # COLLECT(...) results
        return as_value_set(frozenset(value))
    return as_value_set(value)


# ---------------------------------------------------------------------------
# One construct item
# ---------------------------------------------------------------------------


class _Item:
    """The evaluation of one construct item over Omega."""

    def __init__(
        self,
        site: Tuple[str, int],
        omega: BindingTable,
        ctx: EvalContext,
        compiler: ExpressionCompiler,
        declared: FrozenSet[str],
        maxdom: FrozenSet[str],
    ) -> None:
        self.site = site  # (clause text, item index)
        self.ctx = ctx
        self.compiler = compiler
        self.declared = declared
        self.maxdom = maxdom
        self.piece = _Piece()
        self.table = omega
        self.origin: Sequence[int] = range(len(omega))
        self.sets: Dict[str, List[ast.SetAssign]] = {}
        self.removes: Dict[str, List[ast.RemoveAssign]] = {}

    def groups(self, exprs: Sequence[ast.Expr]) -> List[Tuple[Key, Key, List[int]]]:
        """The table's row indices grouped by the values of *exprs*
        (MISSING for an unbound variable), in sorted key order, each
        group with its sameness key and its first row's cells.

        A variable reads its vector; any other expression is one
        compiled kernel pass over the table.
        """
        table = self.table
        rows = list(range(len(table)))
        kctx = KernelContext(table, self.ctx)
        columns = [
            key_column(table, expr.name) if isinstance(expr, ast.Var)
            else self.compiler.compile(expr)(kctx, rows)
            for expr in exprs
        ]
        groups = group_indices(columns, len(rows))
        firsts = [indices[0] for _, indices in groups]
        cells: List[Key] = (
            list(zip(*[[column[i] for i in firsts] for column in columns]))
            if columns else [()] * len(groups)
        )
        return [(key, row, indices) for (key, indices), row in zip(groups, cells)]

    def run(self, item: ast.PatternItem, shared: Dict[str, _Record]) -> PathPropertyGraph:
        identity = identity_item_spec(item, self.declared, {})
        if identity is not None and not identity[1]:  # one bound node: no groups
            (var,), _ = identity
            objs = dict.fromkeys(self.table.column_values(var) or ())
            objs.pop(ABSENT, None)
            if any(issubclass(kind, (Walk, AllPathsHandle)) for kind in set(map(type, objs))):
                raise SemanticError(f"variable {var!r} is a path, not a node, in CONSTRUCT")
            self.piece.nodes.update(objs)
            self.piece.adopt(objs, self.ctx)
            return self.piece.build()
        for assign in item.sets:
            self.sets.setdefault(assign.var, []).append(assign)
        for removal in item.removes:
            self.removes.setdefault(removal.var, []).append(removal)

        # ---------------- Phase 1: node constructs -------------------------
        node_seq: List[str] = []  # the construct variable at each position
        patterns: Dict[str, List[ast.NodePattern]] = {}
        anonymous = 0
        for element in item.chain.nodes():
            var = element.var
            if var is None:
                var = f"#cnode{self.site[1]}_{anonymous}"
                anonymous += 1
            node_seq.append(var)
            patterns.setdefault(var, []).append(element)
        connectors = item.chain.connectors()
        records: List[_Record] = []
        for position, var in enumerate(patterns):
            last = position == len(patterns) - 1 and not connectors and item.when is None
            if var in shared and var not in self.declared:
                records.append(self.shared_node(var, shared[var]))
            else:
                record = self.node(var, patterns[var], position, rebuild=not last)
                records.append(record)
                if var not in self.declared and not var.startswith("#cnode"):
                    shared[var] = record

        # ---------------- Phase 2: edge and path constructs -----------------
        for conn_index, connector in enumerate(connectors):
            src_var, dst_var = node_seq[conn_index], node_seq[conn_index + 1]
            if isinstance(connector, ast.EdgePattern):
                record = self.edge(connector, src_var, dst_var, conn_index)
                if connector.var:
                    self.bind(connector.var, record.groups)
            else:
                record = self.path(connector, conn_index)
            records.append(record)

        # ---------------- Phase 3: WHEN filtering ---------------------------
        if item.when is not None:
            passed = {
                self.origin[i]
                for i in compiled_filter_rows(self.table, self.ctx, [item.when], self.compiler)
            }
            self.piece.keep({
                obj
                for record in records
                for obj, indices in record.groups
                if any(record.origin[i] in passed for i in indices)
            })
        return self.piece.build()

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    def node(
        self, var: str, patterns: List[ast.NodePattern], position: int, rebuild: bool
    ) -> _Record:
        primary = patterns[0]
        bound = var in self.declared
        if bound:
            gamma: Tuple[ast.Expr, ...] = (ast.Var(var),)
        elif primary.group is not None:
            gamma = tuple(primary.group)
        elif primary.copy_of is not None:
            gamma = (ast.Var(primary.copy_of),)
        else:
            gamma = tuple(ast.Var(column) for column in self.table.columns)
        record = _Record(gamma)
        site = ("node", *self.site, position)
        groups = self.groups(gamma)
        for key, cells, indices in groups:
            obj = _node_identity(var, key, cells, site, self.ctx, bound)
            if obj is not None:
                record.id_by_key[key] = obj
                record.groups.append((obj, indices))
        self.piece.nodes.update(obj for obj, _ in record.groups)
        self.describe(record.groups, patterns, var, bound, primary.copy_of)
        record.origin = self.origin
        if rebuild:
            self.bind(var, record.groups, [i for _, _, indices in groups for i in indices])
        return record

    def shared_node(self, var: str, record: _Record) -> _Record:
        """An unbound variable grouped by an earlier item: reuse its
        identities so the items connect (Section 3). Row order is kept."""
        found = [
            (record.id_by_key[key], indices)
            for key, _, indices in self.groups(record.gamma)
            if key in record.id_by_key
        ]
        self.piece.nodes.update(obj for obj, _ in found)
        self.piece.adopt([obj for obj, _ in found], self.ctx)
        self.bind(var, found)
        return record

    def bind(self, var: str, built: List[Built], order: Optional[List[int]] = None) -> None:
        """Bind *var* to the element *built* from each row's group where
        the row leaves it unbound; with *order*, take the rows in it."""
        existing = self.table.column_values(var)
        vector = list(existing) if existing is not None else [ABSENT] * len(self.table)
        for obj, indices in built:
            for index in indices:
                if vector[index] is ABSENT:
                    vector[index] = obj
        if order is not None:
            vector = [vector[i] for i in order]
            self.origin = [self.origin[i] for i in order]
        self.table = _with_column(self.table, var, vector, order)

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def edge(
        self, pattern: ast.EdgePattern, src_var: str, dst_var: str, conn_index: int
    ) -> _Record:
        if pattern.direction == ast.UNDIRECTED:
            raise SemanticError("constructed edges must be directed")
        from_var, to_var = (
            (src_var, dst_var) if pattern.direction == ast.OUT else (dst_var, src_var)
        )
        var = pattern.var
        bound = var in self.declared if var else False
        gamma: List[ast.Expr] = [ast.Var(from_var), ast.Var(to_var)]
        if var and bound:
            gamma.append(ast.Var(var))
        if pattern.copy_of is not None:
            gamma.append(ast.Var(pattern.copy_of))
        if pattern.group is not None:
            gamma.extend(pattern.group)
        record = _Record(tuple(gamma))
        site = ("edge", *self.site, conn_index)
        piece, ctx = self.piece, self.ctx
        for key, cells, indices in self.groups(gamma):
            # Γ starts (from_var, to_var[, var]): endpoints and a bound
            # edge identity are the leading cells.
            source, target = cells[0], cells[1]
            if source is MISSING or target is MISSING:
                continue  # dangling-edge prevention (A.3)
            ends = (source, target)
            if bound:
                edge = cells[2]
                if edge is MISSING:
                    continue
                if isinstance(edge, (Walk, AllPathsHandle)):
                    raise SemanticError(f"variable {var!r} is a path, not an edge, in CONSTRUCT")
                home = ctx.graph_of(edge)
                if home is not None:
                    if edge not in home.edges:
                        raise SemanticError(f"variable {var!r} is not an edge in CONSTRUCT")
                    original = home.endpoints(edge)
                    if original != ends:
                        raise EvaluationError(
                            f"bound edge {edge!r} constructed between different "
                            f"endpoints {source!r} -> {target!r}; changing an edge's "
                            f"endpoints violates its identity (use -[={var}]- to copy)"
                        )
                    ends = original
            else:
                edge = ctx.ids.skolem("e", site, key)
            record.groups.append((edge, indices))
            piece.nodes.add(source)
            piece.nodes.add(target)
            piece.edges[edge] = ends
        self.describe(record.groups, [pattern], var, bound, pattern.copy_of)
        record.origin = self.origin
        return record

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def path(self, pattern: ast.PathPatternElem, conn_index: int) -> _Record:
        var = pattern.var
        if var is None:
            raise SemanticError("a construct path pattern must reference a variable")
        if var not in self.declared:
            raise SemanticError(
                f"construct path variable {var!r} must be bound in the MATCH clause"
            )
        record = _Record((ast.Var(var),))
        site = ("path", *self.site, conn_index)
        walks: List[Built] = []
        stored: List[Built] = []
        ctx = self.ctx
        for key, (value,), indices in self.groups(record.gamma):
            if value is MISSING:
                continue
            if isinstance(value, AllPathsHandle):
                if pattern.stored:
                    raise SemanticError("ALL-paths variables may only be projected, not stored")
                self.project(value.nodes, value.edges)
                continue
            if isinstance(value, Walk):
                sequence = value.sequence
            else:
                graph = ctx.graph_of(value)
                if graph is None or value not in graph.paths:
                    raise SemanticError(
                        f"construct path variable {var!r} is not bound to a path"
                    )
                sequence = graph.path_sequence(value)
            self.project(path_nodes(sequence), path_edges(sequence))
            if pattern.stored:
                if isinstance(value, Walk):
                    pid = ctx.ids.skolem("p", site, key)
                    walks.append((pid, indices))
                else:
                    pid = value
                    stored.append((pid, indices))
                self.piece.paths[pid] = tuple(sequence)
                record.groups.append((pid, indices))
        # A path's own labels and assignments apply after SET and REMOVE.
        self.describe(walks, [pattern], var, False, patterns_last=True)
        self.describe(stored, [pattern], var, True, patterns_last=True)
        record.origin = self.origin
        return record

    def project(self, nodes: Sequence[ObjectId], edges: Sequence[ObjectId]) -> None:
        """Project nodes and edges into the piece with their labels and
        properties, by reference; the construct overlay still wins."""
        piece, ctx = self.piece, self.ctx
        piece.nodes.update(nodes)
        piece.adopt(nodes, ctx)
        for edge in edges:
            graph = ctx.graph_of(edge)
            if graph is None or edge not in graph.edges:
                raise EvaluationError(f"cannot project unknown edge {edge!r}")
            piece.edges[edge] = graph.endpoints(edge)
        piece.adopt(edges, ctx)

    # ------------------------------------------------------------------
    # Labels and properties
    # ------------------------------------------------------------------
    def describe(
        self,
        built: List[Built],
        patterns: Sequence[Pattern],
        var: Optional[str],
        bound: bool,
        copy_of: Optional[str] = None,
        patterns_last: bool = False,
    ) -> None:
        """Labels and properties (lambda_S / sigma_S) of the elements *built*.

        A bound element starts from its stored labels and properties, a
        copy from its source's (the group's representative row), any
        other from nothing; then come the patterns' labels and ``{k :=
        expr}`` values, SET, and REMOVE — the patterns after REMOVE when
        *patterns_last*. Each expression runs once, as a grouped kernel
        over all groups. A bound element nothing changes is adopted by
        reference and stays out of the overlay (the overlay or its home
        graph already answers for it).
        """
        if not built:
            return
        ctx, piece = self.ctx, self.piece
        sets = self.sets.get(var, []) if var else []
        removes = self.removes.get(var, []) if var else []
        added = [label for p in patterns for group in p.labels for label in group]
        assignments = [assignment for p in patterns for assignment in p.assignments]
        if bound and not (added or assignments or sets or removes):
            piece.adopt([obj for obj, _ in built], ctx)
            return
        sources = self.table.column_values(copy_of) if copy_of and not bound else None
        bases: List[Tuple[Optional[Labels], Optional[Props]]] = []
        for obj, indices in built:
            if bound:
                bases.append(_stored(obj, ctx)[:2])
            elif sources is not None and sources[indices[0]] is not ABSENT:
                source = sources[indices[0]]
                if isinstance(source, Walk):
                    raise SemanticError("cannot copy a computed path into an element")
                bases.append(_stored(source, ctx)[:2])
            else:
                bases.append((None, None))
        specs = [GroupSpec(indices[0], indices) for _, indices in built]
        kctx = KernelContext(self.table, ctx, maximal_domain=self.maxdom)
        grouped = self.compiler.compile_grouped
        assigned = [
            (key, [_to_value_set(v) for v in grouped(expr)(kctx, specs)])
            for key, expr in assignments
        ]
        set_values = [
            (assign.key, [_to_value_set(v) for v in grouped(assign.expr)(kctx, specs)])
            for assign in sets
            if assign.key is not None and assign.expr is not None
        ]
        set_labels = [assign.label for assign in sets if assign.label is not None]
        removed = frozenset(removal.label for removal in removes if removal.label is not None)
        removed_keys = [removal.key for removal in removes if removal.key is not None]
        # labels: (base | pre) - removed | post; properties: base, writes,
        # REMOVE, then after
        pre = frozenset(set_labels).union(() if patterns_last else added)
        post = frozenset(added if patterns_last else ())
        writes = set_values if patterns_last else assigned + set_values
        after = assigned if patterns_last else []
        fresh_labels = (pre - removed) | post
        overlay_labels, overlay_props = ctx.overlay_labels, ctx.overlay_props
        for j, (obj, _) in enumerate(built):
            base_labels, base_props = bases[j]
            labels = (base_labels | pre) - removed | post if base_labels else fresh_labels
            props = dict(base_props) if base_props else {}
            for key, values in writes:
                props[key] = values[j]
            for key in removed_keys:
                props.pop(key, None)
            for key, values in after:
                props[key] = values[j]
            if not all(props.values()):
                props = {key: values for key, values in props.items() if values}
            piece.add(obj, labels, props)
            overlay_labels[obj] = labels
            overlay_props[obj] = props


def _node_identity(
    var: str, key: Key, cells: Key, site: Tuple[Any, ...], ctx: EvalContext, bound: bool
) -> Optional[ObjectId]:
    if bound:
        # A declared variable's Γ is exactly (Var(var),), so the bound
        # identity is the group's one cell.
        value = cells[0]
        if value is MISSING:
            return None  # the formal semantics contributes the empty graph
        if isinstance(value, (Walk, AllPathsHandle)):
            raise SemanticError(f"variable {var!r} is a path, not a node, in CONSTRUCT")
        return value
    if any(v is MISSING for v in cells):
        return None
    return ctx.ids.skolem("n", site, key)


# ---------------------------------------------------------------------------
# Identity-projection analysis (incremental view maintenance)
# ---------------------------------------------------------------------------


def identity_item_spec(
    item: ast.PatternItem,
    match_node_vars: FrozenSet[str],
    match_edge_orientations: Dict[str, Tuple[str, str]],
) -> Optional[Tuple[Tuple[str, ...], Tuple[str, ...]]]:
    """The ``(node_vars, edge_vars)`` of a *pure identity* construct item.

    A pure identity item re-emits matched objects unchanged: every node
    pattern is a bound match node variable and every edge pattern a bound
    match edge variable between the same (orientation-resolved) endpoint
    variables — no labels, property tests/binds/assignments, copies,
    GROUP, WHEN, SET or REMOVE. For such items the constructed graph is
    exactly the union of the bound objects with their base-graph labels
    and properties, which is what lets
    :mod:`repro.eval.maintenance` patch a materialized view by support
    counting instead of re-running CONSTRUCT. Returns None when the item
    is anything richer (the full evaluator remains the only correct
    interpretation).
    """
    if item.when is not None or item.sets or item.removes:
        return None

    def plain(pattern: Union[ast.NodePattern, ast.EdgePattern]) -> bool:
        return not (
            pattern.labels
            or pattern.prop_tests
            or pattern.prop_binds
            or pattern.copy_of is not None
            or pattern.group is not None
            or pattern.assignments
        )

    node_vars: List[str] = []
    for element in item.chain.nodes():
        if element.var is None or element.var not in match_node_vars:
            return None
        if not plain(element):
            return None
        node_vars.append(element.var)
    edge_vars: List[str] = []
    connectors = item.chain.connectors()
    for index, connector in enumerate(connectors):
        if not isinstance(connector, ast.EdgePattern):
            return None
        if connector.var is None or not plain(connector):
            return None
        if connector.direction == ast.OUT:
            endpoints = (node_vars[index], node_vars[index + 1])
        elif connector.direction == ast.IN:
            endpoints = (node_vars[index + 1], node_vars[index])
        else:
            return None
        if match_edge_orientations.get(connector.var) != endpoints:
            return None
        edge_vars.append(connector.var)
    return tuple(node_vars), tuple(edge_vars)
