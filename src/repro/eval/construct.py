"""CONSTRUCT evaluation — Appendix A.3.

Given the binding set Omega produced by MATCH, each construct pattern is
evaluated in phases:

1. **Node constructs** group Omega by their grouping set Γ (``{x}`` for a
   bound variable, the explicit ``GROUP`` expressions, the copy source
   for ``(=n)``, or — for an unbound variable without GROUP — all match
   variables, one element per binding, per footnote 2). Bound variables
   keep their identity, labels and properties; unbound ones receive
   deterministic skolem identifiers ``new(x, Γ-key)``.
2. The bindings are extended with the constructed node identities
   (Omega_N of the formal semantics), so that
3. **edge constructs** connect *constructed* endpoints: since skolem ids
   are injective in the Γ-key, grouping edges by (source-id, target-id,
   bound-edge-id, explicit GROUP) realizes Γz ⊇ Γx ∪ Γy ∪ {x,y} exactly.
4. **Path constructs** store computed walks (``@p``) as new stored paths
   with their constituent nodes/edges, or project a walk / ALL-paths
   handle into plain nodes and edges.
5. ``{k := expr}``, ``SET`` and ``REMOVE`` assignments are applied per
   group — aggregates (e.g. ``COUNT(*)``) range over the group's rows.
6. A ``WHEN`` condition filters per binding, with the freshly constructed
   elements visible through the context overlay (so ``WHEN e.score > 0``
   can read the score just assigned to the new edge).

The result of the CONSTRUCT clause is the union of all items' graphs
(graph names in the item list union the named graphs in — the shorthand
of Section 3).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..algebra.binding import ABSENT, Binding, BindingTable
from ..algebra.grouping import MISSING
from ..errors import EvaluationError, SemanticError
from ..lang import ast
from ..model.graph import ObjectId, PathPropertyGraph, path_edges, path_nodes
from ..model.setops import empty_graph, graph_union
from ..model.values import ValueSet, as_value_set
from ..paths.walk import AllPathsHandle, Walk
from .context import EvalContext
from .expressions import ExpressionEvaluator

__all__ = ["evaluate_construct", "identity_item_spec"]


class _PieceGraph:
    """Mutable accumulator for one CONSTRUCT item's output graph."""

    def __init__(self) -> None:
        self.nodes: Set[ObjectId] = set()
        self.edges: Dict[ObjectId, Tuple[ObjectId, ObjectId]] = {}
        self.paths: Dict[ObjectId, Tuple[ObjectId, ...]] = {}
        self.labels: Dict[ObjectId, Set[str]] = defaultdict(set)
        self.props: Dict[ObjectId, Dict[str, ValueSet]] = defaultdict(dict)

    def add_labels(self, obj: ObjectId, labels) -> None:
        if labels:
            self.labels[obj].update(labels)

    def add_props(self, obj: ObjectId, props: Optional[Dict[str, ValueSet]]) -> None:
        if props:
            store = self.props[obj]
            for key, values in props.items():
                store[key] = store.get(key, frozenset()) | values

    def discard(self, doomed: Set[ObjectId]) -> None:
        self.nodes -= doomed
        for obj in doomed:
            self.edges.pop(obj, None)
            self.paths.pop(obj, None)
            self.labels.pop(obj, None)
            self.props.pop(obj, None)
        # Drop edges whose endpoints were discarded, then paths that lost
        # a constituent — no dangling references survive.
        self.edges = {
            e: (s, d)
            for e, (s, d) in self.edges.items()
            if s in self.nodes and d in self.nodes
        }
        self.paths = {
            p: seq
            for p, seq in self.paths.items()
            if all(n in self.nodes for n in path_nodes(seq))
            and all(e in self.edges for e in path_edges(seq))
        }

    def build(self) -> PathPropertyGraph:
        known = self.nodes | set(self.edges) | set(self.paths)
        return PathPropertyGraph(
            nodes=self.nodes,
            edges=self.edges,
            paths=self.paths,
            labels={o: frozenset(l) for o, l in self.labels.items() if o in known},
            properties={o: p for o, p in self.props.items() if o in known},
        )


def _flatten_labels(labels: Tuple[Tuple[str, ...], ...]) -> List[str]:
    return [label for group in labels for label in group]


def _group_indices(
    table: BindingTable,
    exprs: Sequence[ast.Expr],
    ev: ExpressionEvaluator,
) -> List[Tuple[Tuple[Any, ...], List[int]]]:
    """Group row indices by the values of *exprs* (MISSING for unbound).

    The columnar counterpart of per-row :func:`_group_key`: plain
    variables read their vector directly, other expressions evaluate
    against the lazily-materialized row views.
    """
    nrows = len(table)
    key_columns: List[List[Any]] = []
    for expr in exprs:
        if isinstance(expr, ast.Var):
            vector = table.column_values(expr.name)
            if vector is None:
                key_columns.append([MISSING] * nrows)
            else:
                key_columns.append(
                    [MISSING if v is ABSENT else v for v in vector]
                )
        else:
            key_columns.append(
                [ev.evaluate(expr, row) for row in table.rows]
            )
    groups: Dict[Tuple[Any, ...], List[int]] = {}
    for index in range(nrows):
        key = tuple(column[index] for column in key_columns)
        groups.setdefault(key, []).append(index)
    return sorted(groups.items(), key=lambda item: tuple(map(_token, item[0])))


def _gather_with_var(
    table: BindingTable,
    var: str,
    indices: List[int],
    values: List[Any],
) -> BindingTable:
    """Rows of *table* at *indices* (in that order) with *var* set to the
    parallel *values* vector; deduplicates, like the row-based rebuild."""
    variables = list(table.variables)
    data = {
        v: [table.column_values(v)[i] for i in indices] for v in variables
    }
    if var not in data:
        variables.append(var)
    data[var] = values
    columns = tuple(table.columns) + (var,)
    return BindingTable.from_columns(
        columns, variables, data, len(indices), dedup=True
    )


def _token(value: Any) -> str:
    return f"{type(value).__name__}:{value!r}"


class _ElementRecord:
    """Bookkeeping for one constructed element kind within an item."""

    def __init__(self, var: Optional[str], gamma: Tuple[ast.Expr, ...]) -> None:
        self.var = var
        self.gamma = gamma
        self.id_by_key: Dict[Tuple[Any, ...], ObjectId] = {}


def evaluate_construct(
    construct: ast.ConstructClause,
    omega: BindingTable,
    ctx: EvalContext,
    declared: FrozenSet[str],
) -> PathPropertyGraph:
    """Evaluate a CONSTRUCT clause over the binding set *omega*.

    ``shared_records`` carries unbound construct variables across items:
    "Unbound variables in a CONSTRUCT are useful if they occur multiple
    times in the construct patterns, in order to ensure that the same
    identities will be used" (Section 3) — so ``(cust ...)`` grouped in one
    item and referenced by an edge in another resolves to the same nodes.
    """
    result = empty_graph()
    shared_records: Dict[str, _ElementRecord] = {}
    for item_index, item in enumerate(construct.items):
        if isinstance(item, ast.GraphRefItem):
            result = graph_union(result, ctx.resolve_graph(item.name))
        else:
            piece = _evaluate_item(
                item, item_index, omega, ctx, declared, shared_records
            )
            result = graph_union(result, piece)
    return result


# ---------------------------------------------------------------------------
# One construct item
# ---------------------------------------------------------------------------

def _evaluate_item(
    item: ast.PatternItem,
    item_index: int,
    omega: BindingTable,
    ctx: EvalContext,
    declared: FrozenSet[str],
    shared_records: Optional[Dict[str, "_ElementRecord"]] = None,
) -> PathPropertyGraph:
    ev = ExpressionEvaluator(ctx)
    piece = _PieceGraph()
    maxdom = omega.maximal_domain()
    chain = item.chain

    sets_by_var: Dict[str, List[ast.SetAssign]] = defaultdict(list)
    removes_by_var: Dict[str, List[ast.RemoveAssign]] = defaultdict(list)
    for assign in item.sets:
        sets_by_var[assign.var].append(assign)
    for removal in item.removes:
        removes_by_var[removal.var].append(removal)

    # ---------------- Phase 1: node constructs -------------------------
    node_records: Dict[str, _ElementRecord] = {}
    anon_counter = 0
    node_vars_in_order: List[str] = []
    node_patterns: Dict[str, List[ast.NodePattern]] = defaultdict(list)
    for element in chain.nodes():
        var = element.var
        if var is None:
            var = f"#cnode{item_index}_{anon_counter}"
            anon_counter += 1
        if var not in node_patterns:
            node_vars_in_order.append(var)
        node_patterns[var].append(element)

    if shared_records is None:
        shared_records = {}
    table = omega
    for position, var in enumerate(node_vars_in_order):
        patterns = node_patterns[var]
        primary = patterns[0]
        existing = table.column_values(var)
        if var in shared_records and var not in declared:
            # The variable was grouped by an earlier construct item; reuse
            # its identities so the items connect (Section 3). Row order
            # is preserved — identities are filled into the var column.
            record = shared_records[var]
            vector = (
                list(existing) if existing is not None else [ABSENT] * len(table)
            )
            for key, indices in _group_indices(table, record.gamma, ev):
                obj = record.id_by_key.get(key)
                if obj is None:
                    continue
                piece.nodes.add(obj)
                piece.add_labels(obj, ctx.lookup_labels(obj))
                piece.add_props(obj, ctx.lookup_properties(obj))
                for index in indices:
                    if vector[index] is ABSENT:
                        vector[index] = obj
            node_records[var] = record
            table = _gather_with_var(table, var, list(range(len(table))), vector)
            continue
        gamma = _node_gamma(var, primary, table, declared)
        record = _ElementRecord(None if var.startswith("#cnode") else var, gamma)
        site = ("node", item_index, position)
        # The rebuilt table concatenates the groups in sorted-key order
        # (matching the row-based rebuild, which drove skolem generation).
        ordered_indices: List[int] = []
        values: List[Any] = []
        # Group rows and representative bindings are only materialized
        # when some expression will read them (copies, property
        # assignments, SET clauses with expressions); plain identity and
        # label constructs stay purely columnar.
        sets = sets_by_var.get(var, ())
        removes = removes_by_var.get(var, ())
        needs_rows = (
            primary.copy_of is not None
            or any(p.assignments for p in patterns)
            or any(assign.label is None for assign in sets)
        )
        for key, indices in _group_indices(table, gamma, ev):
            # row_at first: materializing the parent's views lets
            # select_rows hand the group the shared views.
            representative = table.row_at(indices[0]) if needs_rows else None
            group = table.select_rows(indices) if needs_rows else None
            obj = _node_identity(var, primary, key, gamma, site, ctx, declared)
            if obj is None:
                ordered_indices.extend(indices)
                values.extend(
                    existing[i] if existing is not None else ABSENT
                    for i in indices
                )
                continue
            record.id_by_key[key] = obj
            labels, props = _element_labels_props(
                obj,
                patterns,
                var,
                primary.copy_of,
                representative,
                group,
                maxdom,
                ctx,
                ev,
                sets,
                removes,
                bound=(var in declared),
            )
            piece.nodes.add(obj)
            piece.add_labels(obj, labels)
            piece.add_props(obj, props)
            ctx.overlay_labels[obj] = frozenset(labels)
            ctx.overlay_props[obj] = dict(props)
            for index in indices:
                ordered_indices.append(index)
                current = existing[index] if existing is not None else ABSENT
                values.append(current if current is not ABSENT else obj)
        node_records[var] = record
        if var not in declared and not var.startswith("#cnode"):
            shared_records[var] = record
        table = _gather_with_var(table, var, ordered_indices, values)

    # ---------------- Phase 2: edge and path constructs -----------------
    edge_records: List[Tuple[_ElementRecord, ast.EdgePattern]] = []
    connectors = chain.connectors()
    node_seq = node_vars_in_order_from_chain(chain, item_index)
    for conn_index, connector in enumerate(connectors):
        src_var = node_seq[conn_index]
        dst_var = node_seq[conn_index + 1]
        if isinstance(connector, ast.EdgePattern):
            record = _construct_edge(
                connector,
                src_var,
                dst_var,
                conn_index,
                item_index,
                table,
                piece,
                ctx,
                ev,
                declared,
                maxdom,
                sets_by_var,
                removes_by_var,
            )
            edge_records.append((record, connector))
            if connector.var:
                table = _extend_with_record(table, connector.var, record, ev)
                node_records[connector.var] = record
        elif isinstance(connector, ast.PathPatternElem):
            record = _construct_path(
                connector,
                src_var,
                dst_var,
                conn_index,
                item_index,
                table,
                piece,
                ctx,
                ev,
                declared,
                maxdom,
                sets_by_var,
                removes_by_var,
            )
            if connector.var and record is not None:
                node_records.setdefault(connector.var, record)

    # ---------------- Phase 3: WHEN filtering ---------------------------
    if item.when is not None:
        rows = table.rows
        surviving = {
            index
            for index in range(len(table))
            if ev.evaluate_predicate(item.when, rows[index])
        }
        survivors: Set[ObjectId] = set()
        all_records = list(node_records.values())
        all_records.extend(record for record, _ in edge_records)
        for record in all_records:
            # An element survives when any row of its Γ-group does; the
            # group keys are recomputed columnar-ly, not per row.
            for key, indices in _group_indices(table, record.gamma, ev):
                obj = record.id_by_key.get(key)
                if obj is not None and not surviving.isdisjoint(indices):
                    survivors.add(obj)
        constructed = piece.nodes | set(piece.edges) | set(piece.paths)
        piece.discard(constructed - survivors)

    return piece.build()


def node_vars_in_order_from_chain(chain: ast.Chain, item_index: int) -> List[str]:
    """The per-position construct variable of each node in the chain."""
    names: List[str] = []
    anon_counter = 0
    seen: Dict[int, str] = {}
    assigned: Dict[str, str] = {}
    for element in chain.nodes():
        if element.var is not None:
            names.append(element.var)
        else:
            key = id(element)
            if key not in seen:
                seen[key] = f"#cnode{item_index}_{anon_counter}"
                anon_counter += 1
            names.append(seen[key])
    return names


def _node_gamma(
    var: str,
    pattern: ast.NodePattern,
    table: BindingTable,
    declared: FrozenSet[str],
) -> Tuple[ast.Expr, ...]:
    if var in declared:
        return (ast.Var(var),)
    if pattern.group is not None:
        return tuple(pattern.group)
    if pattern.copy_of is not None:
        return (ast.Var(pattern.copy_of),)
    return tuple(ast.Var(column) for column in table.columns)


def _node_identity(
    var: str,
    pattern: ast.NodePattern,
    key: Tuple[Any, ...],
    gamma: Tuple[ast.Expr, ...],
    site: Tuple[Any, ...],
    ctx: EvalContext,
    declared: FrozenSet[str],
) -> Optional[ObjectId]:
    if var in declared:
        # A declared variable's Γ is exactly (Var(var),), so the bound
        # identity is the group key itself.
        value = key[0]
        if value is MISSING:
            return None  # the formal semantics contributes the empty graph
        if isinstance(value, (Walk, AllPathsHandle)):
            raise SemanticError(
                f"variable {var!r} is a path, not a node, in CONSTRUCT"
            )
        return value
    if any(v is MISSING for v in key):
        return None
    return ctx.ids.skolem("n", site, key)


def _element_labels_props(
    obj: ObjectId,
    patterns: Sequence[Any],
    var: str,
    copy_of: Optional[str],
    representative: Optional[Binding],
    group: Optional[BindingTable],
    maxdom: FrozenSet[str],
    ctx: EvalContext,
    ev: ExpressionEvaluator,
    sets: Sequence[ast.SetAssign],
    removes: Sequence[ast.RemoveAssign],
    bound: bool,
) -> Tuple[Set[str], Dict[str, ValueSet]]:
    """Labels and properties of a constructed element (lambda_S / sigma_S).

    *representative* and *group* may be None when the caller has proved
    no expression will be evaluated (no copies, no property assignments,
    no SET clauses with expressions) — the purely columnar fast path.
    """
    labels: Set[str] = set()
    props: Dict[str, ValueSet] = {}
    if bound:
        labels |= ctx.lookup_labels(obj)
        props.update(ctx.lookup_properties(obj))
    elif copy_of is not None and copy_of in representative:
        source = representative[copy_of]
        if isinstance(source, Walk):
            raise SemanticError("cannot copy a computed path into an element")
        labels |= ctx.lookup_labels(source)
        props.update(ctx.lookup_properties(source))
    for pattern in patterns:
        labels.update(_flatten_labels(pattern.labels))
        for key, expr in pattern.assignments:
            value = ev.evaluate(expr, representative, group=group, maximal_domain=maxdom)
            props[key] = _to_value_set(value)
    for assign in sets:
        if assign.label is not None:
            labels.add(assign.label)
        else:
            value = ev.evaluate(
                assign.expr, representative, group=group, maximal_domain=maxdom
            )
            props[assign.key] = _to_value_set(value)
    for removal in removes:
        if removal.label is not None:
            labels.discard(removal.label)
        else:
            props.pop(removal.key, None)
    props = {key: values for key, values in props.items() if values}
    return labels, props


def _to_value_set(value: Any) -> ValueSet:
    if isinstance(value, tuple):  # COLLECT(...) results
        return as_value_set(frozenset(value))
    return as_value_set(value)


def _extend_with_record(
    table: BindingTable, var: str, record: _ElementRecord, ev: ExpressionEvaluator
) -> BindingTable:
    existing = table.column_values(var)
    vector = list(existing) if existing is not None else [ABSENT] * len(table)
    for key, indices in _group_indices(table, record.gamma, ev):
        obj = record.id_by_key.get(key)
        if obj is None:
            continue
        for index in indices:
            if vector[index] is ABSENT:
                vector[index] = obj
    return _gather_with_var(table, var, list(range(len(table))), vector)


# ---------------------------------------------------------------------------
# Edge constructs
# ---------------------------------------------------------------------------

def _construct_edge(
    pattern: ast.EdgePattern,
    src_var: str,
    dst_var: str,
    conn_index: int,
    item_index: int,
    table: BindingTable,
    piece: _PieceGraph,
    ctx: EvalContext,
    ev: ExpressionEvaluator,
    declared: FrozenSet[str],
    maxdom: FrozenSet[str],
    sets_by_var: Dict[str, List[ast.SetAssign]],
    removes_by_var: Dict[str, List[ast.RemoveAssign]],
) -> _ElementRecord:
    if pattern.direction == ast.UNDIRECTED:
        raise SemanticError("constructed edges must be directed")
    from_var, to_var = (
        (src_var, dst_var) if pattern.direction == ast.OUT else (dst_var, src_var)
    )
    var = pattern.var
    bound = var in declared if var else False
    gamma: List[ast.Expr] = [ast.Var(from_var), ast.Var(to_var)]
    if bound:
        gamma.append(ast.Var(var))
    if pattern.copy_of is not None:
        gamma.append(ast.Var(pattern.copy_of))
    if pattern.group is not None:
        gamma.extend(pattern.group)
    record = _ElementRecord(var, tuple(gamma))
    site = ("edge", item_index, conn_index)
    sets = sets_by_var.get(var, ()) if var else ()
    removes = removes_by_var.get(var, ()) if var else ()
    needs_rows = (
        pattern.copy_of is not None
        or bool(pattern.assignments)
        or any(assign.label is None for assign in sets)
    )
    for key, indices in _group_indices(table, gamma, ev):
        # Γ starts (from_var, to_var[, var]) — endpoints and a bound edge
        # identity are the leading key components, no row view needed.
        source = key[0]
        target = key[1]
        if source is MISSING or target is MISSING:
            continue  # dangling-edge prevention (A.3)
        if bound:
            edge = key[2]
            if edge is MISSING:
                continue
            if isinstance(edge, (Walk, AllPathsHandle)):
                raise SemanticError(
                    f"variable {var!r} is a path, not an edge, in CONSTRUCT"
                )
            home = ctx.graph_of(edge)
            if home is not None and edge not in home.edges:
                raise SemanticError(
                    f"variable {var!r} is not an edge in CONSTRUCT"
                )
            original = _edge_endpoints(edge, ctx)
            if original is not None and original != (source, target):
                raise EvaluationError(
                    f"bound edge {edge!r} constructed between different "
                    f"endpoints {source!r} -> {target!r}; changing an edge's "
                    f"endpoints violates its identity (use -[={var}]- to copy)"
                )
        else:
            edge = ctx.ids.skolem("e", site, key)
        record.id_by_key[key] = edge
        representative = table.row_at(indices[0]) if needs_rows else None
        group = table.select_rows(indices) if needs_rows else None
        labels, props = _element_labels_props(
            edge,
            [pattern],
            var or "",
            pattern.copy_of,
            representative,
            group,
            maxdom,
            ctx,
            ev,
            sets,
            removes,
            bound=bound,
        )
        piece.nodes.add(source)
        piece.nodes.add(target)
        piece.edges[edge] = (source, target)
        piece.add_labels(edge, labels)
        piece.add_props(edge, props)
        ctx.overlay_labels[edge] = frozenset(labels)
        ctx.overlay_props[edge] = dict(props)
    return record


def _edge_endpoints(edge: ObjectId, ctx: EvalContext):
    graph = ctx.graph_of(edge)
    if graph is not None and edge in graph.edges:
        return graph.endpoints(edge)
    return None


# ---------------------------------------------------------------------------
# Path constructs
# ---------------------------------------------------------------------------

def _construct_path(
    pattern: ast.PathPatternElem,
    src_var: str,
    dst_var: str,
    conn_index: int,
    item_index: int,
    table: BindingTable,
    piece: _PieceGraph,
    ctx: EvalContext,
    ev: ExpressionEvaluator,
    declared: FrozenSet[str],
    maxdom: FrozenSet[str],
    sets_by_var: Dict[str, List[ast.SetAssign]],
    removes_by_var: Dict[str, List[ast.RemoveAssign]],
) -> Optional[_ElementRecord]:
    var = pattern.var
    if var is None:
        raise SemanticError("a construct path pattern must reference a variable")
    if var not in declared:
        raise SemanticError(
            f"construct path variable {var!r} must be bound in the MATCH clause"
        )
    gamma = (ast.Var(var),)
    record = _ElementRecord(var, gamma)
    site = ("path", item_index, conn_index)
    for key, indices in _group_indices(table, gamma, ev):
        (value,) = key
        if value is MISSING:
            continue
        representative = table.row_at(indices[0])
        group = table.select_rows(indices)
        if isinstance(value, AllPathsHandle):
            if pattern.stored:
                raise SemanticError(
                    "ALL-paths variables may only be projected, not stored"
                )
            _project_members(piece, value.nodes, value.edges, ctx)
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
        _project_members(
            piece, path_nodes(sequence), path_edges(sequence), ctx
        )
        if pattern.stored:
            if isinstance(value, Walk):
                pid = ctx.ids.skolem("p", site, key)
            else:
                pid = value
            piece.paths[pid] = tuple(sequence)
            record.id_by_key[key] = pid
            labels, props = _element_labels_props(
                pid,
                [pattern] if not isinstance(value, Walk) else [],
                var,
                None,
                representative,
                group,
                maxdom,
                ctx,
                ev,
                sets_by_var.get(var, ()),
                removes_by_var.get(var, ()),
                bound=not isinstance(value, Walk),
            )
            labels.update(_flatten_labels(pattern.labels))
            for prop_key, expr in pattern.assignments:
                result = ev.evaluate(
                    expr, representative, group=group, maximal_domain=maxdom
                )
                props[prop_key] = _to_value_set(result)
            props = {k: v for k, v in props.items() if v}
            piece.add_labels(pid, labels)
            piece.add_props(pid, props)
            ctx.overlay_labels[pid] = frozenset(labels)
            ctx.overlay_props[pid] = dict(props)
    return record


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

    def plain(pattern) -> bool:
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


def _project_members(
    piece: _PieceGraph,
    nodes: Sequence[ObjectId],
    edges: Sequence[ObjectId],
    ctx: EvalContext,
) -> None:
    """Project nodes/edges (with their labels and properties) into a piece,
    resolving each member's graph once; the construct overlay still wins."""
    piece.nodes.update(nodes)
    members = [(node, ctx.graph_of(node)) for node in nodes]
    for edge in edges:
        graph = ctx.graph_of(edge)
        if graph is None or edge not in graph.edges:
            raise EvaluationError(f"cannot project unknown edge {edge!r}")
        piece.edges[edge] = graph.endpoints(edge)
        members.append((edge, graph))
    overlay_labels, overlay_props = ctx.overlay_labels, ctx.overlay_props
    for obj, graph in members:
        labels = overlay_labels.get(obj)
        if labels is None and graph is not None:
            labels = graph.labels(obj)
        piece.add_labels(obj, labels)
        props = overlay_props.get(obj)
        if props is None and graph is not None:
            props = graph.properties(obj)
        piece.add_props(obj, props)
