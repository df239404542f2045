"""SELECT evaluation — the tabular projection extension of Section 5.

``SELECT e1 AS a1, ... MATCH ...`` projects the binding set into a
:class:`~repro.table.Table`. Following the paper's sketch ("slicing,
sorting, and aggregation, similar to Cypher's RETURN clause"), we support
DISTINCT, GROUP BY, ORDER BY (ASC/DESC), LIMIT and OFFSET, and aggregate
items (with an implicit single group when no GROUP BY is given).

Projection and GROUP BY aggregation run vectorized: item expressions
compile to columnar kernels (:mod:`repro.eval.kernels`) that evaluate
whole column batches — grouping keys come from one kernel pass,
aggregates consume per-group column slices, plain-variable items read
their vector directly. ``tests/property/test_prop_expr_oracle.py``
checks the kernels against the interpreted
:class:`~repro.eval.expressions.ExpressionEvaluator` on the same rows
and groups.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..algebra.binding import ABSENT, Binding, BindingTable
from ..lang import ast
from ..lang.pretty import pretty_expr
from ..table import Table
from .context import EvalContext
from .expressions import ExpressionEvaluator, expr_has_aggregate
from .kernels import ExpressionCompiler, GroupSpec, KernelContext

__all__ = ["evaluate_select"]


def _column_name(item: ast.SelectItem, index: int) -> str:
    if item.alias:
        return item.alias
    return pretty_expr(item.expr)


def _normalize(value: Any) -> Any:
    """Flatten evaluation results into table cells."""
    if isinstance(value, frozenset):
        if not value:
            return None
        if len(value) == 1:
            return next(iter(value))
        return value
    return value


def _sort_token(value: Any) -> Tuple[str, str]:
    return (type(value).__name__, str(value))


def evaluate_select(
    select: ast.SelectClause,
    omega: BindingTable,
    ctx: EvalContext,
) -> Table:
    """Evaluate a SELECT head over the binding set *omega*."""
    ev = ExpressionEvaluator(ctx)
    columns = [_column_name(item, i) for i, item in enumerate(select.items)]
    maxdom = omega.maximal_domain()
    aggregated = bool(select.group_by) or any(
        expr_has_aggregate(item.expr) for item in select.items
    )
    compiler = ExpressionCompiler(ctx)

    # GROUP BY / ORDER BY may reference SELECT aliases; resolve them to
    # the underlying expressions before evaluation.
    aliases = {item.alias: item.expr for item in select.items if item.alias}
    group_exprs = tuple(
        aliases.get(expr.name, expr) if isinstance(expr, ast.Var) else expr
        for expr in select.group_by
    )

    # raw_rows pairs each output row with the omega row index backing it
    # (a group's representative when aggregated; None for the implicit
    # single group over an empty table) — ORDER BY re-reads it lazily.
    raw_rows: List[Tuple[Optional[int], Tuple[Any, ...]]] = []
    if aggregated and not len(omega):
        if not group_exprs:
            # The implicit single group over an empty table.
            raw_rows.append((None, tuple(
                _normalize(ev.evaluate(
                    item.expr, Binding(), group=omega, maximal_domain=maxdom
                ))
                for item in select.items
            )))
    elif aggregated:
        kctx = KernelContext(omega, ctx, maximal_domain=maxdom)
        specs = [
            GroupSpec(indices[0], indices)
            for indices in _group_indices(omega, group_exprs, kctx, compiler)
        ]
        cell_columns = [
            [
                _normalize(value)
                for value in compiler.compile_grouped(item.expr)(kctx, specs)
            ]
            for item in select.items
        ]
        raw_rows = [
            (spec.representative, tuple(column[j] for column in cell_columns))
            for j, spec in enumerate(specs)
        ]
    else:
        # Batch projection: plain-variable items read their column
        # vector directly; other expressions run one compiled kernel
        # per item.
        nrows = len(omega)
        all_rows = list(range(nrows))
        kctx = KernelContext(omega, ctx)
        cell_columns = []
        for item in select.items:
            vector = _column_fast_path(omega, item.expr)
            if vector is None:
                vector = [
                    _normalize(value)
                    for value in compiler.compile(item.expr)(kctx, all_rows)
                ]
            cell_columns.append(vector)
        raw_rows = [
            (i, tuple(column[i] for column in cell_columns)) for i in range(nrows)
        ]

    if select.distinct:
        seen = set()
        unique: List[Tuple[Optional[int], Tuple[Any, ...]]] = []
        for row, cells in raw_rows:
            key = tuple(_sort_token(c) for c in cells)
            if key not in seen:
                seen.add(key)
                unique.append((row, cells))
        raw_rows = unique

    if select.order_by:
        # Stable multi-key sort: apply keys right-to-left.
        for expr, ascending in reversed(select.order_by):
            raw_rows.sort(
                key=lambda entry: _sort_token(
                    _order_value(expr, entry[0], entry[1], columns, ev, omega)
                ),
                reverse=not ascending,
            )

    rows = [cells for _, cells in raw_rows]
    if select.offset:
        rows = rows[select.offset:]
    if select.limit is not None:
        rows = rows[: select.limit]
    return Table(columns, rows)


def _order_value(
    expr: ast.Expr,
    row_index: Optional[int],
    cells: Tuple[Any, ...],
    columns: List[str],
    ev: ExpressionEvaluator,
    omega: BindingTable,
) -> Any:
    """An ORDER BY key: an output column by alias, or any expression."""
    if isinstance(expr, ast.Var) and expr.name in columns:
        return cells[columns.index(expr.name)]
    row = omega.row_at(row_index) if row_index is not None else Binding()
    return _normalize(ev.evaluate(expr, row))


def _column_fast_path(omega: BindingTable, expr: ast.Expr) -> Optional[List[Any]]:
    """The normalized value vector of a plain, fully-bound variable.

    Returns None when *expr* is not a variable or the variable is absent
    in some row — those cases keep the expression-evaluation path (and
    its error behaviour for unbound variables).
    """
    if not isinstance(expr, ast.Var):
        return None
    vector = omega.column_values(expr.name)
    if vector is None or any(value is ABSENT for value in vector):
        return None
    return [_normalize(value) for value in vector]


def _group_indices(
    omega: BindingTable,
    group_by: Tuple[ast.Expr, ...],
    kctx: KernelContext,
    compiler: ExpressionCompiler,
) -> List[List[int]]:
    """Partition row indices by GROUP BY keys (one group when there are
    none): key columns from one kernel pass each, groups sorted by their
    tokenized keys."""
    all_rows = list(range(len(omega)))
    key_columns: List[List[Tuple[str, str]]] = []
    for expr in group_by:
        vector = _column_fast_path(omega, expr)
        if vector is None:
            vector = [_normalize(v) for v in compiler.compile(expr)(kctx, all_rows)]
        key_columns.append([_sort_token(value) for value in vector])
    groups: Dict[Tuple[Any, ...], List[int]] = {}
    for index in all_rows:
        groups.setdefault(tuple(column[index] for column in key_columns), []).append(index)
    return [groups[key] for key in sorted(groups)]
