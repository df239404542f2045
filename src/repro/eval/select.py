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
their vector directly, ORDER BY keys are one kernel pass each over the
emitted rows. ``tests/property/test_prop_expr_oracle.py`` checks the
kernels against the interpreted
:class:`~repro.eval.expressions.ExpressionEvaluator` on the same rows
and groups.

GROUP BY and DISTINCT treat cells as one when Section 3's ``=`` does
(:func:`~repro.algebra.grouping.group_indices`, keyed by
:func:`~repro.model.values.distinct_key`); groups and ORDER BY follow
:func:`~repro.model.values.order_key`.
"""

from __future__ import annotations

from typing import Any, List

from ..algebra.binding import ABSENT, BindingTable
from ..algebra.grouping import group_indices
from ..lang import ast
from ..lang.pretty import pretty_expr
from ..model.values import order_key
from ..table import Table
from .context import EvalContext
from .expressions import expr_has_aggregate
from .kernels import ExpressionCompiler, GroupSpec, KernelContext

__all__ = ["evaluate_select"]


def _column_name(item: ast.SelectItem, index: int) -> str:
    if item.alias:
        return item.alias
    return pretty_expr(item.expr)


def _normalize(value: Any) -> Any:
    """Flatten evaluation results into table cells: an absent value is
    None, a singleton set its member."""
    if isinstance(value, frozenset) and len(value) <= 1:
        return next(iter(value), None)
    return value


def evaluate_select(
    select: ast.SelectClause,
    omega: BindingTable,
    ctx: EvalContext,
) -> Table:
    """Evaluate a SELECT head over the binding set *omega*."""
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

    # rows[j] is the row of kctx's table backing output row j: a group's
    # representative when aggregated. The implicit single group over an
    # empty table stands on the one row of the unit table, where every
    # variable is unbound.
    kctx = KernelContext(omega, ctx, maximal_domain=maxdom)
    if aggregated:
        if not len(omega) and not group_exprs:
            kctx = KernelContext(BindingTable.unit(), ctx, maximal_domain=maxdom)
            specs = [GroupSpec(0, ())]
        else:
            keys = [_cells(omega, expr, kctx, compiler) for expr in group_exprs]
            specs = [
                GroupSpec(indices[0], indices)
                for _, indices in group_indices(keys, len(omega))
            ]
        cell_columns = [
            [
                _normalize(value)
                for value in compiler.compile_grouped(item.expr)(kctx, specs)
            ]
            for item in select.items
        ]
        rows = [spec.representative for spec in specs]
    else:
        cell_columns = [_cells(omega, item.expr, kctx, compiler) for item in select.items]
        rows = list(range(len(omega)))

    # order lists the output rows to emit, as positions into rows.
    order = list(range(len(rows)))
    if select.distinct:
        order = sorted(indices[0] for _, indices in group_indices(cell_columns, len(rows)))

    # Stable multi-key sort: apply keys right-to-left.
    for expr, ascending in reversed(select.order_by):
        if isinstance(expr, ast.Var) and expr.name in columns:
            cells = cell_columns[columns.index(expr.name)]
            values = [cells[position] for position in order]
        else:
            batch = [rows[position] for position in order]
            values = [_normalize(value) for value in compiler.compile(expr)(kctx, batch)]
        rank = dict(zip(order, map(order_key, values)))
        order.sort(key=rank.__getitem__, reverse=not ascending)

    table_rows = [tuple(column[position] for column in cell_columns) for position in order]
    if select.offset:
        table_rows = table_rows[select.offset:]
    if select.limit is not None:
        table_rows = table_rows[: select.limit]
    return Table(columns, table_rows)


def _cells(
    omega: BindingTable, expr: ast.Expr, kctx: KernelContext, compiler: ExpressionCompiler
) -> List[Any]:
    """The table cells of *expr* on every row of *omega*: a plain,
    fully-bound variable reads its vector; anything else (an unbound
    variable too, with its error behaviour) is one kernel pass."""
    vector = omega.column_values(expr.name) if isinstance(expr, ast.Var) else None
    if vector is None or any(value is ABSENT for value in vector):
        vector = compiler.compile(expr)(kctx, list(range(len(omega))))
    return [_normalize(value) for value in vector]
