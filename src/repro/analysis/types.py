"""Pass 2 — expression type inference over the value lattice.

A conservative abstract interpretation of expressions against the value
semantics of :mod:`repro.model.values`: every expression is assigned a
type from the small lattice ``bool | num | str | date | list | node |
edge | path | None`` where ``None`` is "unknown" (property reads and
parameters are untyped without a schema). The pass only speaks when a
*known* type makes a construct suspicious, so unknown types never
produce noise:

* ``GC204 unbound-variable`` — a referenced variable no pattern binds
  (the runtime silently evaluates it to the empty value set);
* ``GC205 type-clash`` — cross-type comparison or arithmetic
  (``TRUE < 2`` is *false*, never an error, under Section 3 semantics —
  almost certainly not what the author meant);
* ``GC206 non-boolean-where`` — a WHERE/WHEN condition whose type is
  known and not boolean (``truthy`` maps it to False: empty result);
* ``GC207 aggregate-misuse`` — an aggregate outside a grouping context
  or nested inside another aggregate;
* ``GC208 builtin-arity`` — a builtin called with the wrong number of
  arguments (:func:`~repro.eval.expressions.arity_error`, the rule
  ``engine.prepare`` raises on);
* ``GC202 all-paths-projection`` — an ALL-paths variable referenced in
  WHERE (mirrors the runtime :class:`~repro.errors.SemanticError`).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..algebra.aggregates import AGGREGATE_NAMES
from ..eval.expressions import arity_error
from ..lang import ast
from ..model.values import Date
from .scopes import Scope, collect_chain_sorts

if TYPE_CHECKING:  # pragma: no cover
    from .analyzer import Analyzer

__all__ = ["infer_type", "check_condition"]

#: Built-in (non-aggregate) function result types; None = depends on args.
_BUILTIN_TYPES = {
    "nodes": "list",
    "edges": "list",
    "labels": "list",
    "size": "num",
    "length": "num",
    "cost": "num",
    "id": "num",
    "tostring": "str",
    "tointeger": "num",
    "tofloat": "num",
    "abs": "num",
    "coalesce": None,
}

#: Builtins that only make sense over a path argument.
_PATH_FUNCS = frozenset({"nodes", "edges", "length", "cost"})

#: Types with a defined order relation among themselves.
_ORDERED = frozenset({"num", "str", "date"})

_ARITH_OPS = frozenset({"+", "-", "*", "/", "%"})
_ORDER_OPS = frozenset({"<", "<=", ">", ">="})


def _literal_type(value: object) -> Optional[str]:
    # bool is a subclass of int: test it first.
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "num"
    if isinstance(value, str):
        return "str"
    if isinstance(value, Date):
        return "date"
    return None


def infer_type(
    ctx: "Analyzer",
    scope: Scope,
    expr: Optional[ast.Expr],
    *,
    allow_aggregates: bool = False,
    in_aggregate: bool = False,
    in_where: bool = False,
) -> Optional[str]:
    """The lattice type of *expr*, emitting diagnostics along the way.

    ``allow_aggregates`` marks grouping contexts (SELECT items, ORDER
    BY, CONSTRUCT property assignments); ``in_aggregate`` marks being
    inside an aggregate call already (nesting is GC207); ``in_where``
    marks WHERE/WHEN subtrees, where ALL-paths variables are illegal.
    """
    if expr is None:
        return None

    if isinstance(expr, ast.Literal):
        return _literal_type(expr.value)

    if isinstance(expr, ast.Param):
        return None

    if isinstance(expr, ast.ListLiteral):
        for item in expr.items:
            infer_type(
                ctx, scope, item,
                allow_aggregates=allow_aggregates,
                in_aggregate=in_aggregate, in_where=in_where,
            )
        return "list"

    if isinstance(expr, ast.Var):
        sort = scope.sort_of(expr.name)
        if sort is None:
            if not scope.is_open():
                ctx.emit(
                    "GC204",
                    f"variable {expr.name!r} is not bound by any pattern",
                    anchor=expr.name,
                    hint="bind it in MATCH, or check the spelling",
                )
            return None
        if in_where and scope.is_all_paths(expr.name):
            ctx.emit(
                "GC202",
                f"ALL-paths variable {expr.name!r} may only be used for "
                f"graph projection",
                anchor=expr.name,
                hint="use a SHORTEST path or move the use into CONSTRUCT",
            )
        if sort == "value":
            return None
        return sort  # node | edge | path

    if isinstance(expr, ast.Prop):
        base = infer_type(
            ctx, scope, expr.base,
            allow_aggregates=allow_aggregates,
            in_aggregate=in_aggregate, in_where=in_where,
        )
        if base in ("bool", "num", "str", "date", "list"):
            ctx.emit(
                "GC205",
                f"property access .{expr.key} on a {base} value",
                anchor=expr.key,
            )
        ctx.note_property(scope, expr)
        return None

    if isinstance(expr, ast.LabelTest):
        if scope.sort_of(expr.var) is None:
            if not scope.is_open():
                ctx.emit(
                    "GC204",
                    f"variable {expr.var!r} is not bound by any pattern",
                    anchor=expr.var,
                    hint="bind it in MATCH, or check the spelling",
                )
        else:
            ctx.note_label_test(scope, expr)
        return "bool"

    if isinstance(expr, ast.Unary):
        operand = infer_type(
            ctx, scope, expr.operand,
            allow_aggregates=allow_aggregates,
            in_aggregate=in_aggregate, in_where=in_where,
        )
        if expr.op == "not":
            if operand is not None and operand != "bool":
                ctx.emit(
                    "GC205",
                    f"NOT applied to a {operand} operand "
                    f"(only TRUE is truthy; this is constantly false)",
                )
            return "bool"
        # unary +/-
        if operand is not None and operand != "num":
            ctx.emit(
                "GC205",
                f"unary {expr.op!r} applied to a {operand} operand",
            )
        return "num"

    if isinstance(expr, ast.Binary):
        return _infer_binary(
            ctx, scope, expr,
            allow_aggregates=allow_aggregates,
            in_aggregate=in_aggregate, in_where=in_where,
        )

    if isinstance(expr, ast.FuncCall):
        return _infer_call(
            ctx, scope, expr,
            allow_aggregates=allow_aggregates,
            in_aggregate=in_aggregate, in_where=in_where,
        )

    if isinstance(expr, ast.CaseExpr):
        branch_types = set()
        for condition, value in expr.whens:
            check_condition(
                ctx, scope, condition, clause="CASE WHEN",
                allow_aggregates=allow_aggregates, in_where=in_where,
            )
            branch_types.add(infer_type(
                ctx, scope, value,
                allow_aggregates=allow_aggregates,
                in_aggregate=in_aggregate, in_where=in_where,
            ))
        if expr.default is not None:
            branch_types.add(infer_type(
                ctx, scope, expr.default,
                allow_aggregates=allow_aggregates,
                in_aggregate=in_aggregate, in_where=in_where,
            ))
        if len(branch_types) == 1:
            return branch_types.pop()
        return None

    if isinstance(expr, ast.Index):
        base = infer_type(
            ctx, scope, expr.base,
            allow_aggregates=allow_aggregates,
            in_aggregate=in_aggregate, in_where=in_where,
        )
        index = infer_type(
            ctx, scope, expr.index,
            allow_aggregates=allow_aggregates,
            in_aggregate=in_aggregate, in_where=in_where,
        )
        if base is not None and base != "list":
            ctx.emit("GC205", f"indexing into a {base} value")
        if index is not None and index != "num":
            ctx.emit("GC205", f"list index of type {index}")
        return None

    if isinstance(expr, ast.ExistsQuery):
        ctx.analyze_subquery(expr.query, scope)
        return "bool"

    if isinstance(expr, ast.ExistsPattern):
        # The pattern shares variables with the enclosing scope; fold it
        # into a child scope so sort clashes against outer bindings are
        # caught without leaking new bindings outward.
        collect_chain_sorts(ctx, Scope(scope), expr.chain)
        ctx.note_chain(scope, expr.chain)
        return "bool"

    return None


def _infer_binary(
    ctx: "Analyzer", scope: Scope, expr: ast.Binary, *,
    allow_aggregates: bool, in_aggregate: bool, in_where: bool,
) -> Optional[str]:
    left = infer_type(
        ctx, scope, expr.left,
        allow_aggregates=allow_aggregates,
        in_aggregate=in_aggregate, in_where=in_where,
    )
    right = infer_type(
        ctx, scope, expr.right,
        allow_aggregates=allow_aggregates,
        in_aggregate=in_aggregate, in_where=in_where,
    )
    op = expr.op

    if op in ("and", "or"):
        for side, side_type in (("left", left), ("right", right)):
            if side_type is not None and side_type != "bool":
                ctx.emit(
                    "GC205",
                    f"{side} operand of {op.upper()} has type {side_type} "
                    f"(only TRUE is truthy; this operand is constantly "
                    f"false)",
                )
        return "bool"

    if op in ("=", "<>"):
        if left is not None and right is not None and left != right:
            ctx.emit(
                "GC205",
                f"comparison of {left} with {right} is always "
                f"{'false' if op == '=' else 'true'} "
                f"(cross-type equality never holds)",
            )
        return "bool"

    if op in _ORDER_OPS:
        clash = None
        if left is not None and right is not None and left != right:
            clash = f"ordered comparison of {left} with {right}"
        elif "bool" in (left, right):
            # TRUE < 2 and TRUE < FALSE alike: booleans have no order.
            clash = "ordered comparison involving a bool operand"
        elif (left is not None and left not in _ORDERED) or (
            right is not None and right not in _ORDERED
        ):
            clash = (
                f"ordered comparison over "
                f"{left or right} values (no order defined)"
            )
        if clash:
            ctx.emit(
                "GC205",
                f"{clash} is always false under Section 3 semantics",
            )
        return "bool"

    if op == "in":
        if right is not None and right != "list":
            ctx.emit("GC205", f"IN over a {right} value (expected a list)")
        return "bool"

    if op == "subset":
        return "bool"

    if op in _ARITH_OPS:
        if op == "+" and left == "str" and right == "str":
            return "str"
        for side_type in (left, right):
            if side_type is not None and side_type != "num":
                ctx.emit(
                    "GC205",
                    f"arithmetic {op!r} over a {side_type} operand "
                    f"(raises at evaluation time)",
                )
        return "num"

    return None


def _infer_call(
    ctx: "Analyzer", scope: Scope, expr: ast.FuncCall, *,
    allow_aggregates: bool, in_aggregate: bool, in_where: bool,
) -> Optional[str]:
    name = expr.name.lower()

    if name in AGGREGATE_NAMES:
        if in_aggregate:
            ctx.emit(
                "GC207",
                f"aggregate {name}() nested inside another aggregate",
                anchor=expr.name,
            )
        elif not allow_aggregates:
            ctx.emit(
                "GC207",
                f"aggregate {name}() used outside a grouping context",
                anchor=expr.name,
                hint="aggregates belong in SELECT items, ORDER BY or "
                "CONSTRUCT property assignments, not WHERE/GROUP BY",
            )
        for arg in expr.args:
            infer_type(
                ctx, scope, arg,
                allow_aggregates=allow_aggregates,
                in_aggregate=True, in_where=in_where,
            )
        if name == "collect":
            return "list"
        if name in ("count", "sum", "avg"):
            return "num"
        return None  # min/max: the argument's type

    message = arity_error(expr)
    if message is not None:
        ctx.emit("GC208", message, anchor=expr.name)
    arg_types = [
        infer_type(
            ctx, scope, arg,
            allow_aggregates=allow_aggregates,
            in_aggregate=in_aggregate, in_where=in_where,
        )
        for arg in expr.args
    ]
    if name in _PATH_FUNCS and arg_types:
        arg_type = arg_types[0]
        if arg_type in ("node", "edge"):
            ctx.emit(
                "GC201",
                f"{name}() expects a path but its argument is "
                f"a {arg_type} variable",
                hint=f"apply {name}() to a stored path variable",
            )
    return _BUILTIN_TYPES.get(name)


def check_condition(
    ctx: "Analyzer",
    scope: Scope,
    expr: Optional[ast.Expr],
    *,
    clause: str = "WHERE",
    allow_aggregates: bool = False,
    in_where: bool = True,
) -> None:
    """Type-check a boolean position (WHERE / WHEN / CASE WHEN)."""
    if expr is None:
        return
    inferred = infer_type(
        ctx, scope, expr,
        allow_aggregates=allow_aggregates,
        in_where=in_where,
    )
    if inferred is not None and inferred != "bool":
        ctx.emit(
            "GC206",
            f"{clause} condition has type {inferred}, not boolean "
            f"(it never holds: only TRUE is truthy)",
            hint="compare the value explicitly, e.g. `expr = TRUE` "
            "or `expr > 0`",
        )
