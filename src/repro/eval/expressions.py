"""Expression evaluation — Appendix A.1 semantics.

Expressions evaluate over one binding (a row) and an
:class:`~repro.eval.context.EvalContext` that answers label/property
lookups. Values flow as:

* graph object identifiers (nodes/edges/paths) and
  :class:`~repro.paths.walk.Walk` values for computed paths,
* scalars (``bool``/``int``/``float``/``str``/``Date``),
* value sets (``frozenset``) — property lookups always produce sets;
  an *absent* property is the empty set (comparisons against it are
  false, SIZE can detect it — Section 3),
* tuples for list values (``nodes(p)``, ``collect(...)``).

Aggregates evaluate against a *group* of rows supplied by the caller
(CONSTRUCT grouping or SELECT grouping); referencing an aggregate without
a group is an error.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Optional, Sequence

from ..algebra.aggregates import evaluate_aggregate, is_aggregate_name
from ..algebra.binding import Binding, BindingTable
from ..errors import EvaluationError
from ..lang import ast
from ..model.values import (
    EMPTY_SET,
    as_scalar,
    gcore_compare,
    gcore_equals,
    gcore_in,
    gcore_subset,
    truthy,
)
from ..paths.walk import AllPathsHandle, Walk
from .context import EvalContext

__all__ = ["BUILTIN_ARITY", "ExpressionEvaluator", "expr_has_aggregate", "expr_variables"]

#: The argument count of each fixed-arity builtin of
#: :meth:`ExpressionEvaluator.call_builtin` (``coalesce`` takes any).
#: A statement is checked against it once, when it is prepared.
BUILTIN_ARITY = dict.fromkeys(
    ("nodes", "edges", "labels", "size", "length", "cost", "id",
     "tostring", "tointeger", "tofloat", "abs"),
    1,
)


def expr_has_aggregate(expr: Optional[ast.Expr]) -> bool:
    """True iff *expr* contains an aggregate function call."""
    return any(
        isinstance(node, ast.FuncCall)
        and (node.star or is_aggregate_name(node.name))
        for node in ast.walk(expr, ast.SUBQUERIES)
    )


def expr_variables(expr: Optional[ast.Expr]) -> FrozenSet[str]:
    """The free variables of an expression (patterns included).

    A pattern predicate contributes its element variables; an EXISTS
    query's correlation is resolved dynamically, so its variables are
    intentionally not considered free here.
    """
    names: set = set()
    for node in ast.walk(expr, ast.SUBQUERIES):
        if isinstance(node, ast.Var):
            names.add(node.name)
        elif isinstance(node, ast.LabelTest):
            names.add(node.var)
        elif isinstance(node, ast.ExistsPattern):
            names.update(e.var for e in node.chain.elements if e.var)
    return frozenset(names)


class ExpressionEvaluator:
    """Evaluates expressions over bindings in an evaluation context."""

    def __init__(self, context: EvalContext) -> None:
        self._ctx = context

    # ------------------------------------------------------------------
    def evaluate(
        self,
        expr: ast.Expr,
        row: Binding,
        group: Optional[BindingTable] = None,
        maximal_domain: Optional[FrozenSet[str]] = None,
    ) -> Any:
        """Evaluate *expr* for *row*.

        *group* supplies the rows an aggregate ranges over;
        *maximal_domain* feeds the COUNT(*) maximality rule.
        """
        method = getattr(self, f"_eval_{type(expr).__name__}", None)
        if method is None:
            raise EvaluationError(f"cannot evaluate expression {expr!r}")
        return method(expr, row, group, maximal_domain)

    def evaluate_predicate(self, expr: ast.Expr, row: Binding) -> bool:
        """Evaluate *expr* as a WHERE condition (coerced to a boolean)."""
        return truthy(self.evaluate(expr, row))

    # -- leaves ----------------------------------------------------------
    def _eval_Literal(self, expr, row, group, maxdom):
        return expr.value

    def _eval_ListLiteral(self, expr, row, group, maxdom):
        return tuple(self.evaluate(item, row, group, maxdom) for item in expr.items)

    def _eval_Param(self, expr, row, group, maxdom):
        if expr.name not in self._ctx.params:
            raise EvaluationError(f"missing query parameter: ${expr.name}")
        value = self._ctx.params[expr.name]
        if isinstance(value, (set, list)):
            return frozenset(value)
        return value

    def _eval_Var(self, expr, row, group, maxdom):
        if expr.name in row:
            return row[expr.name]
        return EMPTY_SET  # unbound (e.g. after a failed OPTIONAL): absent

    def _eval_Prop(self, expr, row, group, maxdom):
        base = self.evaluate(expr.base, row, group, maxdom)
        if isinstance(base, Walk):
            return EMPTY_SET  # computed paths carry no stored properties
        if isinstance(base, (frozenset, tuple)):
            return EMPTY_SET
        if base is None:
            return EMPTY_SET
        return self._ctx.lookup_property(base, expr.key)

    def _eval_LabelTest(self, expr, row, group, maxdom):
        if expr.var not in row:
            return False
        value = row[expr.var]
        if isinstance(value, Walk):
            return False
        labels = self._ctx.lookup_labels(value)
        return any(label in labels for label in expr.labels)

    # -- operators -------------------------------------------------------
    def _eval_Unary(self, expr, row, group, maxdom):
        if expr.op == "not":
            return not truthy(self.evaluate(expr.operand, row, group, maxdom))
        value = as_scalar(self.evaluate(expr.operand, row, group, maxdom))
        if isinstance(value, frozenset):
            return EMPTY_SET
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise EvaluationError(f"unary {expr.op} over non-number: {value!r}")
        return -value if expr.op == "-" else +value

    def _eval_Binary(self, expr, row, group, maxdom):
        op = expr.op
        if op == "and":
            return (
                truthy(self.evaluate(expr.left, row, group, maxdom))
                and truthy(self.evaluate(expr.right, row, group, maxdom))
            )
        if op == "or":
            return (
                truthy(self.evaluate(expr.left, row, group, maxdom))
                or truthy(self.evaluate(expr.right, row, group, maxdom))
            )
        if op == "xor":
            return truthy(self.evaluate(expr.left, row, group, maxdom)) != truthy(
                self.evaluate(expr.right, row, group, maxdom)
            )
        left = self.evaluate(expr.left, row, group, maxdom)
        right = self.evaluate(expr.right, row, group, maxdom)
        if op == "=":
            return gcore_equals(left, right)
        if op == "<>":
            return not gcore_equals(left, right)
        if op in ("<", "<=", ">", ">="):
            return gcore_compare(op, left, right)
        if op == "in":
            return gcore_in(left, right)
        if op == "subset":
            return gcore_subset(left, right)
        if op in ("+", "-", "*", "/", "%"):
            return self._arithmetic(op, left, right)
        raise EvaluationError(f"unknown binary operator: {op}")

    @staticmethod
    def _arithmetic(op: str, left: Any, right: Any) -> Any:
        left = as_scalar(left)
        right = as_scalar(right)
        if isinstance(left, frozenset) or isinstance(right, frozenset):
            return EMPTY_SET  # absent/multi-valued operand propagates
        if op == "+" and (isinstance(left, str) or isinstance(right, str)):
            if not (isinstance(left, str) and isinstance(right, str)):
                raise EvaluationError(
                    f"cannot concatenate {left!r} and {right!r}"
                )
            return left + right
        for value in (left, right):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise EvaluationError(
                    f"arithmetic over non-number: {value!r}"
                )
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise EvaluationError("division by zero")
            return left / right
        if op == "%":
            if right == 0:
                raise EvaluationError("modulo by zero")
            return left % right
        raise EvaluationError(f"unknown arithmetic operator: {op}")

    # -- calls -------------------------------------------------------------
    def _eval_FuncCall(self, expr, row, group, maxdom):
        name = expr.name.lower()
        if expr.star or is_aggregate_name(name):
            if group is None:
                raise EvaluationError(
                    f"aggregate {expr.name}(...) outside a grouping context"
                )
            argument = None
            if expr.args:
                arg_expr = expr.args[0]
                argument = lambda r: self.evaluate(arg_expr, r)  # noqa: E731
            return evaluate_aggregate(
                name,
                list(group),
                argument,
                star=expr.star,
                distinct=expr.distinct,
                maximal_domain=maxdom,
            )
        args = [self.evaluate(arg, row, group, maxdom) for arg in expr.args]
        return self.call_builtin(name, args)

    def call_builtin(self, name: str, args: Sequence[Any]) -> Any:
        """Dispatch a non-aggregate builtin over already-evaluated args.

        Public because the vectorized kernels (:mod:`repro.eval.kernels`)
        evaluate argument vectors themselves and reuse this dispatcher
        element-wise, keeping one implementation of builtin semantics.
        """
        if name == "nodes":
            return self._path_members(args, edges=False)
        if name == "edges":
            return self._path_members(args, edges=True)
        if name == "labels":
            (value,) = args
            if isinstance(value, Walk):
                return frozenset()
            return self._ctx.lookup_labels(value)
        if name == "size":
            (value,) = args
            if isinstance(value, (frozenset, tuple, str)):
                return len(value)
            if value is None:
                return 0
            return 1
        if name == "length":
            (value,) = args
            if isinstance(value, Walk):
                return value.length()
            graph = self._ctx.graph_of(value)
            if graph is not None and value in graph.paths:
                return graph.path_length(value)
            raise EvaluationError(f"LENGTH of a non-path value: {value!r}")
        if name == "cost":
            (value,) = args
            if isinstance(value, Walk):
                return value.cost
            raise EvaluationError("COST() applies to computed paths only")
        if name == "id":
            (value,) = args
            return value
        if name == "tostring":
            (value,) = args
            value = as_scalar(value)
            return str(value)
        if name == "tointeger":
            (value,) = args
            value = as_scalar(value)
            try:
                return int(value)
            except (TypeError, ValueError):
                return EMPTY_SET
        if name == "tofloat":
            (value,) = args
            value = as_scalar(value)
            try:
                return float(value)
            except (TypeError, ValueError):
                return EMPTY_SET
        if name == "coalesce":
            for value in args:
                if value is None or value == EMPTY_SET:
                    continue
                return value
            return EMPTY_SET
        if name == "abs":
            (value,) = args
            value = as_scalar(value)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return abs(value)
            return EMPTY_SET
        raise EvaluationError(f"unknown function: {name}")

    def _path_members(self, args: Sequence[Any], edges: bool) -> Any:
        (value,) = args
        if isinstance(value, Walk):
            return value.edges() if edges else value.nodes()
        if isinstance(value, AllPathsHandle):
            return value.edges if edges else value.nodes
        graph = self._ctx.graph_of(value)
        if graph is not None and value in graph.paths:
            return graph.path_edges(value) if edges else graph.path_nodes(value)
        raise EvaluationError(
            f"{'EDGES' if edges else 'NODES'} of a non-path value: {value!r}"
        )

    # -- control -------------------------------------------------------------
    def _eval_CaseExpr(self, expr, row, group, maxdom):
        for condition, result in expr.whens:
            if truthy(self.evaluate(condition, row, group, maxdom)):
                return self.evaluate(result, row, group, maxdom)
        if expr.default is not None:
            return self.evaluate(expr.default, row, group, maxdom)
        return EMPTY_SET

    def _eval_Index(self, expr, row, group, maxdom):
        base = self.evaluate(expr.base, row, group, maxdom)
        index = as_scalar(self.evaluate(expr.index, row, group, maxdom))
        if not isinstance(index, int) or isinstance(index, bool):
            raise EvaluationError(f"list index must be an integer: {index!r}")
        if isinstance(base, tuple):
            if 0 <= index < len(base):
                return base[index]
            return EMPTY_SET  # out of range: absent (G-CORE counts from 0)
        return EMPTY_SET

    # -- subqueries -------------------------------------------------------
    def _eval_ExistsQuery(self, expr, row, group, maxdom):
        from .query import evaluate_query  # local import: cycle

        result = evaluate_query(expr.query, self._ctx.child(), seed=row)
        from ..model.graph import PathPropertyGraph

        if isinstance(result, PathPropertyGraph):
            return not result.is_empty()
        return bool(result)

    def _eval_ExistsPattern(self, expr, row, group, maxdom):
        from .match import chain_matches  # local import: cycle

        return chain_matches(expr.chain, self._ctx, row)
