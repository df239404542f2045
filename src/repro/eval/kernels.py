"""Vectorized expression kernels over columnar binding tables.

:class:`ExpressionCompiler` compiles an AST expression once into a
*kernel* — a callable ``(KernelContext, units) -> values`` evaluating the
expression for a whole batch of rows (or, in grouped form, a batch of
GROUP BY groups) directly against a :class:`~repro.algebra.binding.
BindingTable`'s column vectors. This replaces the per-row recursive
dispatch of :class:`~repro.eval.expressions.ExpressionEvaluator` (the
interpreted oracle, which the differential oracle of
:mod:`repro.fuzz.oracle` evaluates WHERE with) on the hot paths: WHERE
filters, SELECT projections and GROUP BY aggregation.

Semantics contract — the kernels must be *observationally identical* to
the interpreted oracle (``tests/property/test_prop_expr_oracle.py``
compares them on the same rows and groups):

* ``ABSENT`` mask propagation: an unbound variable evaluates to the
  empty value set, exactly as ``_eval_Var`` does for a partial binding.
* Short-circuit reachability: ``AND``/``OR``/``CASE`` evaluate their
  lazy operands only on the rows the oracle would reach, so an
  expression that raises (arithmetic over a string, say) raises in
  precisely the same row/operand positions under both evaluators.
* Shared scalar semantics: comparisons go through ``gcore_equals`` /
  ``gcore_compare`` (bool/number separation included), arithmetic and
  builtins reuse the oracle's own implementations element-wise, and
  aggregates feed column slices into the same ``collect_values`` /
  ``aggregate_values`` core the oracle uses — except that a comparison
  with an :func:`is_constant` operand (evaluated once per batch, in the
  oracle's operand order) decides :func:`_plain` values inline.

Subexpressions with no columnar form (EXISTS subqueries, pattern
predicates) fall back to the oracle row-by-row inside an otherwise
compiled kernel, so every expression compiles.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..algebra.aggregates import (
    AGGREGATE_NAMES,
    aggregate_values,
    collect_values,
    is_aggregate_name,
)
from ..algebra.binding import ABSENT, EMPTY_BINDING, BindingTable
from ..algebra.grouping import presence_mask
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
from ..paths.walk import Walk
from .expressions import ExpressionEvaluator, expr_has_aggregate

__all__ = [
    "ExpressionCompiler",
    "GroupSpec",
    "Kernel",
    "KernelContext",
    "PatternTest",
    "compiled_filter_rows",
    "is_constant",
    "property_value_ok",
]

#: A compiled kernel: evaluates one expression for a batch of units.
#: Scalar kernels take row indices; grouped kernels take GroupSpecs.
Kernel = Callable[["KernelContext", Sequence[Any]], List[Any]]

_MISS = object()

def is_constant(expr: ast.Expr) -> bool:
    """A literal (``-2`` too), a parameter, or a list of those: one value per query."""
    if isinstance(expr, ast.ListLiteral):
        return all(is_constant(item) for item in expr.items)
    if isinstance(expr, ast.Unary) and expr.op != "not":
        return isinstance(expr.operand, ast.Literal)
    return isinstance(expr, (ast.Literal, ast.Param))


def _plain(value: Any) -> Any:
    """*value* (or its one member) when it is an exact ``str``, ``int`` or
    non-NaN ``float`` — where Python's ``==`` and ordering agree with
    ``gcore_equals`` / ``gcore_compare`` — else ``_MISS``."""
    if type(value) is frozenset and len(value) == 1:
        (value,) = value
    kind = type(value)
    return value if kind is str or kind is int or (kind is float and value == value) else _MISS


def property_value_ok(actual: Any, expected: Any) -> bool:
    """One ``{k = v}`` test against an already-evaluated expected value:
    G-CORE equality, or membership under G-CORE value equality (Python's
    ``in`` first, as a cheap filter: it also admits ``TRUE`` for ``1``)."""
    return gcore_equals(actual, expected) or (
        not isinstance(expected, frozenset)
        and expected in actual
        and gcore_in(expected, actual)
    )


@dataclass(frozen=True)
class PatternTest(ast.Expr):
    """A pattern's ``{key = value}`` test on *var*, lowered to a conjunct
    of its block: *var*'s *key* property in ``graphs[slot]``, the graph
    its pattern is ON, passes :func:`property_value_ok` against *value*."""

    var: str
    key: str
    value: ast.Expr
    slot: int


class GroupSpec(NamedTuple):
    """One GROUP BY equivalence class: representative row + members."""

    representative: int
    indices: Sequence[int]


class KernelContext:
    """Per-table evaluation state shared by all kernels of one batch.

    Memoizes label lookups per graph object — the same object typically
    appears in many rows of a binding column, so one catalog lookup
    serves the whole batch.
    """

    __slots__ = (
        "table",
        "ctx",
        "maximal_domain",
        "_label_cache",
        "_maximal_mask",
    )

    def __init__(self, table: BindingTable, ctx, maximal_domain=None) -> None:
        self.table = table
        self.ctx = ctx
        self.maximal_domain = maximal_domain
        self._label_cache: Dict[Any, Any] = {}
        self._maximal_mask: Optional[List[bool]] = None

    def lookup_labels(self, obj: Any) -> Any:
        cached = self._label_cache.get(obj, _MISS)
        if cached is _MISS:
            cached = self.ctx.lookup_labels(obj)
            self._label_cache[obj] = cached
        return cached

    def maximal_mask(self) -> List[bool]:
        """Row mask for the COUNT(*) maximality rule (computed once)."""
        if self._maximal_mask is None:
            self._maximal_mask = presence_mask(self.table, self.maximal_domain or ())
        return self._maximal_mask


def compiled_filter_rows(
    table: BindingTable,
    ctx,
    conjuncts: Sequence[ast.Expr],
    compiler: Optional["ExpressionCompiler"] = None,
) -> List[int]:
    """Surviving row indices of *table* under a compiled WHERE conjunction.

    Conjuncts run in order over a narrowing index set — the batched
    mirror of the oracle's short-circuiting AND, so a row never reaches
    a conjunct the oracle would have short-circuited away (error
    semantics included). Pass *compiler* to reuse kernel caches.
    """
    if compiler is None:
        compiler = ExpressionCompiler(ctx)
    rows = list(range(len(table)))
    kctx = KernelContext(table, ctx)
    for conjunct in conjuncts:
        if not rows:
            break
        values = compiler.compile(conjunct)(kctx, rows)
        rows = [i for i, value in zip(rows, values) if value is True or truthy(value)]
    return rows


class ExpressionCompiler:
    """Compiles AST expressions to columnar kernels for one context, and
    a MATCH block's :class:`PatternTest` conjuncts for its *graphs*."""

    def __init__(self, ctx, graphs: Sequence[Any] = ()) -> None:
        self._ctx = ctx
        self.graphs = graphs
        self._oracle = ExpressionEvaluator(ctx)
        #: id(expr) -> (expr, kernel); holding expr keeps its id from
        #: being reused by another expression while the entry lives
        self._cache: Dict[int, Tuple[ast.Expr, Kernel]] = {}

    def constant(self, expr: ast.Expr) -> Any:
        """The value of an :func:`is_constant` *expr*."""
        return self._oracle.evaluate(expr, EMPTY_BINDING)

    # ------------------------------------------------------------------
    # Scalar (per-row) compilation
    # ------------------------------------------------------------------
    def compile(self, expr: ast.Expr) -> Kernel:
        """The per-row kernel of *expr* (units are row indices)."""
        entry = self._cache.get(id(expr))
        if entry is None:
            entry = self._cache[id(expr)] = (expr, self._compile(expr))
        return entry[1]

    def _compile(self, expr: ast.Expr) -> Kernel:
        if isinstance(expr, ast.Literal):
            value = expr.value
            return lambda kctx, rows: [value] * len(rows)
        if isinstance(expr, ast.Param):
            return self._param_kernel(expr.name)
        if isinstance(expr, ast.Var):
            return self._var_kernel(expr.name)
        if isinstance(expr, ast.Prop):
            return self._prop_kernel(self.compile(expr.base), expr.key)
        if isinstance(expr, ast.LabelTest):
            return self._label_test_kernel(expr.var, expr.labels)
        if isinstance(expr, ast.Unary):
            return self._unary_kernel(expr.op, self.compile(expr.operand))
        if isinstance(expr, ast.Binary):
            return self._binary_kernel(expr, self.compile(expr.left), self.compile(expr.right))
        if isinstance(expr, ast.CaseExpr):
            whens = [
                (self.compile(cond), self.compile(value))
                for cond, value in expr.whens
            ]
            default = self.compile(expr.default) if expr.default is not None else None
            return self._case_kernel(whens, default)
        if isinstance(expr, ast.Index):
            return self._index_kernel(self.compile(expr.base), self.compile(expr.index))
        if isinstance(expr, ast.ListLiteral):
            return self._list_kernel([self.compile(i) for i in expr.items])
        if isinstance(expr, ast.FuncCall):
            if expr.star or is_aggregate_name(expr.name):
                # Aggregates are illegal in per-row position; raise the
                # oracle's message (only when a row actually reaches the
                # kernel).
                return self._raising_kernel(
                    f"aggregate {expr.name}(...) outside a grouping context"
                )
            return self._call_kernel(
                expr.name.lower(), [self.compile(a) for a in expr.args]
            )
        if isinstance(expr, PatternTest):
            return self._pattern_test_kernel(expr)
        return self._fallback(expr)

    # ------------------------------------------------------------------
    # Grouped (per-GROUP-BY-class) compilation
    # ------------------------------------------------------------------
    def compile_grouped(self, expr: ast.Expr) -> Kernel:
        """The per-group kernel of *expr* (units are GroupSpecs).

        Aggregate-free subtrees evaluate on each group's representative
        row (the oracle's rule); aggregate calls slice a once-evaluated
        argument column per group and run the shared aggregation core.
        """
        if not expr_has_aggregate(expr):
            scalar = self.compile(expr)

            def representative(kctx, groups, scalar=scalar):
                return scalar(kctx, [g.representative for g in groups])

            return representative
        if isinstance(expr, ast.FuncCall) and (
            expr.star or is_aggregate_name(expr.name)
        ):
            return self._aggregate_kernel(expr)
        grouped = self.compile_grouped
        if isinstance(expr, ast.Unary):
            return self._unary_kernel(expr.op, grouped(expr.operand))
        if isinstance(expr, ast.Binary):
            return self._binary_kernel(expr, grouped(expr.left), grouped(expr.right))
        if isinstance(expr, ast.CaseExpr):
            whens = [(grouped(cond), grouped(value)) for cond, value in expr.whens]
            default = grouped(expr.default) if expr.default is not None else None
            return self._case_kernel(whens, default)
        if isinstance(expr, ast.Index):
            return self._index_kernel(grouped(expr.base), grouped(expr.index))
        if isinstance(expr, ast.ListLiteral):
            return self._list_kernel([grouped(i) for i in expr.items])
        if isinstance(expr, ast.Prop):
            return self._prop_kernel(grouped(expr.base), expr.key)
        # expr_has_aggregate holds for no other node: a non-aggregate call
        # with an aggregate argument is what is left.
        assert isinstance(expr, ast.FuncCall), expr
        return self._call_kernel(expr.name.lower(), [grouped(a) for a in expr.args])

    def _aggregate_kernel(self, expr: ast.FuncCall) -> Kernel:
        name = expr.name.lower()
        if name not in AGGREGATE_NAMES:
            # FOO(*) parses; the oracle rejects it group by group.
            return self._raising_kernel(f"unknown aggregate: {name}")
        if name == "count" and expr.star:

            def count_star(kctx, groups):
                if kctx.maximal_domain is None:
                    return [len(g.indices) for g in groups]
                mask = kctx.maximal_mask()
                return [sum(1 for i in g.indices if mask[i]) for g in groups]

            return count_star
        if not expr.args:
            # SUM(*) and friends land here too, exactly like the oracle.
            return self._raising_kernel(f"{name.upper()} requires an argument")
        argument = self.compile(expr.args[0])
        distinct = expr.distinct

        def aggregate(kctx, groups, argument=argument):
            # One argument evaluation over the concatenated group
            # members (group order = the oracle's evaluation order),
            # then per-group slices into the shared aggregation core.
            flat: List[int] = []
            extents: List[int] = []
            for group in groups:
                flat.extend(group.indices)
                extents.append(len(group.indices))
            values = argument(kctx, flat)
            out: List[Any] = []
            start = 0
            for count in extents:
                members = collect_values(
                    values[start:start + count], distinct=distinct
                )
                out.append(aggregate_values(name, members))
                start += count
            return out

        return aggregate

    @staticmethod
    def _raising_kernel(message: str) -> Kernel:
        """A kernel that raises *message* — but only for non-empty input,
        matching per-unit oracle evaluation over an empty batch."""

        def kernel(kctx, units, message=message):
            if units:
                raise EvaluationError(message)
            return []

        return kernel

    # ------------------------------------------------------------------
    # Leaf kernels
    # ------------------------------------------------------------------
    @staticmethod
    def _param_kernel(name: str) -> Kernel:
        def kernel(kctx, rows):
            if not rows:
                return []
            params = kctx.ctx.params
            if name not in params:
                raise EvaluationError(f"missing query parameter: ${name}")
            value = params[name]
            if isinstance(value, (set, list)):
                value = frozenset(value)
            return [value] * len(rows)

        return kernel

    @staticmethod
    def _var_kernel(name: str) -> Kernel:
        def kernel(kctx, rows):
            vector = kctx.table.column_values(name)
            if vector is None:
                return [EMPTY_SET] * len(rows)
            return [EMPTY_SET if vector[i] is ABSENT else vector[i] for i in rows]

        return kernel

    @staticmethod
    def _label_test_kernel(var: str, labels) -> Kernel:
        def kernel(kctx, rows):
            vector = kctx.table.column_values(var)
            if vector is None:
                return [False] * len(rows)
            lookup = kctx.lookup_labels
            out = []
            for i in rows:
                value = vector[i]
                if value is ABSENT or isinstance(value, Walk):
                    out.append(False)
                else:
                    carried = lookup(value)
                    out.append(any(label in carried for label in labels))
            return out

        return kernel

    # ------------------------------------------------------------------
    # Structural kernels (shared by the scalar and grouped compilers)
    # ------------------------------------------------------------------
    @staticmethod
    def _prop_kernel(base: Kernel, key: str) -> Kernel:
        def kernel(kctx, rows):
            return kctx.ctx.property_column(base(kctx, rows), key)

        return kernel

    def _pattern_test_kernel(self, test: PatternTest) -> Kernel:
        objects, value, key = self._var_kernel(test.var), self.compile(test.value), test.key
        actual = self.graphs[test.slot].property

        def kernel(kctx: KernelContext, rows: Sequence[Any]) -> List[Any]:
            pairs = zip(objects(kctx, rows), value(kctx, rows))
            return [property_value_ok(actual(obj, key), expected) for obj, expected in pairs]

        return kernel

    @staticmethod
    def _unary_kernel(op: str, operand: Kernel) -> Kernel:
        if op == "not":

            def negate(kctx, rows):
                return [not truthy(v) for v in operand(kctx, rows)]

            return negate

        def kernel(kctx, rows):
            out = []
            for value in operand(kctx, rows):
                value = as_scalar(value)
                if isinstance(value, frozenset):
                    out.append(EMPTY_SET)
                    continue
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise EvaluationError(f"unary {op} over non-number: {value!r}")
                out.append(-value if op == "-" else +value)
            return out

        return kernel

    def _binary_kernel(self, expr: ast.Binary, left: Kernel, right: Kernel) -> Kernel:
        op = expr.op
        if op == "and":

            def conjunction(kctx, rows):
                mask = [truthy(v) for v in left(kctx, rows)]
                sub = [u for u, m in zip(rows, mask) if m]
                rvals = iter(right(kctx, sub) if sub else ())
                return [m and truthy(next(rvals)) for m in mask]

            return conjunction
        if op == "or":

            def disjunction(kctx, rows):
                mask = [truthy(v) for v in left(kctx, rows)]
                sub = [u for u, m in zip(rows, mask) if not m]
                rvals = iter(right(kctx, sub) if sub else ())
                return [m or truthy(next(rvals)) for m in mask]

            return disjunction
        if op == "xor":

            def exclusive(kctx, rows):
                lvals = left(kctx, rows)
                rvals = right(kctx, rows)
                return [truthy(a) != truthy(b) for a, b in zip(lvals, rvals)]

            return exclusive
        element = _BINARY_ELEMENTWISE.get(op)
        if element is None:
            raise EvaluationError(f"unknown binary operator: {op}")

        def kernel(kctx, rows, element=element):
            lvals = left(kctx, rows)
            rvals = right(kctx, rows)
            return [element(a, b) for a, b in zip(lvals, rvals)]

        inline = _INLINE.get(op)
        if inline is None or not (is_constant(expr.left) or is_constant(expr.right)):
            return kernel
        on_left = not is_constant(expr.right)
        compare, unequal = inline[on_left], op == "<>"

        def against_constant(kctx, rows, element=element):
            # The oracle's order; the constant raises iff the batch is non-empty.
            head = rows[:1]
            lvals = left(kctx, head if on_left else rows)
            rvals = right(kctx, rows if on_left else head)
            if not rows:
                return []
            fixed, values = (lvals[0], rvals) if on_left else (rvals[0], lvals)
            scalar = _plain(fixed)
            textual = type(scalar) is str
            out = []
            for value in values:
                plain = _plain(value)
                if plain is _MISS and scalar is not _MISS and type(value) is frozenset \
                        and len(value) != 1 and _MISS not in map(_plain, value):
                    # distinct plain members never normalize alike: no set
                    # of 0 or 2+ of them is equal to, or ordered with, a scalar
                    out.append(unequal)
                elif plain is _MISS or scalar is _MISS:
                    out.append(element(fixed, value) if on_left else element(value, fixed))
                elif (type(plain) is str) is textual:
                    out.append(compare(plain, scalar))
                else:  # a string against a number
                    out.append(unequal)
            return out

        return against_constant

    @staticmethod
    def _case_kernel(whens, default: Optional[Kernel]) -> Kernel:
        def kernel(kctx, rows):
            out = [EMPTY_SET] * len(rows)
            remaining = list(range(len(rows)))
            for condition, value in whens:
                if not remaining:
                    break
                conds = condition(kctx, [rows[p] for p in remaining])
                matched = [p for p, c in zip(remaining, conds) if truthy(c)]
                if matched:
                    values = value(kctx, [rows[p] for p in matched])
                    for p, v in zip(matched, values):
                        out[p] = v
                remaining = [p for p, c in zip(remaining, conds) if not truthy(c)]
            if default is not None and remaining:
                values = default(kctx, [rows[p] for p in remaining])
                for p, v in zip(remaining, values):
                    out[p] = v
            return out

        return kernel

    @staticmethod
    def _index_kernel(base: Kernel, index: Kernel) -> Kernel:
        def kernel(kctx, rows):
            bases = base(kctx, rows)
            indices = index(kctx, rows)
            out = []
            for value, position in zip(bases, indices):
                position = as_scalar(position)
                if not isinstance(position, int) or isinstance(position, bool):
                    raise EvaluationError(
                        f"list index must be an integer: {position!r}"
                    )
                if isinstance(value, tuple) and 0 <= position < len(value):
                    out.append(value[position])
                else:
                    out.append(EMPTY_SET)
            return out

        return kernel

    @staticmethod
    def _list_kernel(items: List[Kernel]) -> Kernel:
        def kernel(kctx, rows):
            if not items:
                return [()] * len(rows)
            vectors = [item(kctx, rows) for item in items]
            return [tuple(cells) for cells in zip(*vectors)]

        return kernel

    def _call_kernel(self, name: str, args: List[Kernel]) -> Kernel:
        call = self._oracle.call_builtin

        def kernel(kctx, rows):
            if not args:
                return [call(name, ()) for _ in rows]
            vectors = [arg(kctx, rows) for arg in args]
            return [call(name, cells) for cells in zip(*vectors)]

        return kernel

    def _fallback(self, expr: ast.Expr) -> Kernel:
        """Row-at-a-time oracle evaluation inside a compiled kernel.

        Used for node types with no columnar form (EXISTS subqueries,
        pattern predicates): semantics and error behaviour are the
        oracle's by construction.
        """
        oracle = self._oracle

        def kernel(kctx, rows):
            table_rows = kctx.table.rows
            return [oracle.evaluate(expr, table_rows[i]) for i in rows]

        return kernel


def _arith(op: str) -> Callable[[Any, Any], Any]:
    arithmetic = ExpressionEvaluator._arithmetic
    return lambda a, b: arithmetic(op, a, b)


_BINARY_ELEMENTWISE: Dict[str, Callable[[Any, Any], Any]] = {
    "=": gcore_equals,
    "<>": lambda a, b: not gcore_equals(a, b),
    "<": lambda a, b: gcore_compare("<", a, b),
    "<=": lambda a, b: gcore_compare("<=", a, b),
    ">": lambda a, b: gcore_compare(">", a, b),
    ">=": lambda a, b: gcore_compare(">=", a, b),
    "in": gcore_in,
    "subset": gcore_subset,
    "+": _arith("+"),
    "-": _arith("-"),
    "*": _arith("*"),
    "/": _arith("/"),
    "%": _arith("%"),
}

#: ``op -> (v op c, c op v)``: a plain value ``v`` against a plain constant ``c``.
_INLINE = {
    "=": (operator.eq, operator.eq),
    "<>": (operator.ne, operator.ne),
    "<": (operator.lt, operator.gt),
    "<=": (operator.le, operator.ge),
    ">": (operator.gt, operator.lt),
    ">=": (operator.ge, operator.le),
}
