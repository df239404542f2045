"""WHERE predicate pushdown for the columnar MATCH pipeline.

The formal semantics applies a block's WHERE condition to the joined
binding table *after* every pattern atom has run (Appendix A.2). Because
the condition is a conjunction of truthy-coerced conjuncts, any conjunct
can be applied as soon as all of its variables are bound — and a
conjunct over a *single* variable can filter candidate objects inside
``extend_columnar``'s hash-join probe, before rows materialize at all
(the same trick PR 2's const/dynamic property-test split plays for
pattern ``{k=v}`` tests). Such a conjunct of the shape ``x.key = value``
with a constant value is an **index lookup**: the atom first asks its
graph's per-key value index (:meth:`PathPropertyGraph.property_index`)
for the carriers of the value and runs the pushed conjuncts — one
compiled kernel over the candidate vector (:class:`CandidateProbe`) —
on those alone. The index only ever *proposes*: its keys follow Python
equality, a superset of both the WHERE ``=`` and the pattern-test
reading, and every proposal still passes through the G-CORE comparison.

Pushing is only sound when it cannot change observable behaviour, so a
conjunct qualifies only when it is *total* (provably never raises: no
arithmetic, no raising builtins, no missing parameters) **and** every
conjunct to its left is total too — otherwise early filtering could
suppress an error the oracle's left-to-right short-circuit evaluation
would have reached. Conjuncts that do not qualify (or whose variables
are never bound by this block's atoms) stay in the *residual* and are
applied at block end in their original order.

:class:`PushdownPlan` performs the conjunct analysis once per block
plan, and the planner reads :meth:`pushed_property_keys` to sharpen
cardinality estimates. :meth:`PushdownPlan.assign` maps an atom order
to what each atom applies — a pure function of that order, stored in
the block's :class:`~repro.eval.planner.BlockPlan` by
:func:`~repro.eval.planner.plan_block`, so execution and EXPLAIN both
read one assignment.
"""

from __future__ import annotations

from typing import (
    Any,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

from ..algebra.aggregates import is_aggregate_name
from ..algebra.binding import EMPTY_BINDING, BindingTable
from ..lang import ast
from ..model.graph import ObjectId, PathPropertyGraph
from ..model.values import as_value_set
from .context import EvalContext
from .expressions import ExpressionEvaluator, expr_variables
from .kernels import EXACT_FLOAT, ExpressionCompiler, compiled_filter_rows, is_constant

__all__ = [
    "Atom",
    "CandidateProbe",
    "PushdownPlan",
    "candidate_probes",
    "index_candidates",
    "split_conjuncts",
]


class Atom(Protocol):
    """What pushdown needs of a pattern atom (:mod:`repro.eval.match`)."""

    def binds(self) -> FrozenSet[str]: ...

    def probe_universe(self, var: str) -> Optional[str]: ...


_MISS = object()

#: Builtins that cannot raise when applied to arbitrary values (their
#: error cases coerce to the absent value instead). Everything else —
#: ``nodes``/``edges``/``length``/``cost`` and unknown names — raises on
#: the wrong input and keeps its conjunct on the residual path.
_TOTAL_UNARY_BUILTINS = frozenset(
    {"size", "labels", "id", "tostring", "tointeger", "tofloat", "abs"}
)


def split_conjuncts(expr: Optional[ast.Expr]) -> List[ast.Expr]:
    """Flatten a WHERE condition into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.Binary) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def _is_total(expr: Optional[ast.Expr], params: Collection[str]) -> bool:
    """Can evaluating *expr* ever raise? (Conservative syntactic check.)"""
    if expr is None:
        return True
    if isinstance(expr, (ast.Literal, ast.Var, ast.LabelTest)):
        return True
    if isinstance(expr, ast.Param):
        return expr.name in params
    if isinstance(expr, ast.Prop):
        return _is_total(expr.base, params)
    if isinstance(expr, ast.Unary):
        return expr.op == "not" and _is_total(expr.operand, params)
    if isinstance(expr, ast.Binary):
        if expr.op in (
            "and", "or", "xor",
            "=", "<>", "<", "<=", ">", ">=",
            "in", "subset",
        ):
            return _is_total(expr.left, params) and _is_total(expr.right, params)
        return False  # arithmetic raises on non-numbers / zero divisors
    if isinstance(expr, ast.CaseExpr):
        return all(
            _is_total(cond, params) and _is_total(value, params)
            for cond, value in expr.whens
        ) and _is_total(expr.default, params)
    if isinstance(expr, ast.ListLiteral):
        return all(_is_total(item, params) for item in expr.items)
    if isinstance(expr, ast.Index):
        # Raises unless the index is a literal non-bool integer.
        return (
            _is_total(expr.base, params)
            and isinstance(expr.index, ast.Literal)
            and isinstance(expr.index.value, int)
            and not isinstance(expr.index.value, bool)
        )
    if isinstance(expr, ast.FuncCall):
        if expr.star or is_aggregate_name(expr.name):
            return False
        name = expr.name.lower()
        if name == "coalesce":
            return all(_is_total(arg, params) for arg in expr.args)
        if name in _TOTAL_UNARY_BUILTINS and len(expr.args) == 1:
            return _is_total(expr.args[0], params)
        return False
    return False  # EXISTS subqueries/patterns: evaluate where the oracle does


def _index_lookup(expr: ast.Expr) -> Optional[Tuple[str, ast.Expr]]:
    """``(key, value)`` when *expr* is ``x.key = value`` (either operand
    order) with a constant value; None for every other conjunct."""
    if not (isinstance(expr, ast.Binary) and expr.op == "="):
        return None
    for prop, value in ((expr.left, expr.right), (expr.right, expr.left)):
        if (
            isinstance(prop, ast.Prop)
            and isinstance(prop.base, ast.Var)
            and is_constant(value)
        ):
            return prop.key, value
    return None


class _Conjunct(NamedTuple):
    """One pushable WHERE conjunct."""

    expr: ast.Expr
    variables: FrozenSet[str]
    #: ``(key, value expr)`` when the conjunct is an index lookup.
    lookup: Optional[Tuple[str, ast.Expr]]


def _index_scalar(expected: Any) -> Any:
    """The one scalar to ask a value index for *expected*, or ``_MISS``.

    Answerable are values that stand for exactly one scalar whose
    Python equality covers its G-CORE equality. Everything else steps
    aside to the filter path: the empty value (``= $p`` with an absent
    value matches objects *without* the key), multi-valued sets,
    non-literal content, NaN and numbers too large for exact ``float``
    comparison.
    """
    try:
        values = as_value_set(expected)
    except TypeError:
        return _MISS
    if len(values) != 1:
        return _MISS
    (scalar,) = values
    if (
        isinstance(scalar, (int, float))
        and not isinstance(scalar, bool)
        and not abs(scalar) < EXACT_FLOAT
    ):
        return _MISS
    return scalar


def index_candidates(
    graph: PathPropertyGraph, tests: Iterable[Tuple[str, Any]]
) -> Optional[Set[ObjectId]]:
    """The objects of *graph* that can pass every ``(key, expected)`` test.

    A superset of the objects whose ``key`` property equals *or
    contains* the expected value, read from the graph's value indexes;
    None when no test is answerable. Callers still apply the tests.
    """
    hits: Optional[Set[ObjectId]] = None
    for key, expected in tests:
        scalar = _index_scalar(expected)
        if scalar is _MISS:
            continue
        carriers = graph.property_index(key).get(scalar, ())
        hits = set(carriers) if hits is None else hits.intersection(carriers)
    return hits


class CandidateProbe:
    """The pushed conjuncts one atom applies to one variable's candidates."""

    def __init__(
        self,
        var: str,
        conjuncts: Sequence[_Conjunct],
        ctx: EvalContext,
        compiler: ExpressionCompiler,
        ev: ExpressionEvaluator,
    ) -> None:
        self._var = var
        self._ctx = ctx
        self._compiler = compiler
        self._exprs = [conjunct.expr for conjunct in conjuncts]
        # Constant and total (the conjunct was pushable): evaluated once.
        self._lookups = [
            (conjunct.lookup[0], ev.evaluate(conjunct.lookup[1], EMPTY_BINDING))
            for conjunct in conjuncts
            if conjunct.lookup is not None
        ]

    def narrow(
        self, graph: PathPropertyGraph, universe: FrozenSet[ObjectId]
    ) -> Optional[Set[ObjectId]]:
        """Index hits bounding the passing objects of *universe* (the
        node or edge set of *graph* the candidates come from), or None.

        The conjuncts read properties through the context's lookup
        chain, so *graph*'s index speaks for them only while that chain
        resolves every candidate to *graph* itself.
        """
        if not self._lookups or not self._ctx.property_reads_stay_in(
            graph, universe
        ):
            return None
        return index_candidates(graph, self._lookups)

    def keep(self, objects: List[ObjectId]) -> List[ObjectId]:
        """The *objects* (distinct) passing every conjunct, in order:
        one compiled kernel run over the candidate vector."""
        if not objects:
            return objects
        var = self._var
        table = BindingTable.from_columns(
            (var,), (var,), {var: objects}, len(objects), dedup=False
        )
        rows = compiled_filter_rows(
            table, self._ctx, self._exprs, self._compiler
        )
        if len(rows) == len(objects):
            return objects
        return [objects[i] for i in rows]


def candidate_probes(
    conjuncts: Sequence[_Conjunct],
    ctx: EvalContext,
    compiler: ExpressionCompiler,
    ev: ExpressionEvaluator,
) -> Dict[str, CandidateProbe]:
    """One :class:`CandidateProbe` per variable of a probe assignment
    (a plan step's ``probe`` conjuncts)."""
    grouped: Dict[str, List[_Conjunct]] = {}
    for conjunct in conjuncts:
        (var,) = tuple(conjunct.variables)
        grouped.setdefault(var, []).append(conjunct)
    return {
        var: CandidateProbe(var, group, ctx, compiler, ev)
        for var, group in grouped.items()
    }


#: What one atom applies: the conjuncts filtering its probe, then the
#: conjuncts filtering its output.
_Applied = Tuple[Tuple[_Conjunct, ...], Tuple[ast.Expr, ...]]


class PushdownPlan:
    """The conjunct analysis of one block's WHERE condition.

    *params* names the bound query parameters: a conjunct reading a
    missing one raises, so it is not total.
    """

    def __init__(self, where: Optional[ast.Expr], params: Collection[str]) -> None:
        conjuncts = split_conjuncts(where)
        # Everything from the first non-total conjunct on stays in source
        # order: pushing a later conjunct could hide an error this one
        # raises under short-circuiting.
        cut = next(
            (i for i, expr in enumerate(conjuncts) if not _is_total(expr, params)),
            len(conjuncts),
        )
        self.pushable: Tuple[_Conjunct, ...] = tuple(
            _Conjunct(expr, expr_variables(expr), _index_lookup(expr))
            for expr in conjuncts[:cut]
        )
        self._blocked: Tuple[ast.Expr, ...] = tuple(conjuncts[cut:])

    # ------------------------------------------------------------------
    def pushed_property_keys(self) -> Dict[str, Tuple[str, ...]]:
        """Property keys each variable's pushed conjuncts test.

        Feeds the planner's cardinality estimates: a pushed
        ``x.key = const``-style conjunct shrinks the atom binding ``x``
        just like a pattern property test would.
        """
        keys: Dict[str, List[str]] = {}

        def visit(node: Optional[ast.Expr], var: str) -> None:
            if isinstance(node, ast.Prop):
                if isinstance(node.base, ast.Var):
                    keys.setdefault(var, []).append(node.key)
                visit(node.base, var)
            elif isinstance(node, ast.Unary):
                visit(node.operand, var)
            elif isinstance(node, ast.Binary):
                visit(node.left, var)
                visit(node.right, var)
            elif isinstance(node, ast.FuncCall):
                for arg in node.args:
                    visit(arg, var)
            elif isinstance(node, ast.CaseExpr):
                for cond, value in node.whens:
                    visit(cond, var)
                    visit(value, var)
                visit(node.default, var)
            elif isinstance(node, ast.Index):
                visit(node.base, var)
            elif isinstance(node, ast.ListLiteral):
                for item in node.items:
                    visit(item, var)

        for conjunct in self.pushable:
            if len(conjunct.variables) != 1:
                continue
            (var,) = tuple(conjunct.variables)
            visit(conjunct.expr, var)
        return {var: tuple(found) for var, found in keys.items()}

    # ------------------------------------------------------------------
    def assign(
        self, atoms: Iterable[Atom]
    ) -> Tuple[List[_Applied], Tuple[ast.Expr, ...]]:
        """What each of *atoms*, in run order, applies of the WHERE: its
        probe conjuncts and its post-atom conjuncts; then the residual.

        A single-variable conjunct filters at the probe of the first atom
        that newly binds its variable and draws its candidates (a
        conjunct with a ``lookup`` picks them from the value index, the
        rest only filter); any other conjunct applies right after the
        atom that completes its variables. What no atom takes, and the
        non-total suffix, is the block-end residual, in source order.
        """
        free = list(self.pushable)
        bound: Set[str] = set()
        applied: List[_Applied] = []
        for atom in atoms:
            binds = atom.binds()
            probe: List[_Conjunct] = []
            post: List[ast.Expr] = []
            rest: List[_Conjunct] = []
            for conjunct in free:
                variables = conjunct.variables
                if (
                    len(variables) == 1
                    and not variables & bound
                    and atom.probe_universe(next(iter(variables))) is not None
                ):
                    probe.append(conjunct)
                elif variables <= bound | binds:
                    post.append(conjunct.expr)
                else:
                    rest.append(conjunct)
            bound |= binds
            free = rest
            applied.append((tuple(probe), tuple(post)))
        return applied, tuple(c.expr for c in free) + self._blocked
