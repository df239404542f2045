"""Pattern-test and WHERE pushdown for the columnar MATCH pipeline.

A block's answer is the set of homomorphisms that satisfy every
condition of its patterns and its WHERE (Appendix A.2): each pattern
``{k = v}`` test is lowered to a :class:`~repro.eval.kernels.PatternTest`
conjunct, in element order ahead of the WHERE conjuncts, and they all
go through one analysis. Because the condition is a conjunction of
truthy-coerced conjuncts, any conjunct can be applied as soon as all of
its variables are bound — and a conjunct over a *single* variable can
filter candidate objects inside the atom's probe, before rows
materialize at all. Such a conjunct of the shape ``x.key = value`` (or
a test ``{key = value}``) with a constant value is an **index lookup**:
the atom first asks its graph's per-key value index
(:meth:`PathPropertyGraph.property_index`) for the carriers of the
value and runs the pushed conjuncts — one compiled kernel over the
candidate vector (:class:`CandidateProbe`) — on those alone. The index
only ever *proposes*: its keys follow Python equality, a superset of
both the WHERE ``=`` and the pattern-test reading, and every proposal
still passes through the G-CORE comparison. A WHERE conjunct reads
properties through the context's lookup chain, a pattern test from its
own pattern's graph.

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
from ..algebra.binding import BindingTable
from ..lang import ast
from ..model.graph import ObjectId, PathPropertyGraph
from ..model.values import as_value_set
from .context import EvalContext
from .expressions import expr_variables
from .kernels import ExpressionCompiler, PatternTest, compiled_filter_rows, is_constant

__all__ = [
    "Atom",
    "CandidateProbe",
    "PushdownPlan",
    "candidate_probes",
]


class Atom(Protocol):
    """What pushdown needs of a pattern atom (:mod:`repro.eval.match`)."""

    slot: int  # its pattern's index in the block
    position: int  # its element's index in the pattern's chain

    def binds(self) -> FrozenSet[str]: ...

    def tests(self) -> Tuple[PatternTest, ...]: ...

    def probe_universe(self, var: str) -> Optional[str]: ...


_MISS = object()

#: Builtins that cannot raise when applied to arbitrary values (their
#: error cases coerce to the absent value instead). Everything else —
#: ``nodes``/``edges``/``length``/``cost`` and unknown names — raises on
#: the wrong input and keeps its conjunct on the residual path.
_TOTAL_UNARY_BUILTINS = frozenset(
    {"size", "labels", "id", "tostring", "tointeger", "tofloat", "abs"}
)


def _node_total(node: Any, params: Collection[str]) -> bool:
    """Can *node* itself never raise, given children that cannot?"""
    if isinstance(node, (ast.Literal, ast.Var, ast.LabelTest, ast.Prop, ast.CaseExpr,
                         ast.ListLiteral, PatternTest)):
        return True
    if isinstance(node, ast.Param):
        return node.name in params
    if isinstance(node, ast.Unary):
        # A signed number literal: how the parser reads ``{k = -2}``.
        return node.op == "not" or (
            isinstance(node.operand, ast.Literal) and type(node.operand.value) in (int, float)
        )
    if isinstance(node, ast.Binary):  # arithmetic raises on non-numbers / zero divisors
        return node.op in {"and", "or", "xor", "=", "<>", "<", "<=", ">", ">=", "in", "subset"}
    if isinstance(node, ast.Index):
        # Raises unless the index is a literal non-bool integer.
        index = node.index
        return (isinstance(index, ast.Literal) and isinstance(index.value, int)
                and not isinstance(index.value, bool))
    if isinstance(node, ast.FuncCall):
        name = node.name.lower()
        return not node.star and not is_aggregate_name(node.name) and (
            name == "coalesce" or (name in _TOTAL_UNARY_BUILTINS and len(node.args) == 1)
        )
    return False  # EXISTS subqueries/patterns: evaluate where the oracle does


def _is_total(expr: Optional[ast.Expr], params: Collection[str]) -> bool:
    """Can evaluating *expr* ever raise? (Conservative syntactic check.)"""
    return all(_node_total(node, params) for node in ast.walk(expr, ast.SUBQUERIES))


def _index_lookup(expr: ast.Expr) -> Optional[Tuple[str, ast.Expr]]:
    """``(key, value)`` when *expr* is ``x.key = value`` (either operand
    order) or a test ``{key = value}`` with a constant value; None for
    every other conjunct."""
    if isinstance(expr, PatternTest):
        return (expr.key, expr.value) if is_constant(expr.value) else None
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


def _variables(expr: ast.Expr) -> FrozenSet[str]:
    if isinstance(expr, PatternTest):
        return expr_variables(expr.value) | {expr.var}
    return expr_variables(expr)


class _Conjunct(NamedTuple):
    """One pushable conjunct: a pattern test or a WHERE conjunct."""

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
    non-literal content and NaN.
    """
    try:
        values = as_value_set(expected)
    except TypeError:
        return _MISS
    if len(values) != 1:
        return _MISS
    (scalar,) = values
    return scalar if scalar == scalar else _MISS  # NaN


class CandidateProbe:
    """The pushed conjuncts one atom applies to one variable's candidates."""

    def __init__(
        self,
        var: str,
        conjuncts: Sequence[_Conjunct],
        ctx: EvalContext,
        compiler: ExpressionCompiler,
    ) -> None:
        self._var = var
        self._ctx = ctx
        self._compiler = compiler
        self._exprs = [conjunct.expr for conjunct in conjuncts]
        # Constant and total (the conjunct was pushable): evaluated once,
        # with the graph a test reads (None: the lookup chain's).
        self._lookups = [
            (
                compiler.graphs[conjunct.expr.slot]
                if isinstance(conjunct.expr, PatternTest) else None,
                conjunct.lookup[0],
                compiler.constant(conjunct.lookup[1]),
            )
            for conjunct in conjuncts
            if conjunct.lookup is not None
        ]

    def narrow(
        self, graph: PathPropertyGraph, universe: FrozenSet[ObjectId]
    ) -> Optional[Set[ObjectId]]:
        """Index hits bounding the passing objects of *universe* (the
        node or edge set of *graph* the candidates come from), or None:
        a superset of the objects whose ``key`` property equals *or
        contains* a lookup's value, read from *graph*'s value indexes.

        A pattern test reads its own pattern's graph, so *graph*'s index
        speaks for it when that is *graph*. A WHERE conjunct reads
        properties through the context's lookup chain, so *graph*'s
        index speaks for it only while that chain resolves every
        candidate to *graph* itself.
        """
        chain_ok = any(reads is None for reads, _, _ in self._lookups) and (
            self._ctx.property_reads_stay_in(graph, universe)
        )
        hits: Optional[Set[ObjectId]] = None
        for reads, key, expected in self._lookups:
            scalar = _index_scalar(expected)
            if (reads is graph or (reads is None and chain_ok)) and scalar is not _MISS:
                carriers = graph.property_index(key).get(scalar, ())
                hits = set(carriers) if hits is None else hits.intersection(carriers)
        return hits

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
) -> Dict[str, CandidateProbe]:
    """One :class:`CandidateProbe` per variable of a probe assignment
    (a plan step's ``probe`` conjuncts)."""
    grouped: Dict[str, List[_Conjunct]] = {}
    for conjunct in conjuncts:
        (var,) = tuple(conjunct.variables)
        grouped.setdefault(var, []).append(conjunct)
    return {
        var: CandidateProbe(var, group, ctx, compiler)
        for var, group in grouped.items()
    }


#: What one atom applies: the conjuncts filtering its probe, then the
#: conjuncts filtering its output.
_Applied = Tuple[Tuple[_Conjunct, ...], Tuple[ast.Expr, ...]]


class PushdownPlan:
    """The conjunct analysis of one block: the ``{k = v}`` tests of its
    *atoms*' patterns in element order, then its WHERE condition.

    *params* names the bound query parameters: a conjunct reading a
    missing one raises, so it is not total.
    """

    def __init__(
        self,
        where: Optional[ast.Expr],
        params: Collection[str],
        atoms: Iterable[Atom] = (),
    ) -> None:
        conjuncts: List[ast.Expr] = [
            test
            for atom in sorted(atoms, key=lambda atom: (atom.slot, atom.position))
            for test in atom.tests()
        ]
        conjuncts += ast.conjuncts(where)
        # Everything from the first non-total conjunct on stays in source
        # order: pushing a later conjunct could hide an error this one
        # raises under short-circuiting.
        cut = next(
            (i for i, expr in enumerate(conjuncts) if not _is_total(expr, params)),
            len(conjuncts),
        )
        self.pushable: Tuple[_Conjunct, ...] = tuple(
            _Conjunct(expr, _variables(expr), _index_lookup(expr))
            for expr in conjuncts[:cut]
        )
        self._blocked: Tuple[ast.Expr, ...] = tuple(conjuncts[cut:])

    # ------------------------------------------------------------------
    def pushed_property_keys(self) -> Dict[str, Tuple[str, ...]]:
        """Property keys each variable's pushed tests and single-variable
        ``=`` / ``IN`` conjuncts compare.

        Feeds the planner's cardinality estimates with per-key
        selectivities. A ``<>`` or range conjunct is priced as keeping
        every candidate.
        """
        keys: Dict[str, List[str]] = {}
        for conjunct in self.pushable:
            expr = conjunct.expr
            if isinstance(expr, PatternTest):
                keys.setdefault(expr.var, []).append(expr.key)
            elif (
                len(conjunct.variables) == 1
                and isinstance(expr, ast.Binary)
                and expr.op in ("=", "in")
            ):
                (var,) = conjunct.variables
                keys.setdefault(var, []).extend(
                    side.key
                    for side in (expr.left, expr.right)
                    if isinstance(side, ast.Prop) and isinstance(side.base, ast.Var)
                )
        return {var: tuple(found) for var, found in keys.items() if found}

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
