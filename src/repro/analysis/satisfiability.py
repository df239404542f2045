"""Pass 3b — predicate satisfiability (``GC301 always-false-predicate``).

A cheap, sound unsatisfiability check over the AND-conjuncts of a
WHERE/WHEN condition plus the inline property tests of the pattern it
guards. Three families of proofs, each conservative (no false
positives):

* **constant folding** — a conjunct made of literals that folds to
  false under the Section 3 comparison semantics (``WHERE 1 = 2``);
* **contradictory equalities** — two conjuncts pin the same ``var.key``
  to different literals (``n.age = 1 AND n.age = 2`` — ``=`` compares
  the full value *set*, so both cannot hold), or one pins and one
  excludes the same literal (``n.age = 1 AND n.age <> 1``), including
  pattern tests like ``(n {age: 1})`` against the WHERE clause;
* **domain emptiness** — with a catalog, ``var.key = literal`` where no
  object of the variable's graph carries *literal* in its ``key``
  value set (the statistics-aware check of the issue).

Negated/positive label-test pairs (``x:A AND NOT x:A``) round out the
contradiction check.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, TYPE_CHECKING, Tuple

from ..lang import ast
from ..model.values import Date, Scalar
from .scopes import Scope

if TYPE_CHECKING:  # pragma: no cover
    from .analyzer import Analyzer

__all__ = ["check_satisfiability"]

_FoldableOps = frozenset({"=", "<>", "<", "<=", ">", ">="})


def _scalar(value: object) -> bool:
    return isinstance(value, (bool, int, float, str, Date))


def _fold_comparison(op: str, left: Scalar, right: Scalar) -> Optional[bool]:
    """Fold ``left op right`` under G-CORE semantics, None when unknown.

    Only same-type comparisons fold here — cross-type operands are
    GC205's business and folding them too would double-report.
    """
    both_num = isinstance(left, (int, float)) and not isinstance(
        left, bool
    ) and isinstance(right, (int, float)) and not isinstance(right, bool)
    same_type = type(left) is type(right) or both_num
    if not same_type:
        return None
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if isinstance(left, bool):
        return None  # booleans have no order
    try:
        if op == "<":
            return left < right  # type: ignore[operator]
        if op == "<=":
            return left <= right  # type: ignore[operator]
        if op == ">":
            return left > right  # type: ignore[operator]
        if op == ">=":
            return left >= right  # type: ignore[operator]
    except TypeError:  # pragma: no cover - same_type guards this
        return None
    return None


def _prop_equality(
    conjunct: ast.Expr,
) -> Optional[Tuple[str, str, str, Scalar]]:
    """Decompose ``var.key = literal`` (either side) into its parts.

    Returns ``(op, var, key, value)`` with op in {'=', '<>'}, or None.
    """
    if not isinstance(conjunct, ast.Binary) or conjunct.op not in ("=", "<>"):
        return None
    left, right = conjunct.left, conjunct.right
    if isinstance(right, ast.Prop) and isinstance(left, ast.Literal):
        left, right = right, left
    if (
        isinstance(left, ast.Prop)
        and isinstance(left.base, ast.Var)
        and isinstance(right, ast.Literal)
        and _scalar(right.value)
    ):
        return (conjunct.op, left.base.name, left.key, right.value)
    return None


def _label_fact(conjunct: ast.Expr) -> Optional[Tuple[bool, str, Tuple[str, ...]]]:
    """Decompose ``x:A|B`` / ``NOT x:A|B`` into (positive, var, labels)."""
    if isinstance(conjunct, ast.LabelTest):
        return (True, conjunct.var, tuple(sorted(conjunct.labels)))
    if (
        isinstance(conjunct, ast.Unary)
        and conjunct.op == "not"
        and isinstance(conjunct.operand, ast.LabelTest)
    ):
        operand = conjunct.operand
        return (False, operand.var, tuple(sorted(operand.labels)))
    return None


def check_satisfiability(
    ctx: "Analyzer",
    scope: Scope,
    where: Optional[ast.Expr],
    pattern_facts: Optional[List[Tuple[str, str, Scalar]]] = None,
    clause: str = "WHERE",
) -> None:
    """Emit GC301 for each provably-false conjunct/conjunct pair.

    *pattern_facts* are ``(var, key, value)`` equalities implied by
    inline property tests of the guarded pattern, e.g. ``(n {age: 1})``.
    """
    # (var, key) -> pinned literal values ('=' facts)
    pinned: Dict[Tuple[str, str], Set[Scalar]] = {}
    # (var, key) -> excluded literal values ('<>' facts)
    excluded: Dict[Tuple[str, str], Set[Scalar]] = {}
    label_facts: Dict[Tuple[str, Tuple[str, ...]], bool] = {}

    for var, key, value in pattern_facts or ():
        pinned.setdefault((var, key), set()).add(value)
        _check_domain(ctx, scope, var, key, value)

    for conjunct in ast.conjuncts(where):
        # 1. literal constant folding
        if isinstance(conjunct, ast.Literal) and conjunct.value is False:
            ctx.emit(
                "GC301",
                f"{clause} contains the constant FALSE",
                hint="remove the clause or the always-false conjunct",
            )
            continue
        if (
            isinstance(conjunct, ast.Binary)
            and conjunct.op in _FoldableOps
            and isinstance(conjunct.left, ast.Literal)
            and isinstance(conjunct.right, ast.Literal)
            and _scalar(conjunct.left.value)
            and _scalar(conjunct.right.value)
        ):
            folded = _fold_comparison(
                conjunct.op, conjunct.left.value, conjunct.right.value
            )
            if folded is False:
                ctx.emit(
                    "GC301",
                    f"{clause} conjunct "
                    f"{conjunct.left.value!r} {conjunct.op} "
                    f"{conjunct.right.value!r} is constantly false",
                    hint="remove the always-false conjunct",
                )
            continue

        # 2. var.key (=|<>) literal facts
        fact = _prop_equality(conjunct)
        if fact is not None:
            op, var, key, value = fact
            if op == "=":
                pinned.setdefault((var, key), set()).add(value)
                _check_domain(ctx, scope, var, key, value)
            else:
                excluded.setdefault((var, key), set()).add(value)
            continue

        # 3. (negated) label tests
        label = _label_fact(conjunct)
        if label is not None:
            positive, var, labels = label
            previous = label_facts.get((var, labels))
            if previous is not None and previous != positive:
                ctx.emit(
                    "GC301",
                    f"{clause} both requires and excludes label test "
                    f"{var}:{'|'.join(labels)}",
                    anchor=var,
                )
            else:
                label_facts[(var, labels)] = positive

    for (var, key), values in pinned.items():
        if len(values) > 1:
            rendered = ", ".join(repr(v) for v in sorted(values, key=repr))
            ctx.emit(
                "GC301",
                f"{var}.{key} is pinned to contradictory values "
                f"({rendered}); the predicate is unsatisfiable",
                anchor=var,
                hint="property equality compares the full value set — "
                "use IN for membership tests",
            )
        clash = values & excluded.get((var, key), set())
        for value in sorted(clash, key=repr):
            ctx.emit(
                "GC301",
                f"{var}.{key} = {value!r} contradicts "
                f"{var}.{key} <> {value!r}",
                anchor=var,
            )


def _check_domain(ctx: "Analyzer", scope: Scope, var: str, key: str, value: Scalar) -> None:
    """GC301 when *value* is outside the graph's domain for ``var.key``."""
    domain = ctx.property_domain(scope, var, key)
    if domain is not None and value not in domain:
        ctx.emit(
            "GC301",
            f"no object of the target graph has {value!r} in its "
            f"{key!r} property; {var}.{key} = {value!r} never holds",
            anchor=var,
            hint="check the literal against the graph's data "
            "(statistics-derived domain)",
        )
