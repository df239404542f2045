"""Delta-debugging reduction of a diverging statement.

:func:`shrink_case` greedily minimizes a counterexample while a caller-
supplied predicate ("still diverges") holds. Reduction happens on the
AST — the pretty-printer round-trip (``parse(pretty(s)) == s``) means
every candidate is guaranteed parseable — in three waves of decreasing
granularity. Each wave is one rule giving the smaller forms of a node
by its kind, and :func:`repro.lang.ast.variants` applies it at every
node, however deep: an OPTIONAL block's WHERE, an EXISTS subquery or a
GRAPH head's query shrink like the top-level ones.

1. **drop clauses** — PATH/GRAPH heads, set-op branches, OPTIONAL
   blocks, extra comma patterns, WHERE, ON locations, construct
   sub-clauses (WHEN/SET/REMOVE), SELECT modifiers (DISTINCT/GROUP BY/
   ORDER BY/LIMIT/OFFSET), surplus GROUP BY keys and surplus items;
2. **drop atoms** — shorten chains from the tail, strip labels,
   property tests and bindings off nodes and edges, collapse a path
   connector to a plain edge, drop cost variables, simplify regexes;
3. **simplify expressions and literals** — replace boolean combinators
   by their operands, NOT/negation by its operand, CASE by a condition
   or value, function calls by their argument, drop a PATH clause's
   WHERE or COST, shrink int/float/str literals toward ``0`` / ``''``.

When no wave finds a smaller reproducer, ``$params`` whose value has
literal syntax are inlined, one name at a time.

Each accepted candidate restarts the wave (classic greedy ddmin); the
total number of predicate evaluations is capped by ``max_checks`` so a
pathological predicate cannot stall a fuzzing session. Unreferenced
parameters are pruned from the binding dict at the end.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from ..lang import ast
from ..lang.pretty import pretty_statement

__all__ = ["shrink_case"]

Predicate = Callable[[str, Dict[str, Any]], bool]


def _each_dropped(items: Tuple[Any, ...]) -> Iterator[Tuple[Any, ...]]:
    """*items* without one of its members, for each member in turn."""
    for index in range(len(items)):
        yield items[:index] + items[index + 1 :]


# ---------------------------------------------------------------------------
# Wave 1: clause-level drops
# ---------------------------------------------------------------------------
def _drop_clause(node: Any) -> Iterator[Any]:
    if isinstance(node, ast.Query):
        for heads in _each_dropped(node.heads):
            yield replace(node, heads=heads)
    elif isinstance(node, ast.SetOpQuery):
        yield node.left
        yield node.right
    elif isinstance(node, ast.MatchClause):
        for optionals in _each_dropped(node.optionals):
            yield replace(node, optionals=optionals)
    elif isinstance(node, ast.MatchBlock):
        if len(node.patterns) > 1:
            for patterns in _each_dropped(node.patterns):
                yield replace(node, patterns=patterns)
        if node.where is not None:
            yield replace(node, where=None)
    elif isinstance(node, ast.PatternLocation):
        if node.on is not None:
            yield replace(node, on=None)
    elif isinstance(node, ast.SelectClause):
        yield from _drop_select_clauses(node)
    elif isinstance(node, ast.ConstructClause):
        if len(node.items) > 1:
            for items in _each_dropped(node.items):
                yield replace(node, items=items)
    elif isinstance(node, ast.PatternItem):
        if node.when is not None:
            yield replace(node, when=None)
        if node.sets:
            yield replace(node, sets=())
        if node.removes:
            yield replace(node, removes=())


def _drop_select_clauses(head: ast.SelectClause) -> Iterator[ast.SelectClause]:
    if head.limit is not None:
        yield replace(head, limit=None, offset=None)
    if head.offset is not None:
        yield replace(head, offset=None)
    if head.order_by:
        yield replace(head, order_by=())
    if head.distinct:
        yield replace(head, distinct=False)
    if head.group_by:
        yield replace(head, group_by=())
    if len(head.group_by) > 1:
        for group_by in _each_dropped(head.group_by):
            yield replace(head, group_by=group_by)
    if len(head.items) > 1:
        for items in _each_dropped(head.items):
            yield replace(head, items=items)


# ---------------------------------------------------------------------------
# Wave 2: atom-level drops
# ---------------------------------------------------------------------------
def _drop_atom(node: Any) -> Iterator[Any]:
    if isinstance(node, ast.Chain):
        # Shorten from the tail: (n)-(e)-(n)-(e)-(n) -> (n)-(e)-(n) -> (n).
        length = len(node.elements)
        while length > 1:
            length -= 2
            yield ast.Chain(node.elements[:length])
    elif isinstance(node, (ast.NodePattern, ast.EdgePattern)):
        if node.labels:
            yield replace(node, labels=())
        if node.prop_tests:
            yield replace(node, prop_tests=())
        if node.prop_binds:
            yield replace(node, prop_binds=())
        if isinstance(node, ast.EdgePattern):
            if node.direction != ast.OUT:
                yield replace(node, direction=ast.OUT)
            return
        if node.assignments:
            yield replace(node, assignments=())
        if node.group is not None:
            yield replace(node, group=None)
    elif isinstance(node, ast.PathPatternElem):
        # The big cut first: the connector becomes a plain edge.
        yield ast.EdgePattern()
        if node.cost_var is not None:
            yield replace(node, cost_var=None)
        if node.count > 1:
            yield replace(node, count=1)
        if node.mode != "shortest":
            yield replace(node, mode="shortest", count=1)
    elif isinstance(node, (ast.RConcat, ast.RAlt)):
        yield from node.items
    elif isinstance(node, (ast.RStar, ast.RPlus, ast.ROpt, ast.RRepeat)):
        yield node.item
    elif isinstance(node, ast.RLabel) and node.inverse:
        yield replace(node, inverse=False)


# ---------------------------------------------------------------------------
# Wave 3: expression / literal simplification
# ---------------------------------------------------------------------------
def _simplify_expression(node: Any) -> Iterator[Any]:
    if isinstance(node, ast.Binary):
        if node.op in ("and", "or", "xor"):
            yield node.left
            yield node.right
    elif isinstance(node, ast.Unary):
        yield node.operand
    elif isinstance(node, ast.CaseExpr):
        for condition, value in node.whens:
            yield condition
            yield value
    elif isinstance(node, ast.FuncCall):
        yield from node.args
    elif isinstance(node, ast.Literal):
        value = node.value
        if isinstance(value, bool):
            pass
        elif isinstance(value, int) and value not in (0, 1):
            yield ast.Literal(0)
            yield ast.Literal(1)
        elif isinstance(value, float) and value != 0.0:
            yield ast.Literal(0.0)
        elif isinstance(value, str) and value:
            yield ast.Literal("")
    elif isinstance(node, ast.PathClause):
        if node.where is not None:
            yield replace(node, where=None)
        if node.cost is not None:
            yield replace(node, cost=None)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
_WAVES = (_drop_clause, _drop_atom, _simplify_expression)


def _inline_params(
    stmt: ast.Query, params: Dict[str, Any]
) -> Iterator[Tuple[ast.Query, Dict[str, Any]]]:
    """Try replacing every ``$param`` of one name whose value has literal syntax."""
    for name, value in sorted(params.items()):
        if isinstance(value, bool) or not isinstance(
            value, (int, float, str)
        ):
            continue

        def inline(node: Any, name: str = name, value: Any = value) -> Iterator[Any]:
            if isinstance(node, ast.Param) and node.name == name:
                yield ast.Literal(value)

        replaced = stmt
        while True:
            candidate = next(ast.variants(replaced, inline), None)
            if candidate is None:
                break
            replaced = candidate
        if replaced is not stmt:
            yield replaced, {k: v for k, v in params.items() if k != name}


def _prune_params(text: str, params: Dict[str, Any]) -> Dict[str, Any]:
    return {
        name: value for name, value in params.items() if f"${name}" in text
    }


def shrink_case(
    text: str,
    params: Dict[str, Any],
    statement: ast.Query,
    predicate: Predicate,
    max_checks: int = 400,
) -> Tuple[str, Dict[str, Any]]:
    """Greedily minimize *(text, params)* while *predicate* stays true.

    *predicate(candidate_text, candidate_params)* must return True when
    the candidate still exhibits the divergence. The original input is
    assumed to satisfy it. Returns the smallest accepted (text, params).
    """
    current = statement
    current_params = dict(params)
    checks = 0

    def accept(candidate: ast.Query, candidate_params: Dict[str, Any]) -> Optional[str]:
        nonlocal checks
        if checks >= max_checks:
            return None
        checks += 1
        try:
            candidate_text = pretty_statement(candidate)
        except Exception:  # noqa: BLE001 - unprintable candidate: skip it
            return None
        pruned = _prune_params(candidate_text, candidate_params)
        try:
            if predicate(candidate_text, pruned):
                return candidate_text
        except Exception:  # noqa: BLE001 - predicate crash = not a reproducer
            return None
        return None

    progress = True
    while progress and checks < max_checks:
        progress = False
        for wave in _WAVES:
            for candidate in ast.variants(current, wave):
                accepted = accept(candidate, current_params)
                if accepted is not None:
                    current = candidate
                    current_params = _prune_params(accepted, current_params)
                    progress = True
                    break
            if progress:
                break
        if progress:
            continue
        for candidate, candidate_params in _inline_params(
            current, current_params
        ):
            accepted = accept(candidate, candidate_params)
            if accepted is not None:
                current = candidate
                current_params = _prune_params(accepted, candidate_params)
                progress = True
                break

    final_text = pretty_statement(current)
    return final_text, _prune_params(final_text, current_params)
