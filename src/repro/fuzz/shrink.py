"""Delta-debugging reduction of a diverging statement.

:func:`shrink_case` greedily minimizes a counterexample while a caller-
supplied predicate ("still diverges") holds. Reduction happens on the
AST — the pretty-printer round-trip (``parse(pretty(s)) == s``) means
every candidate is guaranteed parseable — in three waves of decreasing
granularity, exactly the ladder the issue prescribes:

1. **drop clauses** — PATH/GRAPH heads, set-op branches, OPTIONAL
   blocks, extra comma patterns, WHERE, construct sub-clauses
   (WHEN/SET/REMOVE), SELECT modifiers (DISTINCT/GROUP BY/ORDER BY/
   LIMIT/OFFSET) and surplus items;
2. **drop atoms** — shorten chains from the tail, strip labels,
   property tests and bindings off nodes and edges, collapse a path
   connector to a plain edge, un-store paths, drop cost variables;
3. **simplify expressions and literals** — replace boolean combinators
   by their operands, CASE by its condition, function calls by their
   argument, inline ``$params`` whose value has literal syntax, shrink
   int/float/str literals toward ``0`` / ``''``.

Each accepted candidate restarts the wave (classic greedy ddmin); the
total number of predicate evaluations is capped by ``max_checks`` so a
pathological predicate cannot stall a fuzzing session. Unreferenced
parameters are pruned from the binding dict at the end.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..lang import ast
from ..lang.pretty import pretty_statement

__all__ = ["shrink_case"]

Predicate = Callable[[str, Dict[str, Any]], bool]


def _replace(node: Any, **changes: Any) -> Any:
    return dataclasses.replace(node, **changes)


# ---------------------------------------------------------------------------
# Wave 1: clause-level drops
# ---------------------------------------------------------------------------
def _drop_clauses(stmt: ast.Query) -> Iterator[ast.Query]:
    for index in range(len(stmt.heads)):
        heads = stmt.heads[:index] + stmt.heads[index + 1 :]
        yield _replace(stmt, heads=heads)
    for body in _drop_body_clauses(stmt.body):
        yield _replace(stmt, body=body)


def _drop_body_clauses(body: ast.QueryBody) -> Iterator[ast.QueryBody]:
    if isinstance(body, ast.SetOpQuery):
        yield body.left
        yield body.right
        for left in _drop_body_clauses(body.left):
            yield _replace(body, left=left)
        for right in _drop_body_clauses(body.right):
            yield _replace(body, right=right)
        return
    if not isinstance(body, ast.BasicQuery):
        return
    match = body.match
    if match is not None:
        if match.optionals:
            for index in range(len(match.optionals)):
                optionals = (
                    match.optionals[:index] + match.optionals[index + 1 :]
                )
                yield _replace(body, match=_replace(match, optionals=optionals))
        block = match.block
        if len(block.patterns) > 1:
            for index in range(len(block.patterns)):
                patterns = (
                    block.patterns[:index] + block.patterns[index + 1 :]
                )
                yield _replace(
                    body,
                    match=_replace(match, block=_replace(block, patterns=patterns)),
                )
        if block.where is not None:
            yield _replace(
                body, match=_replace(match, block=_replace(block, where=None))
            )
        for pattern in _drop_pattern_on(block):
            yield _replace(body, match=_replace(match, block=pattern))
    if isinstance(body.head, ast.SelectClause):
        for head in _drop_select_clauses(body.head):
            yield _replace(body, head=head)
    if isinstance(body.head, ast.ConstructClause):
        for head in _drop_construct_clauses(body.head):
            yield _replace(body, head=head)


def _drop_pattern_on(block: ast.MatchBlock) -> Iterator[ast.MatchBlock]:
    for index, location in enumerate(block.patterns):
        if location.on is not None:
            patterns = (
                block.patterns[:index]
                + (_replace(location, on=None),)
                + block.patterns[index + 1 :]
            )
            yield _replace(block, patterns=patterns)


def _drop_select_clauses(head: ast.SelectClause) -> Iterator[ast.SelectClause]:
    if head.limit is not None:
        yield _replace(head, limit=None, offset=None)
    if head.offset is not None:
        yield _replace(head, offset=None)
    if head.order_by:
        yield _replace(head, order_by=())
    if head.distinct:
        yield _replace(head, distinct=False)
    if head.group_by:
        yield _replace(head, group_by=())
    if len(head.items) > 1:
        for index in range(len(head.items)):
            items = head.items[:index] + head.items[index + 1 :]
            yield _replace(head, items=items)


def _drop_construct_clauses(
    head: ast.ConstructClause,
) -> Iterator[ast.ConstructClause]:
    if len(head.items) > 1:
        for index in range(len(head.items)):
            items = head.items[:index] + head.items[index + 1 :]
            yield _replace(head, items=items)
    for index, item in enumerate(head.items):
        if not isinstance(item, ast.PatternItem):
            continue
        simpler: List[ast.PatternItem] = []
        if item.when is not None:
            simpler.append(_replace(item, when=None))
        if item.sets:
            simpler.append(_replace(item, sets=()))
        if item.removes:
            simpler.append(_replace(item, removes=()))
        for variant in simpler:
            items = head.items[:index] + (variant,) + head.items[index + 1 :]
            yield _replace(head, items=items)


# ---------------------------------------------------------------------------
# Wave 2: atom-level drops
# ---------------------------------------------------------------------------
def _shrink_chain(chain: ast.Chain) -> Iterator[ast.Chain]:
    # Shorten from the tail: (n)-(e)-(n)-(e)-(n) -> (n)-(e)-(n) -> (n).
    length = len(chain.elements)
    while length > 1:
        length -= 2
        yield ast.Chain(chain.elements[:length])
    for index, element in enumerate(chain.elements):
        for variant in _shrink_element(element):
            elements = (
                chain.elements[:index]
                + (variant,)
                + chain.elements[index + 1 :]
            )
            yield ast.Chain(elements)


def _shrink_element(element: Any) -> Iterator[Any]:
    if isinstance(element, ast.NodePattern):
        if element.labels:
            yield _replace(element, labels=())
        if element.prop_tests:
            yield _replace(element, prop_tests=())
        if element.prop_binds:
            yield _replace(element, prop_binds=())
        if element.assignments:
            yield _replace(element, assignments=())
        if element.group is not None:
            yield _replace(element, group=None)
        return
    if isinstance(element, ast.EdgePattern):
        if element.labels:
            yield _replace(element, labels=())
        if element.prop_tests:
            yield _replace(element, prop_tests=())
        if element.prop_binds:
            yield _replace(element, prop_binds=())
        if element.direction != ast.OUT:
            yield _replace(element, direction=ast.OUT)
        return
    if isinstance(element, ast.PathPatternElem):
        # The big cut first: the connector becomes a plain edge.
        yield ast.EdgePattern()
        if element.cost_var is not None:
            yield _replace(element, cost_var=None)
        if element.count > 1:
            yield _replace(element, count=1)
        if element.mode != "shortest":
            yield _replace(element, mode="shortest", count=1)
        if element.regex is not None:
            for regex in _shrink_regex(element.regex):
                yield _replace(element, regex=regex)


def _shrink_regex(regex: ast.RegexExpr) -> Iterator[ast.RegexExpr]:
    if isinstance(regex, (ast.RConcat, ast.RAlt)):
        for item in regex.items:
            yield item
    elif isinstance(regex, (ast.RStar, ast.RPlus, ast.ROpt, ast.RRepeat)):
        yield regex.item
    elif isinstance(regex, ast.RLabel) and regex.inverse:
        yield _replace(regex, inverse=False)


def _drop_atoms(stmt: ast.Query) -> Iterator[ast.Query]:
    for body in _map_chains(stmt.body):
        yield _replace(stmt, body=body)


def _map_chains(body: ast.QueryBody) -> Iterator[ast.QueryBody]:
    if isinstance(body, ast.SetOpQuery):
        for left in _map_chains(body.left):
            yield _replace(body, left=left)
        for right in _map_chains(body.right):
            yield _replace(body, right=right)
        return
    if not isinstance(body, ast.BasicQuery):
        return
    match = body.match
    if match is not None:
        blocks = (match.block,) + match.optionals
        for block_index, block in enumerate(blocks):
            for index, location in enumerate(block.patterns):
                for chain in _shrink_chain(location.chain):
                    patterns = (
                        block.patterns[:index]
                        + (_replace(location, chain=chain),)
                        + block.patterns[index + 1 :]
                    )
                    new_block = _replace(block, patterns=patterns)
                    if block_index == 0:
                        yield _replace(
                            body, match=_replace(match, block=new_block)
                        )
                    else:
                        optionals = (
                            match.optionals[: block_index - 1]
                            + (new_block,)
                            + match.optionals[block_index:]
                        )
                        yield _replace(
                            body, match=_replace(match, optionals=optionals)
                        )
    if isinstance(body.head, ast.ConstructClause):
        for index, item in enumerate(body.head.items):
            if not isinstance(item, ast.PatternItem):
                continue
            for chain in _shrink_chain(item.chain):
                items = (
                    body.head.items[:index]
                    + (_replace(item, chain=chain),)
                    + body.head.items[index + 1 :]
                )
                yield _replace(body, head=_replace(body.head, items=items))


# ---------------------------------------------------------------------------
# Wave 3: expression / literal simplification
# ---------------------------------------------------------------------------
def _shrink_expr(expr: ast.Expr) -> Iterator[ast.Expr]:
    if isinstance(expr, ast.Binary):
        if expr.op in ("and", "or", "xor"):
            yield expr.left
            yield expr.right
        for left in _shrink_expr(expr.left):
            yield _replace(expr, left=left)
        for right in _shrink_expr(expr.right):
            yield _replace(expr, right=right)
    elif isinstance(expr, ast.Unary):
        yield expr.operand
        for inner in _shrink_expr(expr.operand):
            yield _replace(expr, operand=inner)
    elif isinstance(expr, ast.CaseExpr):
        for condition, value in expr.whens:
            yield condition
            yield value
    elif isinstance(expr, ast.FuncCall):
        for arg in expr.args:
            yield arg
        for index, arg in enumerate(expr.args):
            for inner in _shrink_expr(arg):
                args = expr.args[:index] + (inner,) + expr.args[index + 1 :]
                yield _replace(expr, args=args)
    elif isinstance(expr, ast.Literal):
        value = expr.value
        if isinstance(value, bool):
            pass
        elif isinstance(value, int) and value not in (0, 1):
            yield ast.Literal(0)
            yield ast.Literal(1)
        elif isinstance(value, float) and value != 0.0:
            yield ast.Literal(0.0)
        elif isinstance(value, str) and value:
            yield ast.Literal("")


def _simplify_expressions(stmt: ast.Query) -> Iterator[ast.Query]:
    for body in _map_exprs(stmt.body):
        yield _replace(stmt, body=body)
    for index, head in enumerate(stmt.heads):
        if isinstance(head, ast.PathClause):
            variants: List[ast.PathClause] = []
            if head.where is not None:
                variants.append(_replace(head, where=None))
            if head.cost is not None:
                variants.append(_replace(head, cost=None))
            for variant in variants:
                heads = stmt.heads[:index] + (variant,) + stmt.heads[index + 1 :]
                yield _replace(stmt, heads=heads)


def _map_exprs(body: ast.QueryBody) -> Iterator[ast.QueryBody]:
    if isinstance(body, ast.SetOpQuery):
        for left in _map_exprs(body.left):
            yield _replace(body, left=left)
        for right in _map_exprs(body.right):
            yield _replace(body, right=right)
        return
    if not isinstance(body, ast.BasicQuery):
        return
    match = body.match
    if match is not None and match.block.where is not None:
        for where in _shrink_expr(match.block.where):
            yield _replace(
                body,
                match=_replace(match, block=_replace(match.block, where=where)),
            )
    if isinstance(body.head, ast.SelectClause):
        for index, item in enumerate(body.head.items):
            for inner in _shrink_expr(item.expr):
                items = (
                    body.head.items[:index]
                    + (_replace(item, expr=inner),)
                    + body.head.items[index + 1 :]
                )
                yield _replace(body, head=_replace(body.head, items=items))
    if isinstance(body.head, ast.ConstructClause):
        for index, item in enumerate(body.head.items):
            if isinstance(item, ast.PatternItem) and item.when is not None:
                for when in _shrink_expr(item.when):
                    items = (
                        body.head.items[:index]
                        + (_replace(item, when=when),)
                        + body.head.items[index + 1 :]
                    )
                    yield _replace(
                        body, head=_replace(body.head, items=items)
                    )


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
_WAVES = (_drop_clauses, _drop_atoms, _simplify_expressions)


def _inline_params(
    stmt: ast.Query, params: Dict[str, Any]
) -> Iterator[Tuple[ast.Query, Dict[str, Any]]]:
    """Try replacing one ``$param`` whose value has literal syntax."""
    for name, value in sorted(params.items()):
        if isinstance(value, bool) or not isinstance(
            value, (int, float, str)
        ):
            continue

        replaced = _substitute_param(stmt, name, ast.Literal(value))
        if replaced is not stmt:
            yield replaced, {k: v for k, v in params.items() if k != name}


def _substitute_param(node: Any, name: str, literal: ast.Literal) -> Any:
    """Structurally replace ``$name`` with *literal* (pure, frozen-safe)."""
    if isinstance(node, ast.Param):
        return literal if node.name == name else node
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        changes = {}
        for field_info in dataclasses.fields(node):
            old = getattr(node, field_info.name)
            new = _substitute_param_any(old, name, literal)
            if new is not old:
                changes[field_info.name] = new
        return _replace(node, **changes) if changes else node
    return node


def _substitute_param_any(value: Any, name: str, literal: ast.Literal) -> Any:
    if isinstance(value, tuple):
        items = tuple(_substitute_param_any(v, name, literal) for v in value)
        return items if any(a is not b for a, b in zip(items, value)) else value
    return _substitute_param(value, name, literal)


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
            for candidate in wave(current):
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
