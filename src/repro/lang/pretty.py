"""An unparser: render G-CORE ASTs back to concrete syntax.

``parse(pretty(ast)) == ast`` is a tested invariant (property-based tests
generate random ASTs and round-trip them), which pins down both the parser
and this printer. The output is canonical: keywords upper-case, single
spaces, parentheses only where precedence requires them.
"""

from __future__ import annotations

from typing import List, Union

from . import ast

__all__ = ["pretty_statement", "pretty_query", "pretty_expr", "pretty_chain"]

_PRECEDENCE = {
    "or": 1, "xor": 1,
    "and": 2,
    "=": 4, "<>": 4, "<": 4, "<=": 4, ">": 4, ">=": 4, "in": 4, "subset": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}


def pretty_statement(statement: ast.Statement) -> str:
    """Render a full statement."""
    if isinstance(statement, ast.GraphViewStmt):
        return (
            f"GRAPH VIEW {statement.name} AS ({pretty_query(statement.query)})"
        )
    return pretty_query(statement)


def pretty_query(query: ast.Query) -> str:
    """Render a query (head clauses + body)."""
    parts: List[str] = []
    for head in query.heads:
        if isinstance(head, ast.PathClause):
            chains = ", ".join(pretty_chain(c) for c in head.chains)
            text = f"PATH {head.name} = {chains}"
            if head.where is not None:
                text += f" WHERE {pretty_expr(head.where)}"
            if head.cost is not None:
                text += f" COST {pretty_expr(head.cost)}"
            parts.append(text)
        else:
            parts.append(f"GRAPH {head.name} AS ({pretty_query(head.query)})")
    parts.append(_pretty_body(query.body))
    return " ".join(parts)


def _pretty_body(body: ast.QueryBody) -> str:
    if isinstance(body, ast.SetOpQuery):
        left = _pretty_body(body.left)
        right = _pretty_body(body.right)
        if isinstance(body.right, ast.SetOpQuery):
            right = f"({right})"
        return f"{left} {body.op.upper()} {right}"
    if isinstance(body, ast.GraphRefQuery):
        return body.name
    return _pretty_basic(body)


def _pretty_basic(query: ast.BasicQuery) -> str:
    parts: List[str] = []
    if isinstance(query.head, ast.SelectClause):
        parts.append(_pretty_select(query.head))
    else:
        parts.append(_pretty_construct(query.head))
    if query.from_table is not None:
        parts.append(f"FROM {query.from_table}")
    elif query.match is not None:
        parts.append(_pretty_match(query.match))
    if isinstance(query.head, ast.SelectClause):
        parts.append(_pretty_select_tail(query.head))
    return " ".join(p for p in parts if p)


def _pretty_select(select: ast.SelectClause) -> str:
    items = ", ".join(
        pretty_expr(item.expr) + (f" AS {item.alias}" if item.alias else "")
        for item in select.items
    )
    distinct = "DISTINCT " if select.distinct else ""
    return f"SELECT {distinct}{items}"


def _pretty_select_tail(select: ast.SelectClause) -> str:
    parts: List[str] = []
    if select.group_by:
        parts.append(
            "GROUP BY " + ", ".join(pretty_expr(e) for e in select.group_by)
        )
    if select.order_by:
        rendered = []
        for expr, ascending in select.order_by:
            rendered.append(pretty_expr(expr) + ("" if ascending else " DESC"))
        parts.append("ORDER BY " + ", ".join(rendered))
    if select.limit is not None:
        parts.append(f"LIMIT {select.limit}")
    if select.offset is not None:
        parts.append(f"OFFSET {select.offset}")
    return " ".join(parts)


def _pretty_construct(construct: ast.ConstructClause) -> str:
    rendered: List[str] = []
    for item in construct.items:
        if isinstance(item, ast.GraphRefItem):
            rendered.append(item.name)
            continue
        text = pretty_chain(item.chain, construct=True)
        if item.when is not None:
            text += f" WHEN {pretty_expr(item.when)}"
        for assign in item.sets:
            if assign.key is not None:
                text += f" SET {assign.var}.{assign.key} := {pretty_expr(assign.expr)}"
            else:
                text += f" SET {assign.var}:{assign.label}"
        for removal in item.removes:
            if removal.key is not None:
                text += f" REMOVE {removal.var}.{removal.key}"
            else:
                text += f" REMOVE {removal.var}:{removal.label}"
        rendered.append(text)
    return "CONSTRUCT " + ", ".join(rendered)


def _pretty_match(match: ast.MatchClause) -> str:
    parts = ["MATCH " + _pretty_block(match.block)]
    for optional in match.optionals:
        parts.append("OPTIONAL " + _pretty_block(optional))
    return " ".join(parts)


def _pretty_block(block: ast.MatchBlock) -> str:
    rendered: List[str] = []
    for location in block.patterns:
        text = pretty_chain(location.chain)
        if isinstance(location.on, str):
            text += f" ON {location.on}"
        elif location.on is not None:
            text += f" ON ({pretty_query(location.on)})"
        rendered.append(text)
    result = ", ".join(rendered)
    if block.where is not None:
        result += f" WHERE {pretty_expr(block.where)}"
    return result


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------

def pretty_chain(chain: ast.Chain, construct: bool = False) -> str:
    """Render a pattern chain."""
    parts: List[str] = []
    elements = list(chain.elements)
    parts.append(_pretty_node(elements[0]))
    index = 1
    while index < len(elements):
        connector = elements[index]
        node = elements[index + 1]
        if isinstance(connector, ast.EdgePattern):
            parts.append(_pretty_edge_connector(connector))
        else:
            parts.append(_pretty_path_connector(connector))
        parts.append(_pretty_node(node))
        index += 2
    return "".join(parts)


def _pretty_labels(labels) -> str:
    return "".join(":" + "|".join(group) for group in labels)


def _pretty_element_body(pattern: Union[ast.NodePattern, ast.EdgePattern]) -> str:
    text = ""
    if pattern.var is not None:
        text += pattern.var
    if pattern.copy_of is not None:
        text += f"={pattern.copy_of}"
    if pattern.group is not None:
        text += " GROUP " + ", ".join(pretty_expr(e) for e in pattern.group)
    if pattern.labels:
        text += _pretty_labels(pattern.labels)
    entries: List[str] = []
    for key, expr in pattern.prop_tests:
        entries.append(f"{key} = {pretty_expr(expr)}")
    for key, var in pattern.prop_binds:
        entries.append(f"{key} = {var}")
    for key, expr in pattern.assignments:
        entries.append(f"{key} := {pretty_expr(expr)}")
    if entries:
        text += " {" + ", ".join(entries) + "}"
    return text


def _pretty_node(pattern: ast.NodePattern) -> str:
    return "(" + _pretty_element_body(pattern) + ")"


def _pretty_edge_connector(pattern: ast.EdgePattern) -> str:
    body = _pretty_element_body(pattern)
    bare = (
        pattern.var is None
        and not pattern.labels
        and not pattern.prop_tests
        and not pattern.prop_binds
        and pattern.copy_of is None
        and pattern.group is None
        and not pattern.assignments
    )
    if bare:
        if pattern.direction == ast.OUT:
            return "->"
        if pattern.direction == ast.IN:
            return "<-"
        return "-"
    if pattern.direction == ast.OUT:
        return f"-[{body}]->"
    if pattern.direction == ast.IN:
        return f"<-[{body}]-"
    return f"-[{body}]-"


def _pretty_path_connector(pattern: ast.PathPatternElem) -> str:
    inner = ""
    if pattern.mode == "all":
        inner += "ALL "
    elif pattern.mode == "shortest" and pattern.count != 1:
        inner += f"{pattern.count} SHORTEST "
    elif pattern.mode == "shortest" and pattern.regex is not None and not (
        pattern.var or pattern.cost_var
    ):
        inner += "SHORTEST "  # unmarked, an anonymous -/<r>/-> is reach
    if pattern.stored:
        inner += "@"
    if pattern.var is not None:
        inner += pattern.var
    if pattern.labels:
        inner += _pretty_labels(pattern.labels)
    if pattern.assignments:
        entries = ", ".join(
            f"{key} := {pretty_expr(expr)}" for key, expr in pattern.assignments
        )
        inner += " {" + entries + "}"
    if pattern.regex is not None:
        inner += f" <{pretty_regex(pattern.regex)}>"
    if pattern.cost_var is not None:
        inner += f" COST {pattern.cost_var}"
    inner = inner.strip()
    if pattern.direction == ast.IN:
        return f"<-/{inner}/-"
    if pattern.direction == ast.UNDIRECTED:
        return f"-/{inner}/-"
    return f"-/{inner}/->"


# ---------------------------------------------------------------------------
# Regular path expressions
# ---------------------------------------------------------------------------

def pretty_regex(regex: ast.RegexExpr) -> str:
    """Render a regular path expression."""
    return _regex_alt(regex)


def _regex_alt(regex: ast.RegexExpr) -> str:
    if isinstance(regex, ast.RAlt):
        return "|".join(_regex_seq(item) for item in regex.items)
    return _regex_seq(regex)


def _regex_seq(regex: ast.RegexExpr) -> str:
    if isinstance(regex, ast.RConcat):
        return " ".join(_regex_postfix(item) for item in regex.items)
    return _regex_postfix(regex)


def _regex_postfix(regex: ast.RegexExpr) -> str:
    if isinstance(regex, ast.RStar):
        return _regex_atom(regex.item) + "*"
    if isinstance(regex, ast.RPlus):
        return _regex_atom(regex.item) + "+"
    if isinstance(regex, ast.ROpt):
        return _regex_atom(regex.item) + "?"
    if isinstance(regex, ast.RRepeat):
        if regex.high is None:
            return _regex_atom(regex.item) + "{" + str(regex.low) + ",}"
        if regex.high == regex.low:
            return _regex_atom(regex.item) + "{" + str(regex.low) + "}"
        return (_regex_atom(regex.item) + "{" + str(regex.low) + ","
                + str(regex.high) + "}")
    return _regex_atom(regex)


def _regex_atom(regex: ast.RegexExpr) -> str:
    if isinstance(regex, ast.RLabel):
        return f":{regex.label}" + ("^" if regex.inverse else "")
    if isinstance(regex, ast.RAnyEdge):
        return "_" + ("^" if regex.inverse else "")
    if isinstance(regex, ast.RNodeTest):
        return f"!{regex.label}"
    if isinstance(regex, ast.RView):
        return f"~{regex.name}"
    if isinstance(regex, ast.REps):
        return "()"
    return "(" + _regex_alt(regex) + ")"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

def pretty_expr(expr: ast.Expr, parent_precedence: int = 0) -> str:
    """Render an expression, inserting parentheses only when required."""
    if isinstance(expr, ast.Literal):
        return _pretty_literal(expr.value)
    if isinstance(expr, ast.Var):
        return expr.name
    if isinstance(expr, ast.Param):
        return f"${expr.name}"
    if isinstance(expr, ast.Prop):
        return f"{pretty_expr(expr.base, 9)}.{expr.key}"
    if isinstance(expr, ast.LabelTest):
        return f"({expr.var}:{'|'.join(expr.labels)})"
    if isinstance(expr, ast.Unary):
        if expr.op == "not":
            # NOT binds between AND and the comparisons: parenthesize when
            # embedded under a tighter operator.
            text = f"NOT {pretty_expr(expr.operand, 3)}"
            if parent_precedence > 3:
                return f"({text})"
            return text
        return f"{expr.op}{pretty_expr(expr.operand, 7)}"
    if isinstance(expr, ast.Binary):
        precedence = _PRECEDENCE[expr.op]
        op_text = {"in": "IN", "subset": "SUBSET OF", "and": "AND",
                   "or": "OR", "xor": "XOR"}.get(expr.op, expr.op)
        # Comparisons are non-associative: both operands must bind tighter.
        left_floor = precedence + 1 if precedence == 4 else precedence
        left = pretty_expr(expr.left, left_floor)
        right = pretty_expr(expr.right, precedence + 1)
        text = f"{left} {op_text} {right}"
        if precedence < parent_precedence:
            return f"({text})"
        return text
    if isinstance(expr, ast.FuncCall):
        if expr.star:
            return f"{expr.name}(*)"
        distinct = "DISTINCT " if expr.distinct else ""
        args = ", ".join(pretty_expr(a) for a in expr.args)
        return f"{expr.name}({distinct}{args})"
    if isinstance(expr, ast.CaseExpr):
        parts = ["CASE"]
        for condition, result in expr.whens:
            parts.append(f"WHEN {pretty_expr(condition)} THEN {pretty_expr(result)}")
        if expr.default is not None:
            parts.append(f"ELSE {pretty_expr(expr.default)}")
        parts.append("END")
        return " ".join(parts)
    if isinstance(expr, ast.Index):
        return f"{pretty_expr(expr.base, 9)}[{pretty_expr(expr.index)}]"
    if isinstance(expr, ast.ListLiteral):
        return "[" + ", ".join(pretty_expr(item) for item in expr.items) + "]"
    if isinstance(expr, ast.ExistsQuery):
        return f"EXISTS ({pretty_query(expr.query)})"
    if isinstance(expr, ast.ExistsPattern):
        return pretty_chain(expr.chain)
    raise TypeError(f"cannot pretty-print {expr!r}")


def _pretty_literal(value) -> str:
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    return str(value)
