"""Abstract syntax trees for G-CORE.

The node classes mirror the top-down grammar of Section 4 and Appendix A:

* a *statement* is a :class:`GraphViewStmt` or a :class:`Query`;
* a :class:`Query` is a sequence of head clauses (:class:`PathClause`,
  :class:`GraphClause`) followed by a full graph query — a tree of
  :class:`SetOpQuery` over :class:`BasicQuery` / :class:`GraphRefQuery`;
* a :class:`BasicQuery` is a CONSTRUCT (or SELECT, Section 5) head over a
  MATCH clause (or a FROM table import, Section 5).

All nodes are frozen dataclasses: hashable, comparable, and safe to share
between the parser, the planner and the evaluator. Regular path
expressions (Appendix A.1) live here too so the paths engine does not
depend on the parser.

This module is the one place that knows which fields hold children:
:func:`walk` visits every node below a root and :func:`variants` rewrites
one node at a time, so a search or a rewrite elsewhere names only the
node kinds it cares about.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Any, Callable, FrozenSet, Iterable, Iterator, List, Optional, Tuple, Union

__all__ = [
    # expressions
    "Expr", "Literal", "Param", "Var", "Prop", "LabelTest", "Unary", "Binary",
    "FuncCall", "CaseExpr", "Index", "ExistsQuery", "ExistsPattern",
    "ListLiteral",
    # regular path expressions
    "RegexExpr", "REps", "RLabel", "RAnyEdge", "RNodeTest", "RView",
    "RConcat", "RAlt", "RStar", "RPlus", "ROpt", "RRepeat",
    # patterns
    "NodePattern", "EdgePattern", "PathPatternElem", "Chain",
    "OUT", "IN", "UNDIRECTED",
    # clauses
    "PatternLocation", "MatchBlock", "MatchClause",
    "SetAssign", "RemoveAssign",
    "GraphRefItem", "PatternItem", "ConstructClause",
    "SelectItem", "SelectClause",
    "BasicQuery", "GraphRefQuery", "SetOpQuery",
    "PathClause", "GraphClause", "Query", "GraphViewStmt",
    "Statement", "QueryBody",
    # traversal
    "walk", "variants", "conjuncts", "SUBQUERIES",
]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr:
    """Base class for all expression nodes (Appendix A.1)."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expr):
    """A literal scalar value (string, number, boolean, date)."""

    value: Any


@dataclass(frozen=True)
class Param(Expr):
    """A query parameter ``$name``, supplied at execution time."""

    name: str


@dataclass(frozen=True)
class ListLiteral(Expr):
    """A literal list of expressions, e.g. ``[1, 2, 3]`` (extension)."""

    items: Tuple[Expr, ...]


@dataclass(frozen=True)
class Var(Expr):
    """A variable reference ``x``."""

    name: str


@dataclass(frozen=True)
class Prop(Expr):
    """A property access ``x.k`` (or, generally, ``<expr>.k``)."""

    base: Expr
    key: str


@dataclass(frozen=True)
class LabelTest(Expr):
    """A label test ``x:A|B`` — true iff x carries one of the alternatives."""

    var: str
    labels: Tuple[str, ...]


@dataclass(frozen=True)
class Unary(Expr):
    """Unary operators: ``not``, ``-``, ``+``."""

    op: str
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    """Binary operators.

    ``op`` is one of ``and or = <> < <= > >= in subset + - * / %``.
    """

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class FuncCall(Expr):
    """A built-in function or aggregate call.

    ``star`` marks ``COUNT(*)``; ``distinct`` marks ``COUNT(DISTINCT e)``.
    """

    name: str
    args: Tuple[Expr, ...] = ()
    star: bool = False
    distinct: bool = False


@dataclass(frozen=True)
class CaseExpr(Expr):
    """``CASE WHEN c THEN v ... ELSE d END`` — the paper's coalescing tool."""

    whens: Tuple[Tuple[Expr, Expr], ...]
    default: Optional[Expr] = None


@dataclass(frozen=True)
class Index(Expr):
    """List indexing ``base[i]`` — e.g. ``nodes(p)[1]`` (0-based, Section 3)."""

    base: Expr
    index: Expr


@dataclass(frozen=True)
class ExistsQuery(Expr):
    """``EXISTS (subquery)`` — true iff the subquery graph is non-empty."""

    query: "Query"


@dataclass(frozen=True)
class ExistsPattern(Expr):
    """An implicit existential pattern predicate in WHERE (Section 3)."""

    chain: "Chain"


# ---------------------------------------------------------------------------
# Regular path expressions (Appendix A.1)
# ---------------------------------------------------------------------------

class RegexExpr:
    """Base class of regular path expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class REps(RegexExpr):
    """The empty word."""


@dataclass(frozen=True)
class RLabel(RegexExpr):
    """An edge label ``l`` or its inverse ``l-``."""

    label: str
    inverse: bool = False


@dataclass(frozen=True)
class RAnyEdge(RegexExpr):
    """The wildcard ``_`` — any edge, either direction forward."""

    inverse: bool = False


@dataclass(frozen=True)
class RNodeTest(RegexExpr):
    """A node label test ``!l`` — checks the current node, consumes no edge."""

    label: str


@dataclass(frozen=True)
class RView(RegexExpr):
    """A reference ``~name`` to a PATH-clause view (weighted segment)."""

    name: str


@dataclass(frozen=True)
class RConcat(RegexExpr):
    """Concatenation ``r1 r2 ... rn``."""

    items: Tuple[RegexExpr, ...]


@dataclass(frozen=True)
class RAlt(RegexExpr):
    """Alternation ``r1 | r2 | ... | rn``."""

    items: Tuple[RegexExpr, ...]


@dataclass(frozen=True)
class RStar(RegexExpr):
    """Kleene star ``r*``."""

    item: RegexExpr


@dataclass(frozen=True)
class RPlus(RegexExpr):
    """One-or-more ``r+``."""

    item: RegexExpr


@dataclass(frozen=True)
class ROpt(RegexExpr):
    """Zero-or-one ``r?``."""

    item: RegexExpr


@dataclass(frozen=True)
class RRepeat(RegexExpr):
    """Bounded repetition ``r{m,n}`` (``n=None`` means unbounded).

    The paper notes (Section 6) that path length restrictions "although
    can be simulated using regular expressions, improve the succinctness
    of the language" — this node is that convenience.
    """

    item: RegexExpr
    low: int
    high: Optional[int]


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------

OUT = "out"
IN = "in"
UNDIRECTED = "undirected"


@dataclass(frozen=True)
class NodePattern:
    """A node pattern ``(x:L1|L2 {k=v, k2=var})`` or construct node.

    * ``labels`` is a conjunction of disjunction groups: ``:A|B:C`` means
      (A or B) and C.
    * ``prop_tests`` are equality tests against expression values;
      ``prop_binds`` unroll a (multi-valued) property into a value
      variable (Section 3, ``{employer=e}``).
    * ``group`` is the explicit CONSTRUCT grouping set (GROUP ...);
      ``assignments`` are construct-time ``{k := expr}`` property setters;
      ``copy_of`` implements the ``(=n)`` copy syntax.
    """

    var: Optional[str] = None
    labels: Tuple[Tuple[str, ...], ...] = ()
    prop_tests: Tuple[Tuple[str, Expr], ...] = ()
    prop_binds: Tuple[Tuple[str, str], ...] = ()
    copy_of: Optional[str] = None
    group: Optional[Tuple[Expr, ...]] = None
    assignments: Tuple[Tuple[str, Expr], ...] = ()


@dataclass(frozen=True)
class EdgePattern:
    """An edge pattern ``-[e:knows {since=d}]->`` (or construct edge)."""

    var: Optional[str] = None
    direction: str = OUT
    labels: Tuple[Tuple[str, ...], ...] = ()
    prop_tests: Tuple[Tuple[str, Expr], ...] = ()
    prop_binds: Tuple[Tuple[str, str], ...] = ()
    copy_of: Optional[str] = None
    group: Optional[Tuple[Expr, ...]] = None
    assignments: Tuple[Tuple[str, Expr], ...] = ()


@dataclass(frozen=True)
class PathPatternElem:
    """A path pattern ``-/3 SHORTEST p <:knows*> COST c/->`` and friends.

    ``mode`` is one of:

    * ``"shortest"`` — k-shortest semantics (k = ``count``; default 1),
    * ``"all"``      — ALL paths (only valid for graph projection),
    * ``"reach"``    — a pure reachability test (no path or cost variable).

    ``stored`` marks the ``@p`` forms: in MATCH, matching *stored* paths of
    the graph (optionally filtered by ``labels``); in CONSTRUCT, storing
    the bound path into the result graph. ``assignments`` carry construct
    ``{k := expr}`` setters; ``cost_var`` binds the path cost.
    """

    var: Optional[str] = None
    direction: str = OUT
    stored: bool = False
    mode: str = "shortest"
    count: int = 1
    regex: Optional[RegexExpr] = None
    cost_var: Optional[str] = None
    labels: Tuple[Tuple[str, ...], ...] = ()
    assignments: Tuple[Tuple[str, Expr], ...] = ()


@dataclass(frozen=True)
class Chain:
    """An alternating sequence node, connector, node, connector, ..., node."""

    elements: Tuple[Any, ...]

    def nodes(self) -> Tuple[NodePattern, ...]:
        """The node patterns at even positions."""
        return tuple(self.elements[0::2])

    def connectors(self) -> Tuple[Any, ...]:
        """The edge/path patterns at odd positions."""
        return tuple(self.elements[1::2])

    def variables(self) -> FrozenSet[str]:
        """The element, ``{k = x}``-bind and COST variables of the chain."""
        names = set()
        for element in self.elements:
            names.add(element.var)
            names.update(var for _key, var in getattr(element, "prop_binds", ()))
            names.add(getattr(element, "cost_var", None))
        names.discard(None)
        return frozenset(names)


# ---------------------------------------------------------------------------
# Clauses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PatternLocation:
    """A pattern with an optional ``ON`` location (graph name or subquery)."""

    chain: Chain
    on: Optional[Union[str, "Query"]] = None


@dataclass(frozen=True)
class MatchBlock:
    """A comma-separated pattern list with its own WHERE condition."""

    patterns: Tuple[PatternLocation, ...]
    where: Optional[Expr] = None


@dataclass(frozen=True)
class MatchClause:
    """``MATCH <block> (OPTIONAL <block>)*`` (Appendix A.2)."""

    block: MatchBlock
    optionals: Tuple[MatchBlock, ...] = ()


@dataclass(frozen=True)
class SetAssign:
    """``SET x.k := expr`` or ``SET x:Label`` on a construct pattern."""

    var: str
    key: Optional[str] = None
    label: Optional[str] = None
    expr: Optional[Expr] = None


@dataclass(frozen=True)
class RemoveAssign:
    """``REMOVE x.k`` or ``REMOVE x:Label`` on a construct pattern."""

    var: str
    key: Optional[str] = None
    label: Optional[str] = None


@dataclass(frozen=True)
class GraphRefItem:
    """A bare graph name in a CONSTRUCT list — union shorthand (Section 3)."""

    name: str


@dataclass(frozen=True)
class PatternItem:
    """One construct pattern with its WHEN / SET / REMOVE sub-clauses."""

    chain: Chain
    when: Optional[Expr] = None
    sets: Tuple[SetAssign, ...] = ()
    removes: Tuple[RemoveAssign, ...] = ()


@dataclass(frozen=True)
class ConstructClause:
    """``CONSTRUCT item, item, ...`` (Appendix A.3)."""

    items: Tuple[Union[GraphRefItem, PatternItem], ...]


@dataclass(frozen=True)
class SelectItem:
    """One ``expr AS alias`` projection of the SELECT extension."""

    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class SelectClause:
    """The tabular projection extension of Section 5."""

    items: Tuple[SelectItem, ...]
    distinct: bool = False
    group_by: Tuple[Expr, ...] = ()
    order_by: Tuple[Tuple[Expr, bool], ...] = ()  # (expr, ascending)
    limit: Optional[int] = None
    offset: Optional[int] = None


@dataclass(frozen=True)
class BasicQuery:
    """A CONSTRUCT/SELECT head over a MATCH clause or a FROM table import."""

    head: Union[ConstructClause, SelectClause]
    match: Optional[MatchClause] = None
    from_table: Optional[str] = None


@dataclass(frozen=True)
class GraphRefQuery:
    """A graph name used as a full graph query operand (e.g. UNION g)."""

    name: str


@dataclass(frozen=True)
class SetOpQuery:
    """``q1 UNION|INTERSECT|MINUS q2`` over full graph queries."""

    op: str
    left: "QueryBody"
    right: "QueryBody"


QueryBody = Union[BasicQuery, GraphRefQuery, SetOpQuery]


@dataclass(frozen=True)
class PathClause:
    """``PATH name = <chains> [WHERE cond] [COST expr]`` (Appendix A.4).

    The first chain is the walk pattern whose first and last nodes are the
    segment endpoints; additional chains are existential constraints that
    may bind variables used by the COST expression (footnote 3).
    """

    name: str
    chains: Tuple[Chain, ...]
    where: Optional[Expr] = None
    cost: Optional[Expr] = None


@dataclass(frozen=True)
class GraphClause:
    """``GRAPH name AS (query)`` — a query-local graph binding (A.6)."""

    name: str
    query: "Query"


@dataclass(frozen=True)
class Query:
    """A full G-CORE query: head clauses + a full graph query body."""

    heads: Tuple[Union[PathClause, GraphClause], ...]
    body: QueryBody


@dataclass(frozen=True)
class GraphViewStmt:
    """``GRAPH VIEW name AS (query)`` — registers a persistent view (A.6)."""

    name: str
    query: Query


Statement = Union[Query, GraphViewStmt]


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _child_fields(cls: type) -> Optional[Tuple[str, ...]]:
    """The names of *cls*'s fields that may hold children; None for a
    class whose instances are leaf values (str, int, None, ...)."""
    if not dataclasses.is_dataclass(cls):
        return None
    # A literal's value is data, never a node.
    return () if cls is Literal else tuple(f.name for f in dataclasses.fields(cls))


#: The node kinds that hold a subquery, with scopes of their own.
SUBQUERIES = (ExistsQuery, ExistsPattern)


def walk(node: Any, stop: Tuple[type, ...] = ()) -> Iterator[Any]:
    """Every AST node at or below *node*, pre-order, fields left to right.

    Tuples are entered; strings, numbers and a :class:`Literal`'s value
    are leaves and not yielded. A node whose type is in *stop* is yielded
    but not entered.
    """
    stack = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            stack.extend(reversed(item))
            continue
        names = _child_fields(type(item))
        if names is None:
            continue
        yield item
        if names and not isinstance(item, stop):
            stack.extend(getattr(item, name) for name in reversed(names))


def variants(node: Any, rule: Callable[[Any], Iterable[Any]]) -> Iterator[Any]:
    """Each copy of *node* with exactly one node ``d`` at or below it
    replaced by one of ``rule(d)``'s results.

    Copies come in :func:`walk` order of ``d``, and for one ``d`` in the
    order *rule* gives them; the nodes above ``d`` are rebuilt with
    :func:`dataclasses.replace`, everything else is shared.
    """
    if isinstance(node, tuple):
        for index, item in enumerate(node):
            for new in variants(item, rule):
                yield node[:index] + (new,) + node[index + 1 :]
        return
    names = _child_fields(type(node))
    if names is None:
        return
    yield from rule(node)
    for name in names:
        for new in variants(getattr(node, name), rule):
            yield dataclasses.replace(node, **{name: new})


def conjuncts(expr: Optional[Expr]) -> List[Expr]:
    """The top-level AND conjuncts of *expr*, left to right (none for None)."""
    if expr is None:
        return []
    if isinstance(expr, Binary) and expr.op == "and":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]
