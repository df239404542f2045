"""Top-level query evaluation: head clauses, set operations, basic queries.

This module stitches the pieces together, following the grammar of
Section 4: a query is a sequence of PATH / GRAPH head clauses followed by
a *full graph query* — a tree of UNION / INTERSECT / MINUS over basic
queries (CONSTRUCT/SELECT over MATCH/FROM) and graph references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..algebra.binding import Binding, BindingTable
from ..errors import SemanticError
from ..lang import ast
from ..model.graph import PathPropertyGraph
from ..model.setops import graph_difference, graph_intersect, graph_union
from ..table import Table
from .construct import evaluate_construct
from .context import EvalContext
from .match import block_graphs, evaluate_match, outer_seed
from .select import evaluate_select

__all__ = ["QueryResult", "ViewResult", "evaluate_query"]


@dataclass(frozen=True)
class ViewResult:
    """The result of executing a GRAPH VIEW statement."""

    name: str
    graph: PathPropertyGraph


QueryResult = Union[PathPropertyGraph, Table, ViewResult]

_SET_OPS = {"union": graph_union, "intersect": graph_intersect, "minus": graph_difference}


def evaluate_query(
    query: ast.Query,
    ctx: EvalContext,
    seed: Optional[Binding] = None,
) -> Union[PathPropertyGraph, Table]:
    """Evaluate a query in its own scope *ctx*, whose graph and lookup
    chain its GRAPH heads and set-operation operands inherit; *seed*
    carries correlated outer bindings (A.2).

    The query's MATCH clauses were sort-checked when its statement was
    prepared (:class:`~repro.engine.PreparedQuery`); nothing here checks.
    """
    for head in query.heads:
        if isinstance(head, ast.PathClause):
            ctx.local_path_views[head.name] = head
            continue
        result = evaluate_query(head.query, ctx.child())
        if not isinstance(result, PathPropertyGraph):
            raise SemanticError(f"GRAPH {head.name} AS (...) must produce a graph")
        ctx.local_graphs[head.name] = result.with_name(head.name)
    return _evaluate_body(query.body, ctx, seed)


def _evaluate_body(
    body: ast.QueryBody, ctx: EvalContext, seed: Optional[Binding]
) -> Union[PathPropertyGraph, Table]:
    if isinstance(body, ast.GraphRefQuery):
        return ctx.resolve_graph(body.name)
    if isinstance(body, ast.BasicQuery):
        return _evaluate_basic(body, ctx, seed)
    # Each operand has a scope of its own: none reads what its sibling touched.
    left = _evaluate_body(body.left, ctx.scope(ctx.current_graph), seed)
    right = _evaluate_body(body.right, ctx.scope(ctx.current_graph), seed)
    if not isinstance(left, PathPropertyGraph) or not isinstance(right, PathPropertyGraph):
        raise SemanticError("set operations (UNION/INTERSECT/MINUS) apply to graphs only")
    return _SET_OPS[body.op](left, right)


def _evaluate_basic(
    basic: ast.BasicQuery, ctx: EvalContext, seed: Optional[Binding]
) -> Union[PathPropertyGraph, Table]:
    head_ctx = ctx
    if basic.from_table is not None:
        table = ctx.catalog.table(basic.from_table)
        rows = [
            Binding(dict(zip(table.columns, row_values)))
            for row_values in table.rows
        ]
        omega = BindingTable(table.columns, rows)
        if seed is not None:
            shared = [v for v in seed.domain if v in omega.columns]
            if shared:
                seed_row = seed.project(shared)
                omega = omega.filter(lambda r: r.compatible(seed_row))
    elif basic.match is not None:
        seed_table: Optional[BindingTable] = None
        if seed is not None:
            # Outer variables act as parameters of the correlated subquery
            # (A.2): seed the whole outer binding — shared pattern
            # variables join on identity, and WHERE conditions may read
            # any outer variable.
            seed_table = outer_seed(seed)
        graphs = block_graphs(basic.match.block, ctx)
        omega = evaluate_match(basic.match, ctx, seed_table, graphs)
        if graphs[0] is not ctx.current_graph:
            # The head's subqueries read the main block's first graph.
            head_ctx = ctx.scope(graphs[0])
    else:
        omega = BindingTable.unit()

    if ctx.omega_sink is not None:
        # View registration captures the top-level MATCH table for the
        # incremental-maintenance support counts (subqueries run in child
        # contexts, whose sink is always None).
        ctx.omega_sink.append(omega)

    if isinstance(basic.head, ast.SelectClause):
        return evaluate_select(basic.head, omega, head_ctx)
    # A MATCH table has a column per variable even when it is empty.
    return evaluate_construct(basic.head, omega, head_ctx, frozenset(omega.columns), basic)
