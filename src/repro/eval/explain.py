"""EXPLAIN: every block a statement runs, planned as execution plans it.

One walk over the statement's queries and blocks, nested ones included,
through an :class:`EvalContext` that evaluates nothing: it holds the
local names and the graphs touched as execution's would; each block
reads the graphs :func:`~repro.eval.match.pattern_targets` gives it, a
graph being None where only running tells (an ``ON (…)`` result, a
query-local GRAPH, an unknown name). Each block lists its
patterns and the :func:`~repro.eval.planner.plan_block` call block
evaluation makes, from the columns execution seeds: the atoms in run
order with each one's per-row estimate (``est~``) and the table size
after it (``rows~``), the PATH views searched, and where each conjunct
filters. A nested block is listed under the conjunct, pattern, head or
view line it serves, after one saying how often it runs.
"""

from __future__ import annotations

from typing import Any, Collection, Dict, Iterable, List, Set

from ..errors import UnknownGraphError
from ..lang import ast
from ..lang.pretty import pretty_chain, pretty_expr
from ..paths.automaton import regex_view_names
from .context import EvalContext
from .match import ANON_PREFIX, block_atoms, pattern_targets, predicate_block
from .pathviews import path_view_block, per_query_reason
from .planner import plan_block

__all__ = ["explain_query"]


def explain_query(query: ast.Query, catalog: Any, params: Collection[str]) -> List[str]:
    """EXPLAIN's lines for *query* over *catalog*, with *params* bound."""
    explainer = _Explainer(params)
    explainer.query(query, EvalContext(catalog), catalog.default_graph(), "", ())
    return explainer.lines


class _Explainer:
    def __init__(self, params: Collection[str]) -> None:
        self.params = params
        self.lines: List[str] = []
        # (view, graph) pairs whose body is listed: execution materializes
        # a view's segments once per graph and query (or epoch).
        self.shown: Set[tuple] = set()

    def query(self, node: Any, ctx: EvalContext, graph: Any, margin: str,
              bound: Iterable[str], indent: str = "") -> None:
        """A query or a part of its body that inherits *graph*; a MATCH is
        seeded with *bound*."""
        at = margin + indent
        if isinstance(node, ast.Query):
            for head in node.heads:
                if isinstance(head, ast.PathClause):
                    self.lines.append(f"{at}PATH VIEW {head.name}")
                    ctx.local_path_views[head.name] = head
                else:
                    self.lines.append(f"{at}LOCAL GRAPH {head.name}")
                    self.nested(head.query, ctx.child(), graph, at, "query")
                    ctx.local_graphs[head.name] = None  # type: ignore[assignment]
            self.query(node.body, ctx, graph, margin, bound, indent)
        elif isinstance(node, ast.SetOpQuery):
            self.lines.append(at + node.op.upper())
            for side in (node.left, node.right):
                self.query(side, ctx.scope(graph), graph, margin, bound, indent + "  ")
        elif isinstance(node, ast.GraphRefQuery):
            self.lines.append(f"{at}graph {node.name}")
        else:
            head = "SELECT" if isinstance(node.head, ast.SelectClause) else "CONSTRUCT"
            self.lines.append(at + head)
            if node.from_table:
                self.lines.append(f"{at}  FROM table {node.from_table}")
            seeded = set(bound)  # an OPTIONAL block is seeded with the table so far
            first = graph  # what the head inherits: the main block's first graph
            if node.match:
                first = self.block(node.match.block, "MATCH", ctx, graph, graph, margin,
                                   indent, seeded)[0]
                for block in node.match.optionals:
                    self.block(block, "OPTIONAL", ctx, graph, first, margin, indent, seeded)
            for part in node.head.items if head == "CONSTRUCT" else (node.head,):
                # A CONSTRUCT item's rows also bind the elements it builds.
                built = part.chain.variables() if isinstance(part, ast.PatternItem) else set()
                self.subqueries(part, ctx, first, f"{at}  ", seeded | built, "head ")

    def block(self, block: ast.MatchBlock, tag: str, ctx: EvalContext, graph: Any,
              inherited: Any, margin: str, indent: str, bound: Set[str]) -> List[Any]:
        """One block of a query that inherits *graph*, the block itself
        inheriting *inherited*; *bound* grows by the variables it binds.
        Returns its patterns' graphs."""
        at = f"{margin}{indent}  "
        self.lines.append(at + tag)
        for location in block.patterns:
            on = location.on
            shown = on if isinstance(on, str) else "<subquery>" if on else "<default>"
            self.lines.append(f"{at}  pattern ON {shown}: {pretty_chain(location.chain)}")
            if isinstance(on, ast.Query):
                self.nested(on, ctx.child(), graph, f"{at}  ", "block")

        def resolve(on: Any) -> Any:  # None: an ON (…) result, a local GRAPH, an unknown name
            try:
                return ctx.resolve_graph(on) if isinstance(on, str) else None
            except UnknownGraphError:
                return None

        graphs = pattern_targets(block, inherited, resolve)
        for target in graphs:
            ctx.touch_graph(target)
        plan = plan_block(block_atoms(block), graphs, block.where, bound, self.params)
        self.lines.extend(margin + line for line in plan.describe(graphs).splitlines())
        binds = {var for step in plan.steps for var in step.atom.binds()}
        bound.update(var for var in binds if not var.startswith(ANON_PREFIX))
        searched: Dict[str, Any] = {}
        for step in plan.steps:
            atom = step.atom
            if atom.kind == "path" and not atom.pattern.stored:
                for name in sorted(regex_view_names(atom.pattern.regex)):
                    searched.setdefault(name, graphs[atom.slot])
        for name, searched_graph in searched.items():
            clause = ctx.resolve_path_view(name)
            if clause is None:  # the analyzer reports GC105
                continue
            reason = per_query_reason(clause, ctx.lookup_chain(), searched_graph)
            often = "epoch" if reason is None else "query"
            scope = often if reason is None else f"query ({reason})"
            self.lines.append(f"{at}  view {name}: segments: per {scope}")
            if (repr(clause), id(searched_graph)) not in self.shown:
                self.shown.add((repr(clause), id(searched_graph)))
                self.nested(path_view_block(clause), ctx.child(), searched_graph,
                            f"{at}  ", often)
        for expr, line in plan.describe_where(graphs, ctx):
            self.lines.append(f"{at}  {line}")
            self.subqueries(expr, ctx, graphs[0], f"{at}  ", bound)
        return graphs

    def subqueries(self, node: Any, ctx: EvalContext, graph: Any, at: str,
                   bound: Set[str], label: str = "") -> None:
        """Each subquery in *node*, inheriting *graph*, run once per row
        binding *bound*; with a *label*, each under a line of its own."""
        for sub in ast.walk(node, stop=ast.SUBQUERIES):
            if isinstance(sub, ast.SUBQUERIES):
                if label:
                    self.lines.append(f"{at}{label}{pretty_expr(sub)}")
                pattern = isinstance(sub, ast.ExistsPattern)
                sub = predicate_block(sub.chain) if pattern else sub.query
                self.nested(sub, ctx.child(), graph, at, "outer row", bound)

    def nested(self, node: Any, ctx: EvalContext, graph: Any, at: str, often: str,
               bound: Iterable[str] = ()) -> None:
        """*node*'s blocks (one block, or a query's), inheriting *graph*,
        under the line at *at* they serve, *bound* seeded."""
        margin = at + "  "
        self.lines.append(f"{margin}runs once per {often}:")
        if isinstance(node, ast.MatchBlock):
            self.block(node, "MATCH", ctx, graph, graph, margin, "", set(bound))
        else:
            self.query(node, ctx, graph, margin, bound)
