"""PATH clause views — Appendix A.4.

A ``PATH name = <walk pattern>[, <graph patterns>] [WHERE c] [COST f]``
clause defines a *binary view*: a set of (source, target) segments, each
with a witness walk and a strictly positive cost. Regular path
expressions reference the view as ``~name``; the product-graph search
then traverses whole segments at once, which is what makes weighted
shortest paths over complex patterns Dijkstra-evaluable (Section 3,
"Powerful Path Patterns").

Materialization evaluates the clause's patterns as an ordinary match
block over the target graph: the first chain is the *walk pattern* whose
first/last nodes delimit the segment and whose matched elements form the
witness walk; the remaining chains (the non-linear part, footnote 3) are
join constraints that may bind variables used by the COST expression.

The segment relation is a derived index of the graph, like
``property_index``: a *closed* clause over a graph that is alone in the
lookup chain is materialized once per graph epoch
(:meth:`~repro.model.graph.PathPropertyGraph.view_segments`);
:func:`per_query_reason` names what keeps any other clause per query.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..errors import CostError, SemanticError
from ..lang import ast
from ..model.graph import ObjectId, PathPropertyGraph
from ..model.values import as_scalar
from ..paths.automaton import regex_view_names
from ..paths.product import ViewSegment
from ..paths.walk import Walk, walk_key
from .context import EvalContext
from .expressions import ExpressionEvaluator

__all__ = ["explain_view_segments", "materialize_path_view", "per_query_reason"]

#: What in a clause ties its segments to one query, in reporting order.
_OPEN_NODES = (
    (ast.Param, "$param"),
    (ast.RView, "nested view"),
    ((ast.ExistsQuery, ast.ExistsPattern), "subquery"),
)


def _open_reasons(node: object, found: Set[str]) -> Set[str]:
    found.update(reason for kinds, reason in _OPEN_NODES if isinstance(node, kinds))
    fields = getattr(node, "__dataclass_fields__", None)
    if fields is not None:
        node = tuple(getattr(node, field) for field in fields)
    if isinstance(node, tuple):
        for child in node:
            _open_reasons(child, found)
    return found


def per_query_reason(
    clause: ast.PathClause,
    chain: Optional[Iterable[PathPropertyGraph]],
    graph: PathPropertyGraph,
) -> Optional[str]:
    """Why *clause*'s segments over *graph* must not outlive one query.

    None (per epoch) needs a clause without ``$param``, ``~view`` or
    subquery and a lookup *chain* (None: unknown, or a construct overlay)
    holding only *graph* — then segments depend on (clause, graph).
    """
    found = _open_reasons(clause, set())
    for _, reason in _OPEN_NODES:
        if reason in found:
            return reason
    if chain is None or any(other is not graph for other in chain):
        return "foreign lookup chain"
    return None


def explain_view_segments(atoms, local_views, resolver, chain) -> List[str]:
    """EXPLAIN's line per PATH view the planned *atoms* search through."""
    graphs: Dict[str, Optional[PathPropertyGraph]] = {}
    for atom in atoms:
        if atom.kind == "path" and not atom.pattern.stored:
            for name in sorted(regex_view_names(atom.pattern.regex)):
                graphs.setdefault(name, atom.graph)
    lines = []
    for name, graph in graphs.items():
        clause = local_views.get(name) or resolver.path_view(name)
        if clause is not None:  # else the analyzer reports GC105
            reason = per_query_reason(clause, chain, graph)
            scope = "per epoch" if reason is None else f"per query ({reason})"
            lines.append(f"view {name}: segments: {scope}")
    return lines


def _name_walk_chain(chain: ast.Chain, prefix: str) -> ast.Chain:
    """Give every anonymous element of the walk chain an internal name."""
    elements: List[object] = []
    counter = 0
    for element in chain.elements:
        var = getattr(element, "var", None)
        if var is None:
            elements.append(replace(element, var=f"{prefix}{counter}"))
            counter += 1
        else:
            elements.append(element)
    return ast.Chain(tuple(elements))


def materialize_path_view(
    clause: ast.PathClause,
    graph: PathPropertyGraph,
    ctx: EvalContext,
) -> Mapping[ObjectId, Tuple[ViewSegment, ...]]:
    """Evaluate *clause* over *graph* into a source-indexed segment table."""
    from .match import evaluate_block  # local import: cycle

    if not clause.chains:
        raise SemanticError(f"PATH {clause.name} has no pattern")
    walk_chain = _name_walk_chain(clause.chains[0], f"#pv_{clause.name}_")
    if len(walk_chain.elements) < 3:
        raise SemanticError(
            f"PATH {clause.name}: the walk pattern needs at least one edge"
        )
    patterns = [ast.PatternLocation(walk_chain, None)]
    patterns.extend(
        ast.PatternLocation(chain, None) for chain in clause.chains[1:]
    )
    block = ast.MatchBlock(tuple(patterns), clause.where)

    sub_ctx = ctx.child()
    sub_ctx.current_graph = graph
    # The block above is rebuilt per materialization; don't churn the
    # prepared-query plan cache with throwaway pattern sites.
    sub_ctx.plan_cache = None
    table = evaluate_block(
        block, sub_ctx, keep_anonymous=True, name_anonymous_edges=True
    )

    ev = ExpressionEvaluator(sub_ctx)
    best: Dict[Tuple[ObjectId, ...], float] = {}
    for row in table:
        sequence = _witness_sequence(walk_chain, row, graph)
        if clause.cost is not None:
            cost = as_scalar(ev.evaluate(clause.cost, row))
            if isinstance(cost, bool) or not isinstance(cost, (int, float)):
                raise CostError(
                    f"PATH {clause.name}: COST must be numeric, got {cost!r}"
                )
            cost = float(cost)
        else:
            cost = float(len(sequence) // 2)  # default: hop count
        if cost <= 0:
            raise CostError(
                f"PATH {clause.name}: COST must be > 0, got {cost}"
            )
        existing = best.get(sequence)
        if existing is None or cost < existing:
            best[sequence] = cost

    by_source: Dict[ObjectId, List[ViewSegment]] = {}
    for sequence, cost in best.items():
        by_source.setdefault(sequence[0], []).append(
            ViewSegment(target=sequence[-1], cost=cost, sequence=sequence)
        )
    # Segments are sorted by (cost, lexicographic key) so view arcs are
    # expanded in the same deterministic order the product search uses
    # for its own tie-breaking.
    return {
        source: tuple(
            sorted(segments, key=lambda s: (s.cost, walk_key(s.sequence)))
        )
        for source, segments in by_source.items()
    }


def _witness_sequence(
    chain: ast.Chain, row, graph: PathPropertyGraph
) -> Tuple[ObjectId, ...]:
    """Reassemble the witness walk from the bound chain elements."""
    elements = chain.elements
    sequence: List[ObjectId] = [row[elements[0].var]]
    for index in range(1, len(elements), 2):
        connector = elements[index]
        node_var = elements[index + 1].var
        if isinstance(connector, ast.EdgePattern):
            sequence.append(row[connector.var])
            sequence.append(row[node_var])
        elif isinstance(connector, ast.PathPatternElem):
            value = row[connector.var]
            if isinstance(value, Walk):
                sequence.extend(value.sequence[1:])
            else:
                sequence.extend(graph.path_sequence(value)[1:])
        else:  # pragma: no cover
            raise SemanticError("malformed walk pattern")
    return tuple(sequence)
