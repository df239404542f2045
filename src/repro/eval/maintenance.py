"""Materialized GRAPH VIEWs, kept fresh by every write to what they read.

G-CORE's closure property makes views first-class: ``GRAPH VIEW v AS
(CONSTRUCT ... MATCH ...)`` materializes a graph that other queries
reference by name, and ``MATCH ... ON v`` means *v*'s query over the
current catalog. So every catalog write that changes a graph or a PATH
view also recomputes, in the same commit, every view that reads it
(:func:`commit_with_views`): views on views follow in dependency order,
and the written name and its views make one catalog version, which the
engine then publishes.

Strategy
--------

:func:`analyze_view` statically classifies a view query:

* **incremental** — a single conjunctive MATCH block (named node
  patterns, node/edge atoms only, no OPTIONAL, no EXISTS/pattern
  predicates in WHERE) over one base graph, whose CONSTRUCT items are
  pure identity projections of bound variables
  (:func:`~repro.eval.construct.identity_item_spec`). For these the view
  graph is a *support-counted* union of matched objects, and a delta
  applied to the base (``apply_update``) is propagated exactly:

  1. every binding row affected by a delta binds at least one *touched
     node* (delta'd nodes plus endpoints of delta'd edges), so
     :func:`~repro.eval.match.match_rows_touching` computes the removed
     rows (old graph) and added rows (new graph) by seeding the columnar
     hash-join pipeline with the touched nodes — cost proportional to the
     delta, not the graph;
  2. the rows' identity outputs adjust per-object support counts
     (:class:`ViewState`); objects dropping to zero leave the view,
     objects gaining support enter it;
  3. the materialized graph is *patched* through
     :meth:`PathPropertyGraph._assemble_normalized`, refreshing labels
     and properties of touched survivors from the new base graph.

* **full** — everything else (path atoms, aggregates/SET, OPTIONAL, set
  operations, skolemizing constructs, multi-graph patterns, ...) is
  recomputed from scratch (:func:`evaluate_view`), and so is every view
  after a write that is not a delta on its base: a re-registered graph
  or table, a moved default pointer, a redefined view it reads. The
  property suite proves incremental == full on eligible views.
  ``EXPLAIN`` prints the chosen strategy via :func:`describe_strategy`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple,
)

from ..algebra.binding import ABSENT, BindingTable
from ..errors import SemanticError
from ..lang import ast
from ..model.graph import ObjectId, PathPropertyGraph
from .construct import identity_item_spec
from .context import EvalContext, IdFactory
from .match import match_rows_touching, pattern_targets

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..catalog import Catalog
    from ..model.delta import DeltaEffects

__all__ = [
    "ViewPlan",
    "ViewState",
    "analyze_view",
    "build_state",
    "commit_with_views",
    "describe_strategy",
    "evaluate_view",
]

#: One construct item's identity projection: (node variables, edge variables).
ItemSpec = Tuple[Tuple[str, ...], Tuple[str, ...]]

#: What an ``ON (subquery)`` resolves to here: no catalog name.
_SUBQUERY = "<subquery>"


@dataclass(frozen=True)
class ViewPlan:
    """The static maintenance analysis of one view query."""

    strategy: str  # "incremental" | "full"
    reason: str
    deps: Tuple[str, ...]
    base: Optional[str] = None
    node_vars: Tuple[str, ...] = ()
    items: Tuple[ItemSpec, ...] = ()
    #: True when some block has no ON — it may resolve through the
    #: default-graph pointer, so moving the pointer recomputes the view.
    uses_default: bool = False
    #: The catalog PATH views the query's regexes name (``~w``), also
    #: through other PATH views; redefining one recomputes the view.
    path_deps: Tuple[str, ...] = ()


class ViewState:
    """Per-object support counts of an incrementally-maintained view.

    ``support[obj]`` is the number of (construct item, binding row) pairs
    whose identity projection emits *obj*; an object belongs to the view
    iff its support is positive. Kept on the catalog's view metadata;
    an incremental refresh builds the next state from a copy, so a
    write that fails leaves the committed counts alone.
    """

    __slots__ = ("support",)

    def __init__(self, support: Optional[Dict[ObjectId, int]] = None) -> None:
        self.support: Dict[ObjectId, int] = support or {}

    def __repr__(self) -> str:
        return f"<ViewState {len(self.support)} supported objects>"


# ---------------------------------------------------------------------------
# Dependency analysis
# ---------------------------------------------------------------------------

def _collect_refs(node: Any, refs: Set[str], paths: Set[str]) -> bool:
    """Add the graph/table names and ``~view`` names below *node* to
    *refs* and *paths*; True iff some block has no ON (it reads the graph
    its scope inherits, the default at worst)."""
    uses_default = False
    for item in ast.walk(node):
        if isinstance(item, ast.RView):
            paths.add(item.name)
        elif isinstance(item, ast.MatchBlock):
            uses_default |= all(location.on is None for location in item.patterns)
        elif isinstance(item, ast.PatternLocation):
            if isinstance(item.on, str):
                refs.add(item.on)
        elif isinstance(item, (ast.GraphRefQuery, ast.GraphRefItem)):
            refs.add(item.name)
        elif isinstance(item, ast.BasicQuery) and item.from_table is not None:
            refs.add(item.from_table)
    return uses_default


# ---------------------------------------------------------------------------
# Eligibility analysis
# ---------------------------------------------------------------------------

def analyze_view(query: ast.Query, catalog) -> ViewPlan:
    """Classify a view query as incrementally maintainable or not.

    The plan's ``deps`` are the catalog names the materialization reads:
    every graph/table name referenced anywhere in the query (pattern
    locations, set operations, construct unions, FROM imports, EXISTS
    subqueries), plus the default graph when a block has no ``ON``.
    Its ``path_deps`` are the catalog PATH views the regexes name,
    followed through the clauses of those views. Names that do not
    resolve in the catalog (query-local GRAPH and PATH bindings, typos
    that would fail evaluation) are dropped. The over-approximation only
    costs spurious recomputes, never stale reads.
    """
    refs: Set[str] = set()
    paths: Set[str] = set()
    uses_default = _collect_refs(query, refs, paths)
    path_deps: Set[str] = set()
    while paths:
        name = paths.pop()
        clause = catalog.path_view(name)
        if clause is not None and name not in path_deps:
            path_deps.add(name)
            uses_default |= _collect_refs(clause, refs, paths)
    if uses_default and catalog.default_graph_name is not None:
        refs.add(catalog.default_graph_name)
    deps = tuple(sorted(name for name in refs if catalog.has_graph(name)))
    plan = _incremental_plan(query, catalog, deps, uses_default)
    if isinstance(plan, str):
        plan = ViewPlan("full", plan, deps, uses_default=uses_default)
    return replace(plan, path_deps=tuple(sorted(path_deps)))


def _incremental_plan(query, catalog, deps, uses_default):
    """A :class:`ViewPlan` when eligible, else the ineligibility reason."""
    if query.heads:
        return "query-local GRAPH/PATH head clauses"
    body = query.body
    if not isinstance(body, ast.BasicQuery):
        return "set operation or graph reference body"
    if body.from_table is not None:
        return "FROM table import"
    if not isinstance(body.head, ast.ConstructClause):
        return "SELECT head (tables are not materialized views)"
    if body.match is None:
        return "no MATCH clause"
    if body.match.optionals:
        return "OPTIONAL blocks (left outer join is not monotone)"
    block = body.match.block
    targets = pattern_targets(
        block, catalog.default_graph_name,
        lambda on: on if isinstance(on, str) else _SUBQUERY,
    )
    base = targets[0]
    if _SUBQUERY in targets:
        return "ON (subquery) pattern location"
    if base is None:
        return "no default graph to resolve an ON-less pattern"
    if any(target != base for target in targets):
        return "patterns over multiple graphs"
    if not catalog.is_base_graph(base):
        return f"target {base!r} is not a mutable base graph"
    node_vars: List[str] = []
    edge_orientations: Dict[str, Tuple[str, str]] = {}
    for location in block.patterns:
        chain = location.chain
        chain_nodes: List[str] = []
        for element in chain.nodes():
            if element.var is None:
                return "anonymous node pattern (cannot be delta-seeded)"
            chain_nodes.append(element.var)
            node_vars.append(element.var)
        for index, connector in enumerate(chain.connectors()):
            if isinstance(connector, ast.PathPatternElem):
                return "path pattern atom (non-local reachability)"
            if connector.direction == ast.UNDIRECTED:
                return "undirected edge pattern"
            if connector.var:
                if connector.direction == ast.OUT:
                    effective = (chain_nodes[index], chain_nodes[index + 1])
                else:
                    effective = (chain_nodes[index + 1], chain_nodes[index])
                previous = edge_orientations.get(connector.var)
                if previous is not None and previous != effective:
                    return "edge variable reused between different endpoints"
                edge_orientations[connector.var] = effective
    if any(isinstance(node, ast.SUBQUERIES) for node in ast.walk(block.where)):
        return "EXISTS / pattern predicate in WHERE (non-local)"
    match_node_vars = frozenset(node_vars)
    items: List[ItemSpec] = []
    for item in body.head.items:
        if isinstance(item, ast.GraphRefItem):
            return "graph union item in CONSTRUCT"
        spec = identity_item_spec(item, match_node_vars, edge_orientations)
        if spec is None:
            return (
                "non-identity construct item (aggregates, SET/REMOVE, "
                "WHEN, labels, copies or unbound variables)"
            )
        items.append(spec)
    return ViewPlan(
        "incremental",
        "join-delta over touched bindings",
        deps,
        base=base,
        node_vars=tuple(dict.fromkeys(node_vars)),
        items=tuple(items),
        uses_default=uses_default,
    )


def describe_strategy(plan: ViewPlan) -> str:
    """The one-line strategy report EXPLAIN and the REPL print."""
    if plan.strategy == "incremental":
        return "incremental (join-delta over touched bindings)"
    return f"full recompute ({plan.reason})"


# ---------------------------------------------------------------------------
# Support counting
# ---------------------------------------------------------------------------

def _tally(
    plan: ViewPlan,
    table: BindingTable,
    sign: int,
    counts: Dict[ObjectId, int],
) -> None:
    """Accumulate per-object support changes of *table*'s identity rows."""
    nrows = len(table)
    if not nrows:
        return
    for item_nodes, item_edges in plan.items:
        vectors = [
            table.column_values(var) for var in (*item_nodes, *item_edges)
        ]
        if any(vector is None for vector in vectors):
            continue  # a variable the table never stored: no productions
        for index in range(nrows):
            objects = {vector[index] for vector in vectors}
            objects.discard(ABSENT)  # eligible blocks bind totally; guard
            for obj in objects:
                counts[obj] = counts.get(obj, 0) + sign


def build_state(plan: ViewPlan, omega: BindingTable) -> ViewState:
    """Support counts of an eligible view from its full binding table."""
    state = ViewState()
    _tally(plan, omega, +1, state.support)
    return state


# ---------------------------------------------------------------------------
# Maintenance
# ---------------------------------------------------------------------------

def evaluate_view(
    query: ast.Query, ctx: EvalContext
) -> Tuple[PathPropertyGraph, ViewPlan, Optional[ViewState]]:
    """Evaluate view *query* from scratch over ``ctx.catalog``: its graph,
    maintenance plan and (incremental plans only) support counts.

    An incremental plan captures the MATCH binding table through
    ``ctx.omega_sink`` (exactly one top-level table), so the counts cost
    no second evaluation.
    """
    from .query import evaluate_query  # local import: cycle

    plan = analyze_view(query, ctx.catalog)
    sink: Optional[List[BindingTable]] = (
        [] if plan.strategy == "incremental" else None
    )
    ctx.omega_sink = sink
    result = evaluate_query(query, ctx)
    if not isinstance(result, PathPropertyGraph):
        raise SemanticError("a GRAPH VIEW must be defined by a graph query")
    return result, plan, build_state(plan, sink[0]) if sink else None


def commit_with_views(
    catalog: "Catalog",
    ids: IdFactory,
    write: Callable[["Catalog"], None],
    effects: Optional["DeltaEffects"] = None,
) -> "Catalog":
    """The next version of *catalog*: *write* applied together with
    every view it changes.

    The write runs on a :meth:`~repro.catalog.Catalog.copy`. Each view
    that reads a name whose epoch the write bumped — directly, through
    other views, through a moved default pointer, or through a
    redefined PATH view — is then recomputed over the copy, after the
    views it reads. A view whose plan is incremental is patched from
    *effects* (the write applied that delta to its base); any other is
    evaluated from scratch. *catalog* itself is never written, so if
    anything raises nothing has changed. Returns the copy, for the
    caller to publish.
    """
    staged = catalog.copy()
    write(staged)
    for name in _dependents(catalog, staged):
        meta = staged.view_meta(name)
        query = staged.view_query(name)
        if effects is not None and meta.plan.strategy == "incremental":
            plan = meta.plan
            graph, state = _patch(name, query, plan, meta.state, catalog,
                                  staged, ids, effects)
        else:
            graph, plan, state = evaluate_view(query, EvalContext(staged, ids))
        staged.register_view(name, query, graph, plan, state)
    return staged


def _dependents(catalog: "Catalog", staged: "Catalog") -> List[str]:
    """The views of *staged* (a write applied to a copy of *catalog*)
    that the write changes, each listed after every view it reads."""
    moved = staged.default_graph_name != catalog.default_graph_name
    plans = {name: staged.view_meta(name).plan for name in staged.view_names()}
    affected: Set[str] = set()
    while True:
        grown = {
            name
            for name, plan in plans.items()
            if (moved and plan.uses_default)
            or any(
                dep in affected or staged.epoch(dep) != catalog.epoch(dep)
                for dep in plan.deps
            )
            or any(
                staged.path_view_epoch(dep) != catalog.path_view_epoch(dep)
                for dep in plan.path_deps
            )
        }
        if grown == affected:
            break
        affected = grown
    order: List[str] = []
    while affected:
        ready = sorted(
            name for name in affected if affected.isdisjoint(plans[name].deps)
        )
        if not ready:
            raise SemanticError(
                f"views {', '.join(sorted(affected))} read themselves "
                f"(a GRAPH VIEW cycle)"
            )
        order += ready
        affected.difference_update(ready)
    return order


def _patch(
    name: str,
    query: ast.Query,
    plan: ViewPlan,
    state: ViewState,
    catalog: "Catalog",
    staged: "Catalog",
    ids: IdFactory,
    effects: "DeltaEffects",
) -> Tuple[PathPropertyGraph, ViewState]:
    """View *name* patched for a delta on its base: *catalog* still holds
    the old base, *staged* the new one; *effects* is what the delta
    touched."""
    new_graph = staged.base_graph(plan.base)
    block = query.body.match.block
    removed_rows = match_rows_touching(
        block, EvalContext(catalog, ids), plan.node_vars, effects.touched_nodes
    )
    added_rows = match_rows_touching(
        block, EvalContext(staged, ids), plan.node_vars, effects.touched_nodes
    )

    changes: Dict[ObjectId, int] = {}
    _tally(plan, removed_rows, -1, changes)
    _tally(plan, added_rows, +1, changes)
    support = dict(state.support)
    dropped: Set[ObjectId] = set()
    entered: Set[ObjectId] = set()
    for obj, change in changes.items():
        before = support.get(obj, 0)
        after = before + change
        if after < 0:
            raise RuntimeError(
                f"view {name!r}: support of {obj!r} went negative "
                f"(maintenance is out of step with the base graph)"
            )
        if after:
            support[obj] = after
        else:
            support.pop(obj, None)
        if before and not after:
            dropped.add(obj)
        elif after and not before:
            entered.add(obj)

    old_view = catalog.graph(name)
    nodes = set(old_view.nodes)
    edges = old_view.rho
    paths = old_view.delta
    labels = old_view.label_map()
    # Copy-on-write per object: an unchanged object keeps the old view's
    # property dict; refresh_annotations installs a new one, never edits.
    props = dict(old_view._props)

    def refresh_annotations(obj: ObjectId) -> None:
        current_labels = new_graph.labels(obj)
        if current_labels:
            labels[obj] = current_labels
        else:
            labels.pop(obj, None)
        current_props = new_graph.properties(obj)
        if current_props:
            props[obj] = current_props
        else:
            props.pop(obj, None)

    for obj in dropped:
        nodes.discard(obj)
        edges.pop(obj, None)
        labels.pop(obj, None)
        props.pop(obj, None)
    for obj in entered:
        if obj in new_graph.edges:
            edges[obj] = new_graph.endpoints(obj)
        else:
            nodes.add(obj)
        refresh_annotations(obj)
    for obj in effects.touched:
        if obj in entered or obj in dropped:
            continue
        if obj in nodes or obj in edges:
            refresh_annotations(obj)

    result = PathPropertyGraph._assemble_normalized(
        frozenset(nodes), edges, paths, labels, props, name=name
    )
    return result, ViewState(support)
