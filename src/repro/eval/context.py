"""Evaluation context: scoping, identifier generation, object lookup.

A query evaluation owns one :class:`EvalContext`. It layers query-local
state (GRAPH/PATH head clauses, the graphs touched by the current MATCH)
over the engine :class:`~repro.catalog.Catalog`, provides the skolem
``new(x, group)`` function of Appendix A.3 via :class:`IdFactory`, and
answers "which graph does this object live in?" questions for label and
property lookups — necessary because one MATCH may bind objects from
several graphs (multi-graph queries, Section 3).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..algebra.binding import BindingTable
from ..catalog import Catalog
from ..config import DEFAULT_CONFIG
from ..errors import EvaluationError, UnknownGraphError, ValidationError
from ..model.graph import ObjectId, PathPropertyGraph
from ..model.values import EMPTY_SET, ValueSet
from ..paths.product import ViewSegment
from ..paths.walk import Walk

__all__ = ["IdFactory", "EvalContext", "chain_reads_stay_in"]

_MAX_DEPTH = 64
_NO_PROPS: Dict[str, ValueSet] = {}


def chain_reads_stay_in(
    chain: Iterable[PathPropertyGraph],
    graph: PathPropertyGraph,
    objects: FrozenSet[ObjectId],
) -> bool:
    """Is *graph* the first graph of *chain* containing each of *objects*?

    *objects* are identifiers of *graph*. Shared with EXPLAIN, which
    knows the chain of a block without having an :class:`EvalContext`.
    """
    for earlier in chain:
        if earlier is graph:
            return True
        if not (
            objects.isdisjoint(earlier.nodes)
            and objects.isdisjoint(earlier.edges)
            and objects.isdisjoint(earlier.paths)
        ):
            return False
    return False


class IdFactory:
    """Deterministic fresh identifiers and the skolem ``new`` function.

    ``new(site, key)`` returns the same identifier for the same construct
    site and grouping key within one query evaluation, and a fresh one
    otherwise — exactly the behaviour Appendix A.3 requires of ``new``.

    Thread-safe: the engine shares one factory across every query it
    runs, and the query server executes snapshot readers on a thread
    pool. ``fresh`` draws from an atomic counter, and ``skolem``
    publishes memo entries with a single ``setdefault`` so two threads
    racing on the same (site, key) agree on one identifier — a
    check-then-set here could tear a CONSTRUCT result across ids.
    """

    def __init__(self, prefix: str = "_") -> None:
        self._prefix = prefix
        self._counter = itertools.count(1)
        self._memo: Dict[Tuple[Any, ...], str] = {}

    def fresh(self, kind: str = "n") -> str:
        """An identifier never returned before by this factory."""
        return f"{self._prefix}{kind}{next(self._counter)}"

    def skolem(self, kind: str, site: Any, key: Any) -> str:
        """The memoized identifier for (construct site, group key)."""
        memo_key = (kind, site, key)
        existing = self._memo.get(memo_key)
        if existing is not None:
            return existing
        return self._memo.setdefault(memo_key, self.fresh(kind))


class EvalContext:
    """Per-query evaluation state."""

    def __init__(
        self,
        catalog: Catalog,  # or a read-only CatalogSnapshot (same read API)
        id_factory: Optional[IdFactory] = None,
        depth: int = 0,
        config: str = DEFAULT_CONFIG,
    ) -> None:
        if config != DEFAULT_CONFIG:
            raise ValidationError(
                f"config={config!r}: the engine has one mode, DEFAULT_CONFIG"
            )
        self.catalog = catalog
        self.ids = id_factory or IdFactory()
        self.depth = depth
        # Values for $name query parameters (engine.run(..., params=...)).
        self.params: Dict[str, Any] = {}
        # Query-local graph bindings (GRAPH name AS (...)) and path views.
        self.local_graphs: Dict[str, PathPropertyGraph] = {}
        self.local_path_views: Dict[str, Any] = {}  # name -> ast.PathClause
        # Graphs touched by the current match; drives object lookup.
        self.active_graphs: List[PathPropertyGraph] = []
        # The graph of the current block's first pattern (used by ON-less
        # patterns and WHERE pattern predicates).
        self.current_graph: Optional[PathPropertyGraph] = None
        # Memoized block plans, installed by PreparedQuery executions
        # (see repro.eval.planner.PlanCache); None = plan every block.
        self.plan_cache = None
        # When a list, the top-level BasicQuery appends its MATCH binding
        # table here before the head clause consumes it. View
        # registration uses this to capture the Omega that seeds the
        # incremental-maintenance support counts (repro.eval.maintenance)
        # without evaluating the MATCH twice. Deliberately NOT inherited
        # by child contexts: subquery tables are not the view's Omega.
        self.omega_sink = None
        # Overlay for objects under construction (WHEN conditions can read
        # the properties of elements the CONSTRUCT is creating).
        self.overlay_labels: Dict[ObjectId, FrozenSet[str]] = {}
        self.overlay_props: Dict[ObjectId, Dict[str, ValueSet]] = {}
        # Query-lived PATH-view segments (see segments_for).
        self._segment_cache: Dict[
            Tuple[str, int], Mapping[ObjectId, Tuple[ViewSegment, ...]]
        ] = {}

    # ------------------------------------------------------------------
    def child(self) -> "EvalContext":
        """A nested context for subqueries (shares catalog, ids, locals)."""
        if self.depth + 1 > _MAX_DEPTH:
            raise EvaluationError("query nesting too deep")
        child = type(self)(self.catalog, self.ids, self.depth + 1)
        child.params = self.params
        child.local_graphs = dict(self.local_graphs)
        child.local_path_views = dict(self.local_path_views)
        child.active_graphs = list(self.active_graphs)
        child.current_graph = self.current_graph
        child.plan_cache = self.plan_cache
        child.overlay_labels = self.overlay_labels
        child.overlay_props = self.overlay_props
        child._segment_cache = self._segment_cache
        return child

    def match_block(
        self, block: Any, seed: Optional[BindingTable]
    ) -> Optional[BindingTable]:
        """MATCH *block* evaluated some other way, or None (the engine's
        :func:`~repro.eval.match.evaluate_block`): the oracle's test seam."""
        return None

    # ------------------------------------------------------------------
    def resolve_graph(self, name: str) -> PathPropertyGraph:
        """Resolve a graph name: query-locals shadow the catalog."""
        if name in self.local_graphs:
            return self.local_graphs[name]
        return self.catalog.graph(name)

    def default_graph(self) -> PathPropertyGraph:
        graph = self.catalog.default_graph()
        if graph is None:
            raise UnknownGraphError("<default>")
        return graph

    def resolve_path_view(self, name: str):
        """Resolve a PATH view definition (query-local, then catalog)."""
        if name in self.local_path_views:
            return self.local_path_views[name]
        return self.catalog.path_view(name)

    # ------------------------------------------------------------------
    def touch_graph(self, graph: PathPropertyGraph) -> None:
        """Record that the current evaluation reads *graph*."""
        for existing in self.active_graphs:
            if existing is graph:
                return
        self.active_graphs.append(graph)

    def _lookup_chain(self):
        yield from self.active_graphs
        default = self.catalog.default_graph()
        if default is not None:
            yield default

    def graph_of(self, obj: ObjectId) -> Optional[PathPropertyGraph]:
        """The first active graph containing *obj* (None if nowhere)."""
        # _lookup_chain() unrolled: its generator dominated this hot path.
        for graph in self.active_graphs:
            if obj in graph:
                return graph
        default = self.catalog.default_graph()
        if default is not None and obj in default:
            return default
        return None

    def property_reads_stay_in(
        self, graph: PathPropertyGraph, objects: FrozenSet[ObjectId]
    ) -> bool:
        """Does :meth:`lookup_property` read *graph* for each of *objects*?

        True only when nothing is under construction and every graph
        ahead of *graph* in the lookup chain contains none of them —
        the condition under which *graph*'s own value index may stand in
        for the lookup.
        """
        return not self.overlay_props and chain_reads_stay_in(
            self._lookup_chain(), graph, objects
        )

    def lookup_labels(self, obj: ObjectId) -> FrozenSet[str]:
        """Labels of *obj*, consulting the construct overlay first."""
        labels = self.overlay_labels.get(obj)
        if labels is not None:
            return labels
        graph = self.graph_of(obj)
        if graph is None:
            return frozenset()
        return graph.labels(obj)

    def lookup_property(self, obj: ObjectId, key: str) -> ValueSet:
        """sigma(obj, key), consulting the construct overlay first."""
        props = self.overlay_props.get(obj)
        if props is not None:
            return props.get(key, frozenset())
        graph = self.graph_of(obj)
        if graph is None:
            return frozenset()
        return graph.property(obj, key)

    def direct_graph(self) -> PathPropertyGraph:
        """The graph :meth:`graph_of` tries first (an empty one if none),
        whose stores column readers read in place."""
        if self.active_graphs:
            return self.active_graphs[0]
        return self.catalog.default_graph() or PathPropertyGraph()

    def property_column(self, values: Sequence[Any], key: str) -> List[ValueSet]:
        """``v.key`` for each of *values*, as :meth:`lookup_property`
        answers it; None, walks, value sets and lists carry no properties."""
        graph = self.direct_graph()
        nodes, edges, paths, store = graph._nodes, graph._edges, graph._paths, graph._props
        overlay, lookup = self.overlay_props, self.lookup_property
        out: List[ValueSet] = []
        for value in values:
            if value is None or isinstance(value, (Walk, frozenset, tuple)):
                out.append(EMPTY_SET)
            elif value not in overlay and (value in nodes or value in edges or value in paths):
                out.append(store.get(value, _NO_PROPS).get(key, EMPTY_SET))
            else:
                out.append(lookup(value, key))
        return out

    def lookup_properties(self, obj: ObjectId) -> Dict[str, ValueSet]:
        props = self.overlay_props.get(obj)
        if props is not None:
            return dict(props)
        graph = self.graph_of(obj)
        if graph is None:
            return {}
        return graph.properties(obj)

    # ------------------------------------------------------------------
    def require_path_view(self, name: str):
        """Resolve path view *name* or raise :class:`UnknownPathViewError`.

        Match evaluation calls this eagerly for every view a block's
        regexes mention: whether the path atom itself ever runs depends
        on the data and the planner's atom order (an empty binding table
        short-circuits the rest of the block), but name-resolution
        errors must not — the static analyzer reports GC105 whatever
        the data, so execution has to raise whatever the atom order.
        """
        clause = self.resolve_path_view(name)
        if clause is None:
            from ..errors import UnknownPathViewError

            known = list(self.local_path_views)
            names_of = getattr(self.catalog, "path_view_names", None)
            if callable(names_of):
                known.extend(names_of())
            raise UnknownPathViewError(name, candidates=known)
        return clause

    def segments_for(
        self, name: str, graph: PathPropertyGraph
    ) -> Mapping[ObjectId, Tuple[ViewSegment, ...]]:
        """Materialized segments of path view *name* over *graph* (cached).

        Keyed by the resolved clause, not its name (nested scopes may reuse
        it); memoized on the graph per clause unless
        :func:`~repro.eval.pathviews.per_query_reason` objects.
        """
        from .pathviews import materialize_path_view, per_query_reason  # cycle

        clause = self.require_path_view(name)
        # repr, not the clause: Literal(1) == Literal(TRUE) as dataclasses.
        text = repr(clause)
        chain = None if self.overlay_labels or self.overlay_props else self._lookup_chain()
        if per_query_reason(clause, chain, graph) is None:
            return graph.view_segments(text, lambda: materialize_path_view(clause, graph, self))
        key = (text, id(graph))
        segments = self._segment_cache.get(key)
        if segments is None:
            segments = materialize_path_view(clause, graph, self)
            self._segment_cache[key] = segments
        return segments
