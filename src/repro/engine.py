"""The public entry point: :class:`GCoreEngine`.

An engine holds a :class:`~repro.catalog.Catalog` of named graphs, tables
and views, and executes G-CORE statements against it:

>>> from repro import GCoreEngine
>>> from repro.datasets import social_graph, company_graph
>>> engine = GCoreEngine()
>>> engine.register_graph("social_graph", social_graph(), default=True)
>>> engine.register_graph("company_graph", company_graph())
>>> g = engine.run("CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'")
>>> sorted(g.nodes)
['alice', 'john']

``run`` returns a :class:`~repro.model.graph.PathPropertyGraph` for graph
queries, a :class:`~repro.table.Table` for SELECT queries, and a
:class:`~repro.eval.query.ViewResult` for GRAPH VIEW statements. The
engine is composability in action: any returned graph can be registered
and queried again (the paper's central design goal).

Repeated traffic is served from a **prepared-query plan cache**:
``run(text)`` keeps an LRU of :class:`PreparedQuery` objects keyed by the
exact query text, so the second and later executions of the same
statement skip lexing, parsing and planning entirely. ``prepare(text)``
exposes the same object directly for parameterized hot loops::

    prepared = engine.prepare("CONSTRUCT (n) MATCH (n:Person) "
                              "WHERE n.employer = $company")
    for company in companies:
        prepared.run(params={"company": company})

Any catalog mutation (``register_graph``, ``register_table``,
``set_default_graph``, ``refresh_view``, ``register_path_view``)
invalidates the cache — a prepared statement may reference catalog names
whose meaning just changed. Per-graph block plans inside a
:class:`PreparedQuery` are additionally keyed by graph object identity,
so a ``PreparedQuery`` held across an invalidation still executes
correctly; only its memoized plans go cold.

Graphs mutate through **deltas**: ``apply_update(name, delta)`` applies a
:class:`~repro.model.delta.GraphDelta` (node/edge/label/property inserts
and removals), validates it against the entry's schema, records it on the
entry's changelog, and adjusts the graph's planner statistics in
O(|delta|). Deltas keep prepared queries hot (only plans against the
superseded graph object are purged) and make dependent ``GRAPH VIEW``
materializations *incrementally* refreshable — see
:meth:`GCoreEngine.refresh_view` and :mod:`repro.eval.maintenance`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Set, Union

from .catalog import Catalog, CatalogSnapshot
from .analysis import AnalysisResult, analyze as analyze_statement
from .errors import (
    AnalysisError,
    EvaluationError,
    SemanticError,
    StaleViewError,
    UnknownGraphError,
)
from .eval.context import EvalContext, IdFactory
from .eval.match import evaluate_match
from .eval.planner import PlanCache
from .eval.query import QueryResult, ViewResult, evaluate_statement
from .lang import ast
from .lang.lexer import tokenize
from .lang.parser import Parser
from .model.delta import GraphDelta, apply_delta
from .model.graph import PathPropertyGraph
from .table import Table
from .algebra.binding import BindingTable

__all__ = ["EngineSnapshot", "GCoreEngine", "PreparedQuery"]


def _collect_params(node, names: Set[str]) -> None:
    """Collect ``$name`` parameter slots from an AST (frozen dataclasses)."""
    if isinstance(node, ast.Param):
        names.add(node.name)
    if hasattr(node, "__dataclass_fields__"):
        for field in node.__dataclass_fields__:
            _collect_params(getattr(node, field), names)
    elif isinstance(node, (tuple, list, frozenset)):
        for item in node:
            _collect_params(item, names)


class PreparedQuery:
    """A parsed, plannable statement that can be executed many times.

    Holds the parsed AST, the ``$name`` parameter slots found in it, and
    a :class:`~repro.eval.planner.PlanCache` of block plans (filled on
    first execution, replayed afterwards). Obtained from
    :meth:`GCoreEngine.prepare`; ``engine.run(text)`` transparently
    reuses prepared queries through the engine's LRU cache.
    """

    __slots__ = ("engine", "text", "statement", "param_names", "plans",
                 "executions")

    def __init__(
        self, engine: "GCoreEngine", text: str, statement: ast.Statement
    ) -> None:
        self.engine = engine
        self.text = text
        self.statement = statement
        names: Set[str] = set()
        _collect_params(statement, names)
        self.param_names = frozenset(names)
        self.plans = PlanCache()
        self.executions = 0

    def run(self, params: Optional[dict] = None) -> QueryResult:
        """Execute the prepared statement (optionally with parameters)."""
        return self._execute(params, catalog=None)

    def _execute(
        self,
        params: Optional[dict],
        catalog: Optional[CatalogSnapshot],
    ) -> QueryResult:
        """The one way a prepared statement runs (engine and snapshot).

        It alone installs :attr:`plans`, and only for runs that match
        what the cached block plans were made for: every ``$param`` of
        the statement bound (pushdown depends on which are present).
        """
        missing = self.param_names - set(params or ())
        if missing:
            raise EvaluationError(
                f"missing query parameters: {sorted(missing)}"
            )
        self.executions += 1
        return self.engine._execute(
            self.statement, params, plans=self.plans, catalog=catalog
        )

    def explain(self) -> str:
        """The engine's EXPLAIN sketch for this statement."""
        return self.engine.explain(self.text)

    def __repr__(self) -> str:
        return (
            f"<PreparedQuery {self.text[:40]!r}... executions="
            f"{self.executions}>"
            if len(self.text) > 40
            else f"<PreparedQuery {self.text!r} executions={self.executions}>"
        )


class EngineSnapshot:
    """A consistent, read-only view of the engine for one reader.

    Obtained from :meth:`GCoreEngine.snapshot`. All reads through this
    object — ``run``, ``execute_prepared``, ``graph`` — resolve against
    the catalog version captured at acquisition time: updates applied
    concurrently through :meth:`GCoreEngine.apply_update` land on later
    epochs and are invisible here. The snapshot refcounts the graph
    versions it pins; superseded versions are retained by the catalog
    until the last pinning snapshot releases (see ``docs/consistency.md``).

    Use as a context manager, or call :meth:`release` explicitly::

        with engine.snapshot() as snap:
            table = snap.run("SELECT n.name MATCH (n:Person)")

    Mutating statements (``GRAPH VIEW``) and catalog mutations raise
    :class:`~repro.errors.SemanticError` — writes go through the live
    engine, never through a snapshot.
    """

    __slots__ = ("engine", "catalog")

    def __init__(self, engine: "GCoreEngine", catalog: CatalogSnapshot) -> None:
        self.engine = engine
        self.catalog = catalog

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "EngineSnapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def release(self) -> None:
        """Drop the reader refcounts (idempotent); reads stay usable."""
        with self.engine._lock:
            self.catalog.release()

    @property
    def released(self) -> bool:
        return self.catalog.released

    # -- reads ----------------------------------------------------------
    def run(
        self,
        text: str,
        params: Optional[dict] = None,
        strict: bool = False,
    ) -> QueryResult:
        """Execute one read-only statement against the pinned catalog.

        Shares the engine's prepared-query LRU (parsing and planning are
        memoized across snapshots; block plans are keyed by graph
        object identity, so plans never leak between catalog versions).
        ``strict=True`` analyzes the statement against the pinned
        catalog first and raises :class:`~repro.errors.AnalysisError`
        when any error-level diagnostic is found.
        """
        if strict:
            result = self.analyze(text)
            if not result.ok:
                raise AnalysisError(result)
        return self.execute_prepared(self.engine.prepare(str(text)), params)

    def analyze(self, text_or_statement) -> AnalysisResult:
        """Statically analyze a statement against the pinned catalog.

        Same contract as :meth:`GCoreEngine.analyze`, resolved against
        this snapshot's catalog version.
        """
        return analyze_statement(text_or_statement, self.catalog)

    def execute_prepared(
        self,
        prepared: PreparedQuery,
        params: Optional[dict] = None,
    ) -> QueryResult:
        """Execute a :class:`PreparedQuery` against the pinned catalog."""
        if isinstance(prepared.statement, ast.GraphViewStmt):
            raise SemanticError(
                "GRAPH VIEW statements mutate the catalog and cannot run "
                "on a read-only snapshot"
            )
        return prepared._execute(params, catalog=self.catalog)

    def graph(self, name: str) -> PathPropertyGraph:
        """The pinned version of graph or view *name*."""
        return self.catalog.graph(name)

    def epoch(self, name: str) -> int:
        """The pinned change epoch of *name*."""
        return self.catalog.epoch(name)

    def explain(self, text: str) -> str:
        """The engine's EXPLAIN sketch, resolved against this snapshot."""
        return self.engine.explain(text, catalog=self.catalog)


class GCoreEngine:
    """An in-memory G-CORE query engine over a graph catalog."""

    #: Default capacity of the text -> PreparedQuery LRU cache.
    PLAN_CACHE_SIZE = 128

    def __init__(self) -> None:
        self.catalog = Catalog()
        self._ids = IdFactory()
        self._prepared: "OrderedDict[str, PreparedQuery]" = OrderedDict()
        self._prepared_hits = 0
        self._prepared_misses = 0
        # Serializes catalog mutations, prepared-LRU bookkeeping and
        # snapshot acquire/release. Query *execution* runs outside the
        # lock: readers hold immutable snapshots, so only the short
        # bookkeeping sections contend. Reentrant because mutations call
        # clear_plan_cache (also locked) internally.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Binary snapshots (the Storage API)
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path: str) -> "GCoreEngine":
        """An engine over the graphs and tables of a snapshot file.

        Reads *path* (written by :meth:`save` /
        :func:`repro.storage.save_snapshot`) once, verifies every
        section checksum, and registers each stored graph as an ordinary
        :class:`~repro.model.graph.PathPropertyGraph` with its stored
        statistics adopted. A corrupt file raises
        :class:`~repro.errors.SnapshotFormatError` here, never later.
        The file is closed before this returns: saving over *path*
        cannot disturb the engine, and :meth:`apply_update` leaves the
        file untouched.
        """
        from .storage import open_snapshot

        snapshot = open_snapshot(path)
        engine = cls()
        default = snapshot.default_graph_name
        for name in snapshot.graph_names():
            engine.register_graph(
                name, snapshot.graph(name), default=(name == default)
            )
        for name in snapshot.table_names():
            engine.register_table(name, snapshot.table(name))
        return engine

    def save(self, path: str) -> None:
        """Persist the catalog's base graphs and tables to *path*.

        Serializes a consistent MVCC snapshot (concurrent
        :meth:`apply_update` writers land on later epochs and are not
        torn into the file). Materialized views and path views are
        derived state and are not stored; re-register them against the
        reopened engine. See ``docs/storage.md`` for format and limits.
        """
        from .storage import save_snapshot

        with self.snapshot() as snap:
            save_snapshot(snap.catalog, path)

    # ------------------------------------------------------------------
    # Catalog management
    # ------------------------------------------------------------------
    def register_graph(
        self,
        name: str,
        graph: PathPropertyGraph,
        default: bool = False,
        schema=None,
    ) -> None:
        """Register *graph* under *name*; the first graph becomes default.

        Re-registering an existing name replaces the graph wholesale:
        dependent materialized views become **stale** (visible through
        :meth:`get_graph`, :meth:`stale_views` and the REPL ``.views``
        command) until :meth:`refresh_view` recomputes them. An optional
        *schema* (:class:`~repro.model.schema.GraphSchema`) is attached
        to the catalog entry and enforced by :meth:`apply_update`.
        """
        with self._lock:
            self.catalog.register_graph(
                name, graph, default=default, schema=schema
            )
            self.clear_plan_cache()

    def apply_update(
        self,
        graph: Union[str, PathPropertyGraph],
        delta: GraphDelta,
        schema=None,
    ) -> PathPropertyGraph:
        """Apply a :class:`~repro.model.delta.GraphDelta` to a base graph.

        *graph* is a catalog name (or a registered graph whose ``name``
        resolves in the catalog). The delta is validated structurally
        (:func:`~repro.model.delta.apply_delta`) and — when the entry
        carries a schema, or *schema* is passed explicitly — the added
        and modified objects are re-checked against it. The resulting
        graph replaces the catalog entry and the change is recorded on
        the entry's changelog, which is what lets dependent views refresh
        incrementally (:meth:`refresh_view`) instead of recomputing.

        Consistency hooks, in order: the new graph inherits the old
        one's :class:`~repro.model.statistics.GraphStatistics` adjusted
        in O(|delta|) (no O(N + E) rebuild); prepared queries stay
        cached, but their memoized block plans against the superseded
        graph object are purged (plans re-resolve against the new graph
        on the next execution). Returns the new graph.
        """
        name = graph if isinstance(graph, str) else graph.name
        with self._lock:
            base = self.catalog.base_graph(name)
            new_graph, effects = apply_delta(base, delta)
            active_schema = (
                schema if schema is not None else self.catalog.schema(name)
            )
            if active_schema is not None:
                active_schema.validate_objects(
                    new_graph, effects.validation_targets(new_graph)
                )
            cached_stats = base.cached_statistics()
            if cached_stats is not None:
                # apply_delta returns a *new* GraphStatistics: readers
                # pinned to the superseded graph keep its original stats
                # object untouched (copy-on-write, never in-place).
                new_graph.adopt_statistics(
                    cached_stats.apply_delta(base, new_graph, effects)
                )
            self.catalog.commit_update(name, new_graph, delta, effects)
            for prepared in self._prepared.values():
                prepared.plans.purge_graph(base)
        return new_graph

    def register_table(self, name: str, table: Table) -> None:
        """Register a table for the Section 5 tabular extensions."""
        with self._lock:
            self.catalog.register_table(name, table)
            self.clear_plan_cache()

    def register_path_view(self, text_or_clause) -> str:
        """Register a persistent PATH view from source text or an AST node.

        Accepts either ``"PATH name = (x)-[e:knows]->(y) COST ..."`` text
        or a pre-parsed :class:`~repro.lang.ast.PathClause`.
        """
        if isinstance(text_or_clause, ast.PathClause):
            clause = text_or_clause
        else:
            parser = Parser(tokenize(str(text_or_clause)))
            clause = parser._path_clause()
            parser.expect_eof()
        with self._lock:
            self.catalog.register_path_view(clause.name, clause)
            self.clear_plan_cache()
        return clause.name

    def graph(self, name: str) -> PathPropertyGraph:
        """Look up a registered graph or materialized view by name.

        Lenient: a stale view returns its last materialization. Use
        :meth:`get_graph` when staleness must not go unnoticed.
        """
        return self.catalog.graph(name)

    def get_graph(
        self, name: str, allow_stale: bool = False
    ) -> PathPropertyGraph:
        """The strict graph accessor: stale views are surfaced, not served.

        Raises :class:`~repro.errors.StaleViewError` when *name* is a
        materialized view whose base graphs changed (re-registration or
        :meth:`apply_update`) since its materialization — call
        :meth:`refresh_view` first, or pass ``allow_stale=True`` to read
        the old materialization deliberately. Unknown names raise
        :class:`~repro.errors.UnknownGraphError` as usual.
        """
        graph = self.catalog.graph(name)
        if not allow_stale and self.catalog.is_view_stale(name):
            raise StaleViewError(name)
        return graph

    def stale_views(self) -> List[str]:
        """Views whose dependencies changed since materialization."""
        return self.catalog.stale_views()

    def table(self, name: str) -> Table:
        """Look up a registered table by name."""
        return self.catalog.table(name)

    def set_default_graph(self, name: str) -> None:
        with self._lock:
            if not self.catalog.has_graph(name):
                raise UnknownGraphError(name, candidates=self.catalog.graph_names())
            self.catalog.default_graph_name = name
            self.clear_plan_cache()

    def refresh_view(
        self, name: str, incremental: bool = True
    ) -> PathPropertyGraph:
        """Bring a GRAPH VIEW up to date with its base graphs.

        Maintenance is **incremental** whenever possible: if the view's
        query is delta-eligible (single conjunctive MATCH over one base
        graph, identity CONSTRUCT — see :mod:`repro.eval.maintenance`)
        and every base-graph change since the last materialization was an
        :meth:`apply_update` delta, the materialization is *patched* from
        the changelog at a cost proportional to the deltas. Anything else
        — path atoms, aggregates, OPTIONAL, a wholesale
        ``register_graph`` replacement — falls back to from-scratch
        recomputation, which ``incremental=False`` also forces (the
        baseline the property suite compares against). A view
        whose dependencies did not change is returned as-is. Returns the
        current materialization.
        """
        from .eval.maintenance import refresh_view as run_refresh

        with self._lock:
            ctx = EvalContext(self.catalog, self._ids)
            result, strategy = run_refresh(name, ctx, incremental=incremental)
            if strategy != "unchanged":
                self.clear_plan_cache()
        return result.with_name(name)

    # ------------------------------------------------------------------
    # MVCC snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> EngineSnapshot:
        """Acquire a consistent read-only :class:`EngineSnapshot`.

        The snapshot pins the current version of every catalog entry —
        reads through it are repeatable no matter how many
        :meth:`apply_update` / :meth:`register_graph` calls land
        concurrently — and refcounts the pinned graph versions so the
        catalog knows when a superseded version's last reader is gone
        (:meth:`Catalog.release_snapshot
        <repro.catalog.Catalog.release_snapshot>` prunes it then).
        Release promptly (context manager, or :meth:`EngineSnapshot.release`)
        to keep retained-version memory bounded.
        """
        with self._lock:
            return EngineSnapshot(self, self.catalog.acquire_snapshot())

    def mvcc_info(self) -> Dict[str, int]:
        """Reader/retention accounting: active snapshots, retained versions."""
        with self._lock:
            return {
                "active_snapshots": self.catalog.active_snapshot_count(),
                "retained_versions": self.catalog.retained_version_count(),
            }

    def catalog_info(self) -> List[Dict[str, object]]:
        """Per-graph inventory for ``GET /stats``: sizes, epochs, kind."""
        with self._lock:
            info: List[Dict[str, object]] = []
            stale = set(self.catalog.stale_views())
            for name in self.catalog.graph_names():
                graph = self.catalog.graph(name)
                entry: Dict[str, object] = {
                    "name": name,
                    "kind": "view" if self.catalog.is_view(name) else "base",
                    "epoch": self.catalog.epoch(name),
                    "node_count": len(graph.nodes),
                    "edge_count": len(graph.edges),
                    "path_count": len(graph.paths),
                    "retained_versions": self.catalog.retained_version_count(
                        name
                    ),
                    "property_indexes": list(graph.built_property_indexes()),
                    "wire_fragments": graph.wire_fragment_count(),
                }
                if entry["kind"] == "view":
                    entry["stale"] = name in stale
                info.append(entry)
            return info

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def parse(self, text: str) -> ast.Statement:
        """Parse a single statement without executing it."""
        parser = Parser(tokenize(text))
        statement = parser.statement()
        parser.expect_eof()
        return statement

    def analyze(
        self, text_or_statement: Union[str, ast.Statement]
    ) -> AnalysisResult:
        """Statically analyze one statement; nothing is executed.

        Returns an :class:`~repro.analysis.AnalysisResult` of typed
        diagnostics (stable ``GCxxx`` codes, severities, source spans
        when *text* is given — see ``docs/analysis.md``). Unparseable
        text comes back as a single ``GC001`` diagnostic rather than a
        raise. Analysis resolves names against the live catalog.
        """
        return analyze_statement(text_or_statement, self.catalog)

    def prepare(self, text: str) -> PreparedQuery:
        """Parse *text* once and return a reusable :class:`PreparedQuery`.

        The prepared query is also placed in the engine's LRU plan cache,
        so subsequent ``run(text)`` calls with the identical text reuse
        it. Repeated calls with the same text return the same object
        until a catalog mutation invalidates the cache.
        """
        with self._lock:
            prepared = self._prepared.get(text)
            if prepared is not None:
                self._prepared.move_to_end(text)
                self._prepared_hits += 1
                return prepared
            self._prepared_misses += 1
        # Parse outside the lock (pure function of the text); publish
        # under it. A concurrent prepare of the same text may parse
        # twice, but both threads end up sharing whichever PreparedQuery
        # published first.
        prepared = PreparedQuery(self, text, self.parse(text))
        with self._lock:
            existing = self._prepared.get(text)
            if existing is not None:
                return existing
            self._prepared[text] = prepared
            while len(self._prepared) > self.PLAN_CACHE_SIZE:
                self._prepared.popitem(last=False)
        return prepared

    def run(
        self,
        text_or_statement: Union[str, ast.Statement],
        params: Optional[dict] = None,
        strict: bool = False,
    ) -> QueryResult:
        """Execute one G-CORE statement and return its result.

        Results are graphs (CONSTRUCT queries), tables (SELECT queries) or
        :class:`~repro.eval.query.ViewResult` (GRAPH VIEW statements).
        ``params`` supplies values for ``$name`` query parameters. Text
        input goes through the prepared-query cache: running the same
        query text again skips lexing, parsing and planning.

        ``strict=True`` runs the static analyzer first
        (:meth:`analyze`) and raises
        :class:`~repro.errors.AnalysisError` — before any planning or
        execution — when error-level diagnostics are found. Warnings
        and infos never block; EXPLAIN surfaces them.
        """
        if strict:
            analysis = self.analyze(text_or_statement)
            if not analysis.ok:
                raise AnalysisError(analysis)
        if isinstance(text_or_statement, (ast.Query, ast.GraphViewStmt)):
            return self._execute(text_or_statement, params)
        prepared = self.prepare(str(text_or_statement))
        return prepared.run(params)

    def _execute(
        self,
        statement: ast.Statement,
        params: Optional[dict] = None,
        plans: Optional[PlanCache] = None,
        catalog: Optional[CatalogSnapshot] = None,
    ) -> QueryResult:
        if catalog is None and isinstance(statement, ast.GraphViewStmt):
            # GRAPH VIEW registers a materialization: a catalog write,
            # serialized like every other mutation.
            with self._lock:
                return self._evaluate(statement, params, plans, self.catalog)
        return self._evaluate(statement, params, plans,
                              catalog if catalog is not None else self.catalog)

    def _evaluate(self, statement, params, plans, catalog) -> QueryResult:
        ctx = EvalContext(catalog, self._ids)
        if params:
            ctx.params = dict(params)
        ctx.plan_cache = plans
        result = evaluate_statement(statement, ctx)
        if isinstance(result, ViewResult):
            # GRAPH VIEW registered a materialization in the catalog:
            # honor the mutation-invalidates-plans contract here too.
            self.clear_plan_cache()
        return result

    # ------------------------------------------------------------------
    # Plan-cache management
    # ------------------------------------------------------------------
    def plan_cache_info(self) -> Dict[str, int]:
        """Hit/miss counters and occupancy of the prepared-query cache."""
        with self._lock:
            return {
                "hits": self._prepared_hits,
                "misses": self._prepared_misses,
                "size": len(self._prepared),
                "maxsize": self.PLAN_CACHE_SIZE,
            }

    def clear_plan_cache(self) -> None:
        """Drop all cached prepared queries (catalog mutations call this)."""
        with self._lock:
            self._prepared.clear()

    def is_plan_cached(self, text: str) -> bool:
        """True iff ``run(text)`` would hit the prepared-query cache."""
        with self._lock:
            return text in self._prepared

    def run_script(self, text: str) -> List[QueryResult]:
        """Execute a ``;``-separated sequence of statements."""
        parser = Parser(tokenize(text))
        results: List[QueryResult] = []
        while parser._peek().kind != "EOF":
            results.append(self._execute(parser.statement()))
            if not parser._accept("SEMI"):
                break
        parser.expect_eof()
        return results

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def bindings(self, match_text: str) -> BindingTable:
        """Evaluate a standalone ``MATCH ...`` fragment to a binding table.

        This mirrors the binding tables the paper prints in Section 3 and
        is used heavily by the reproduction tests and benchmarks.
        """
        parser = Parser(tokenize(match_text))
        match = parser._match_clause()
        parser.expect_eof()
        ctx = EvalContext(self.catalog, self._ids)
        return evaluate_match(match, ctx)

    def explain(
        self, text: str, catalog: Optional[CatalogSnapshot] = None
    ) -> str:
        """A human-readable sketch of how a query would be evaluated.

        Each MATCH/OPTIONAL block lists its patterns, then the
        :class:`~repro.eval.planner.BlockPlan` block evaluation runs —
        the same :func:`~repro.eval.planner.plan_block` call: its atoms
        in run order (cost order, or syntax order for blocks with a
        pattern whose target graph is not resolvable before execution)
        with the heuristic score, the per-row estimate (``est~``) and the cumulative table
        size (``rows~``) of each, then the WHERE assignment: which
        conjuncts filter at which atom's probe, which apply as post-atom
        filters, and which remain residual at block end. The header
        reports whether the query text currently sits in the
        prepared-query cache (``plan: cached`` vs ``plan: cold``).
        *catalog* pins name resolution to a snapshot
        (:meth:`EngineSnapshot.explain` passes it). The sketch ends
        with a ``diagnostics:`` block listing the static analyzer's
        findings for the statement (``diagnostics: none`` when clean) —
        see ``docs/analysis.md``.
        """
        from .eval.match import ANON_PREFIX, block_atoms, block_default_on
        from .eval.pathviews import explain_view_segments
        from .eval.planner import plan_block
        from .lang.pretty import pretty_chain

        resolver = catalog if catalog is not None else self.catalog
        statement = self.parse(text)
        if isinstance(statement, ast.GraphViewStmt):
            query = statement.query
        else:
            query = statement
        cached = "cached" if self.is_plan_cached(text) else "cold"
        lines: List[str] = [f"plan: {cached}"]
        if isinstance(statement, ast.GraphViewStmt):
            from .eval.maintenance import analyze_view, describe_strategy

            plan = analyze_view(statement.query, resolver)
            lines.append(
                f"view maintenance: {describe_strategy(plan)}"
            )
        # Execution always runs with every $param bound (PreparedQuery
        # rejects missing ones before evaluating), so the plan is made
        # with them all present, as execution makes it.
        param_names: Set[str] = set()
        _collect_params(statement, param_names)
        local_views = {h.name: h for h in query.heads if isinstance(h, ast.PathClause)}
        local_graphs = {h.name for h in query.heads if isinstance(h, ast.GraphClause)}

        def location_graph(on) -> Optional[PathPropertyGraph]:
            """Best-effort resolution of a pattern's target graph."""
            try:
                if on is None:
                    return resolver.default_graph()
                if isinstance(on, str) and on not in local_graphs:
                    return resolver.graph(on)
            except Exception:
                return None
            # ON (subquery) or a query-local GRAPH: only running it tells.
            return None

        def walk_body(body, indent: str) -> None:
            if isinstance(body, ast.SetOpQuery):
                lines.append(f"{indent}{body.op.upper()}")
                walk_body(body.left, indent + "  ")
                walk_body(body.right, indent + "  ")
            elif isinstance(body, ast.GraphRefQuery):
                lines.append(f"{indent}graph {body.name}")
            elif isinstance(body, ast.BasicQuery):
                head = "SELECT" if isinstance(body.head, ast.SelectClause) else "CONSTRUCT"
                lines.append(f"{indent}{head}")
                if body.from_table:
                    lines.append(f"{indent}  FROM table {body.from_table}")
                if body.match is not None:
                    blocks = [body.match.block, *body.match.optionals]
                    # An OPTIONAL block is seeded with the table so far.
                    bound: Set[str] = set()
                    # Graphs in the order evaluation touches them: the
                    # head of the chain property lookups resolve through.
                    touched: List[Optional[PathPropertyGraph]] = []
                    for b_index, block in enumerate(blocks):
                        tag = "MATCH" if b_index == 0 else "OPTIONAL"
                        lines.append(f"{indent}  {tag}")
                        inherited = block_default_on(block)
                        graphs = []
                        for location in block.patterns:
                            on = location.on
                            shown = (
                                on if isinstance(on, str)
                                else "<subquery>" if on else "<default>"
                            )
                            lines.append(
                                f"{indent}    pattern ON {shown}: "
                                f"{pretty_chain(location.chain)}"
                            )
                            graph = location_graph(
                                inherited if on is None else on
                            )
                            graphs.append(graph)
                            if not any(graph is seen for seen in touched):
                                touched.append(graph)
                        plan = plan_block(
                            block_atoms(block, graphs), block.where, bound,
                            param_names
                        )
                        lines.append(plan.describe())
                        ordered = [step.atom for step in plan.steps]
                        # An ON (subquery) graph is unknown before
                        # execution, and so is what it shadows.
                        chain = None if None in touched else [
                            graph
                            for graph in (*touched, location_graph(None))
                            if graph is not None
                        ]
                        for line in [
                            *explain_view_segments(
                                ordered, local_views, resolver, chain
                            ),
                            *plan.describe_where(chain or []),
                        ]:
                            lines.append(f"{indent}    {line}")
                        bound.update(
                            var
                            for atom in ordered
                            for var in atom.binds()
                            if not var.startswith(ANON_PREFIX)
                        )

        for head in query.heads:
            if isinstance(head, ast.PathClause):
                lines.append(f"PATH VIEW {head.name}")
            else:
                lines.append(f"LOCAL GRAPH {head.name}")
        walk_body(query.body, "")
        # Static-analysis findings last: warnings/infos that never block
        # execution but explain surprising plans (and, in strict mode,
        # the errors run() would reject the statement for).
        diagnostics = analyze_statement(text, resolver)
        if not diagnostics:
            lines.append("diagnostics: none")
        else:
            lines.append("diagnostics:")
            for diagnostic in diagnostics:
                lines.append(f"  {diagnostic.describe()}")
        return "\n".join(lines)
