"""The public entry point: :class:`GCoreEngine`.

An engine holds a :class:`~repro.catalog.Catalog` of named graphs, tables
and views, and executes G-CORE statements against it:

>>> from repro import GCoreEngine
>>> from repro.datasets import load
>>> engine = GCoreEngine()
>>> load("paper").install(engine)
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

A :class:`PreparedQuery` holds only the parse, sort-checked once: it
resolves catalog names each time it runs, so no catalog write touches
the cache. Its memoized block plans are one per graph version and hold
those graphs weakly — a plan made for a superseded graph never matches
again and keeps no old catalog version alive.

Graphs mutate through **deltas**: ``apply_update(name, delta)`` applies a
:class:`~repro.model.delta.GraphDelta` (node/edge/label/property inserts
and removals), validates it against the entry's schema, and adjusts the
graph's planner statistics in O(|delta|).

Each committed catalog state is an immutable
:class:`~repro.catalog.Catalog` value. Every write — ``apply_update``,
``register_graph``, ``register_table``, ``set_default_graph``,
``register_path_view``, ``GRAPH VIEW`` — builds the next version on a
copy, recomputes there the ``GRAPH VIEW`` materializations that read
what it changed (patched from the delta where the view's shape allows,
:mod:`repro.eval.maintenance`), and publishes it with one assignment to
:attr:`GCoreEngine.catalog`. If a recompute raises, so does the write,
and nothing is published. A statement reads the version current when
it starts, from first graph lookup to last, and
:meth:`GCoreEngine.snapshot` hands the current version to a reader.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from typing import Callable, Dict, List, Optional, Set, Union

from .catalog import Catalog
from .analysis import AnalysisResult, analyze as analyze_statement
from .errors import (
    AnalysisError,
    EvaluationError,
    SemanticError,
    UnknownGraphError,
)
from .eval.analysis import analyze_match
from .eval.context import EvalContext, IdFactory
from .eval.expressions import BUILTIN_ARITY
from .eval.match import evaluate_match
from .eval.planner import PlanCache
from .eval.query import QueryResult, ViewResult, evaluate_query
from .lang import ast
from .lang.lexer import tokenize
from .lang.parser import Parser, parse_with
from .lang.pretty import pretty_statement
from .model.delta import GraphDelta, apply_delta
from .model.graph import PathPropertyGraph
from .table import Table
from .algebra.binding import BindingTable

__all__ = ["EngineSnapshot", "GCoreEngine", "PreparedQuery"]


def _collect_params(node, names: Set[str], check: bool, reads: Counter, select=False) -> None:
    """Collect the ``$name`` parameter slots of an AST (frozen dataclasses);
    with *check*, sort-check each MATCH clause on the way, outermost first
    (:func:`~repro.eval.analysis.analyze_match`), and the argument count
    of each builtin call (:data:`~repro.eval.expressions.BUILTIN_ARITY`).
    *reads* counts every string of the AST, each path variable a SELECT
    query's pattern binds (as ``(name,)``) and each ``COUNT(*)`` (as None)."""
    if isinstance(node, str):
        reads[node] += 1
    elif isinstance(node, ast.Param):
        names.add(node.name)
    elif check and isinstance(node, ast.MatchClause):
        analyze_match(node)
    elif isinstance(node, (ast.BasicQuery, ast.Query, ast.PathClause)):
        select = isinstance(getattr(node, "head", None), ast.SelectClause)
    elif select and isinstance(node, ast.PathPatternElem):
        reads[(node.var,)] += 1
    elif isinstance(node, ast.FuncCall):
        arity = BUILTIN_ARITY.get(node.name.lower(), len(node.args))
        if check and len(node.args) != arity:
            raise SemanticError(
                f"{node.name}() takes {arity} argument, got {len(node.args)}"
            )
        if node.star:
            reads[None] += 1
    if hasattr(node, "__dataclass_fields__"):
        for field in node.__dataclass_fields__:
            _collect_params(getattr(node, field), names, check, reads, select)
    elif isinstance(node, (tuple, list, frozenset)):
        for item in node:
            _collect_params(item, names, check, reads, select)


class PreparedQuery:
    """A parsed, sort-checked statement that can be executed many times.

    Holds the parsed AST, the ``$name`` parameter slots found in it, and
    a :class:`~repro.eval.planner.PlanCache` of block plans (filled on
    first execution, replayed afterwards). The constructor sort-checks
    every MATCH clause of the statement, subqueries included, so an
    ill-sorted one raises :class:`~repro.errors.SemanticError` here and
    no run checks again. Every statement the engine runs is one.
    """

    __slots__ = ("engine", "text", "statement", "param_names", "plans",
                 "executions", "unread_paths")

    def __init__(
        self, engine: "GCoreEngine", text: str, statement: ast.Statement
    ) -> None:
        self.engine = engine
        self.text = text
        self.statement = statement
        names: Set[str] = set()
        reads: Counter = Counter()
        _collect_params(statement, names, True, reads)
        self.param_names = frozenset(names)
        #: Path variables one SELECT query's pattern binds and nothing else
        #: reads (no name, no COUNT(*)): their SHORTEST builds no walk.
        self.unread_paths = frozenset(
            key[0] for key in reads if type(key) is tuple and key[0] and reads[key[0]] == 1
            and not reads[None] and not isinstance(statement, ast.GraphViewStmt)
        )
        self.plans = PlanCache()
        self.executions = 0

    def run(self, params: Optional[dict] = None) -> QueryResult:
        """Execute the prepared statement (optionally with parameters)."""
        return self._execute(params, catalog=None)

    def _execute(
        self,
        params: Optional[dict],
        catalog: Optional[Catalog],
    ) -> QueryResult:
        """The one way a statement runs (engine and snapshot).

        It alone installs :attr:`plans`, and only for runs that match
        what the cached block plans were made for: every ``$param`` of
        the statement bound (pushdown depends on which are present).
        A ``GRAPH VIEW`` commits under the engine lock; any other statement
        reads one catalog version, however many writes land meanwhile.
        """
        missing = self.param_names - set(params or ())
        if missing:
            raise EvaluationError(
                f"missing query parameters: {sorted(missing)}"
            )
        self.executions += 1
        engine = self.engine
        if catalog is None and isinstance(self.statement, ast.GraphViewStmt):
            with engine._lock:
                return engine._define_view(
                    self.statement, engine._context(engine.catalog, params, self)
                )
        return engine._evaluate(
            self.statement, params, self, catalog if catalog is not None else engine.catalog
        )

    def __repr__(self) -> str:
        return (
            f"<PreparedQuery {self.text[:40]!r}... executions="
            f"{self.executions}>"
            if len(self.text) > 40
            else f"<PreparedQuery {self.text!r} executions={self.executions}>"
        )


class EngineSnapshot:
    """A consistent, read-only view of the engine for one reader.

    Obtained from :meth:`GCoreEngine.snapshot`: it holds the catalog
    version current at that moment, and all reads through it — ``run``,
    ``execute_prepared``, ``graph`` — resolve against that version.
    Later writes publish new versions and are invisible here. The
    version lives as long as something holds it (see
    ``docs/consistency.md``). The context-manager form scopes the
    reference::

        with engine.snapshot() as snap:
            table = snap.run("SELECT n.name MATCH (n:Person)")

    ``GRAPH VIEW`` raises :class:`~repro.errors.SemanticError` — writes
    go through the engine, never through a snapshot.
    """

    __slots__ = ("engine", "catalog")

    def __init__(self, engine: "GCoreEngine", catalog: Catalog) -> None:
        self.engine = engine
        self.catalog = catalog

    def __enter__(self) -> "EngineSnapshot":
        return self

    def __exit__(self, *exc: object) -> None:
        pass

    # -- reads ----------------------------------------------------------
    def run(
        self,
        text: str,
        params: Optional[dict] = None,
        strict: bool = False,
    ) -> QueryResult:
        """Execute one read-only statement against the pinned catalog.

        Shares the engine's prepared-query LRU (parsing and planning are
        memoized across snapshots; block plans are one per graph
        version, so plans never leak between catalog versions).
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
        # Serializes catalog writes and prepared-LRU bookkeeping. Query
        # *execution* runs outside the lock: a reader holds one catalog
        # version, which no write touches.
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

        Serializes the current catalog version (concurrent
        :meth:`apply_update` writers publish later versions and are not
        torn into the file). Materialized views and path views are
        derived state and are not stored; re-register them against the
        reopened engine. See ``docs/storage.md`` for format and limits.
        """
        from .storage import save_snapshot

        save_snapshot(self.catalog, path)

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

        Re-registering an existing name replaces the graph wholesale and
        recomputes the views that read it; if one raises, so does this
        call, and the catalog is unchanged. An optional *schema*
        (:class:`~repro.model.schema.GraphSchema`) is attached to the
        catalog entry and enforced by :meth:`apply_update`.
        """
        with self._lock:
            self._commit(
                lambda catalog: catalog.register_graph(
                    name, graph, default=default, schema=schema
                )
            )

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
        graph replaces the catalog entry, and in the same commit every
        view that reads it is recomputed — patched from the delta where
        the view is incremental. If a recompute raises, so does this
        call, and the catalog is unchanged.

        The new graph inherits the old one's
        :class:`~repro.model.statistics.GraphStatistics` adjusted in
        O(|delta|) (no O(N + E) rebuild). Prepared queries are not
        touched: their next run resolves the new graphs and plans once
        for them. Returns the new graph.
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
            self._commit(
                lambda catalog: catalog.commit_update(name, new_graph), effects
            )
        return new_graph

    def register_table(self, name: str, table: Table) -> None:
        """Register a table for the Section 5 tabular extensions.

        Views that read *name* are recomputed in the same commit; if one
        raises, so does this call, and the catalog is unchanged.
        """
        with self._lock:
            self._commit(lambda catalog: catalog.register_table(name, table))

    def register_path_view(self, text_or_clause) -> str:
        """Register a persistent PATH view from source text or an AST node.

        Accepts either ``"PATH name = (x)-[e:knows]->(y) COST ..."`` text
        or a pre-parsed :class:`~repro.lang.ast.PathClause`; the MATCH
        clauses of its ``EXISTS`` subqueries are sort-checked here, as a
        statement's are when it is prepared. Redefining a view recomputes
        each ``GRAPH VIEW`` whose regexes name it; if one raises, so does
        this call, and the catalog is unchanged.
        """
        if isinstance(text_or_clause, ast.PathClause):
            clause = text_or_clause
        else:
            clause = parse_with(str(text_or_clause), Parser._path_clause)
        _collect_params(clause, set(), True, Counter())
        with self._lock:
            self._commit(
                lambda catalog: catalog.register_path_view(clause.name, clause)
            )
        return clause.name

    def graph(self, name: str) -> PathPropertyGraph:
        """Look up a registered graph or materialized view by name."""
        return self.catalog.graph(name)

    def table(self, name: str) -> Table:
        """Look up a registered table by name."""
        return self.catalog.table(name)

    def set_default_graph(self, name: str) -> None:
        """Point ON-less patterns at graph *name*.

        Views with ON-less patterns are recomputed in the same commit;
        if one raises, so does this call, and the catalog is unchanged.
        """
        with self._lock:
            if not self.catalog.has_graph(name):
                raise UnknownGraphError(name, candidates=self.catalog.graph_names())
            self._commit(
                lambda catalog: setattr(catalog, "default_graph_name", name)
            )

    def _commit(self, write: Callable[[Catalog], None], effects=None) -> None:
        """Publish the next catalog version: *write* applied to a copy of
        the current one, with the views it changes recomputed there by
        :func:`~repro.eval.maintenance.commit_with_views` (a catalog
        without views skips that). The caller holds the engine lock."""
        if self.catalog.view_names():
            from .eval.maintenance import commit_with_views

            staged = commit_with_views(self.catalog, self._ids, write, effects)
        else:
            staged = self.catalog.copy()
            write(staged)
        self.catalog = staged

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> EngineSnapshot:
        """A consistent read-only :class:`EngineSnapshot`.

        It holds the current catalog version — reads through it are
        repeatable no matter how many :meth:`apply_update` /
        :meth:`register_graph` calls land meanwhile. No lock is taken
        and nothing needs releasing: published versions are never
        written, and an old one is freed when its last holder drops it.
        """
        return EngineSnapshot(self, self.catalog)

    def catalog_info(self) -> List[Dict[str, object]]:
        """Per-graph inventory for ``GET /stats``: sizes, epochs, kind."""
        catalog = self.catalog
        info: List[Dict[str, object]] = []
        for name in catalog.graph_names():
            graph = catalog.graph(name)
            info.append({
                "name": name,
                "kind": "view" if catalog.is_view(name) else "base",
                "epoch": catalog.epoch(name),
                "node_count": len(graph.nodes),
                "edge_count": len(graph.edges),
                "path_count": len(graph.paths),
                "property_indexes": list(graph.built_property_indexes()),
                "wire_fragments": graph.wire_fragment_count(),
            })
        return info

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def parse(self, text: str) -> ast.Statement:
        """Parse a single statement without executing it."""
        return parse_with(text, Parser.statement)

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
        """Parse and sort-check *text* once and return a reusable
        :class:`PreparedQuery`; an ill-sorted statement raises
        :class:`~repro.errors.SemanticError` here.

        The prepared query is also placed in the engine's LRU plan cache,
        so subsequent ``run(text)`` calls with the identical text reuse
        it. Repeated calls with the same text return the same object
        until it ages out of the LRU or :meth:`clear_plan_cache` runs.
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
        query text again skips lexing, parsing, the sort check and
        planning. A parsed statement is prepared for this run alone.

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
            prepared = PreparedQuery(
                self, pretty_statement(text_or_statement), text_or_statement
            )
        else:
            prepared = self.prepare(str(text_or_statement))
        return prepared.run(params)

    def _evaluate(self, statement, params, prepared, catalog) -> QueryResult:
        return evaluate_query(statement, self._context(catalog, params, prepared))

    def _context(
        self, catalog: Catalog, params: Optional[dict], prepared: PreparedQuery
    ) -> EvalContext:
        ctx = EvalContext(catalog, self._ids)
        if params:
            ctx.params = dict(params)
        ctx.plan_cache = prepared.plans
        ctx.unread_paths = prepared.unread_paths
        return ctx

    def _define_view(
        self, statement: ast.GraphViewStmt, ctx: EvalContext
    ) -> ViewResult:
        """``GRAPH VIEW``: materialize the view over ``ctx.catalog`` — the
        current version; the caller holds the engine lock — and commit it
        with the views that read its name."""
        from .eval.maintenance import evaluate_view

        name, query = statement.name, statement.query
        graph, plan, state = evaluate_view(query, ctx)
        self._commit(
            lambda catalog: catalog.register_view(name, query, graph, plan, state)
        )
        return ViewResult(name, graph.with_name(name))

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
        """Drop all cached prepared queries."""
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
            results.append(self.run(parser.statement()))
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
        match = parse_with(match_text, Parser._match_clause)
        _collect_params(match, set(), True, Counter())
        return evaluate_match(match, EvalContext(self.catalog, self._ids))

    def explain(self, text: str, catalog: Optional[Catalog] = None) -> str:
        """A human-readable sketch of how a query would be evaluated: each
        block it runs with the plan execution makes for it
        (:mod:`repro.eval.explain`), nested blocks included, each under
        the conjunct, pattern, head or view it serves with how often it
        runs (once per outer row, per block, per query or per epoch).
        The header says whether the text sits in the prepared-query cache
        (``plan: cached`` vs ``plan: cold``); the sketch ends with the
        static analyzer's findings (``diagnostics: none`` when clean; see
        ``docs/analysis.md``). *catalog* pins name resolution to a
        snapshot (:meth:`EngineSnapshot.explain` passes it).
        """
        from .eval.explain import explain_query

        resolver = catalog if catalog is not None else self.catalog
        statement = self.parse(text)
        cached = "cached" if self.is_plan_cached(text) else "cold"
        lines: List[str] = [f"plan: {cached}"]
        query = statement
        if isinstance(statement, ast.GraphViewStmt):
            from .eval.maintenance import analyze_view, describe_strategy

            query = statement.query
            lines.append(f"view maintenance: {describe_strategy(analyze_view(query, resolver))}")
        # Execution always runs with every $param bound (PreparedQuery
        # rejects missing ones before evaluating), so the plan is made
        # with them all present, as execution makes it.
        param_names: Set[str] = set()
        _collect_params(statement, param_names, False, Counter())
        lines.extend(explain_query(query, resolver, param_names))
        # Static-analysis findings last: warnings/infos that never block
        # execution but explain surprising plans (and, in strict mode,
        # the errors run() would reject the statement for).
        diagnostics = analyze_statement(text, resolver)
        lines.append("diagnostics:" if diagnostics else "diagnostics: none")
        lines.extend(f"  {diagnostic.describe()}" for diagnostic in diagnostics)
        return "\n".join(lines)
