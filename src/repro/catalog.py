"""The graph catalog: named graphs, views, tables and path views.

G-CORE queries reference graphs by name (``ON social_graph``), create
persistent views (``GRAPH VIEW``), and — with the Section 5 extensions —
reference tables. The catalog is the engine-level registry for all of
them. Tables referenced as graph locations are converted on demand into
the "isolated-node graph" interpretation of Section 5 and cached.

Every name carries an **epoch**, bumped by each write to it: a
re-registration, an applied delta, a view (re)materialization. A write
and the views it changes commit together (:mod:`repro.eval.maintenance`
stages them in a :meth:`Catalog.copy`, which :meth:`Catalog.adopt`
publishes), so a view is fresh at every epoch of the graphs it reads.

The same epochs power **MVCC snapshot reads**
(:class:`CatalogSnapshot`): :meth:`Catalog.acquire_snapshot` captures an
immutable view of every name in the catalog and takes a *reader
refcount* on each pinned base-graph version. Updates landing afterwards
supersede the live entry but **retain** the superseded graph version
while any snapshot still pins it; :meth:`Catalog.release_snapshot` drops
the refcounts and prunes retained versions the moment their last reader
leaves (see ``docs/consistency.md``). Graphs are immutable, so a
snapshot needs no copies — pinning is reference bookkeeping, and a
reader's whole world (graphs, view materializations, tables, path views,
the default-graph pointer) stays frozen for the snapshot's lifetime.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from .errors import SemanticError, UnknownGraphError, UnknownTableError
from .model.builder import GraphBuilder
from .model.graph import PathPropertyGraph
from .table import Table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .lang import ast
    from .model.schema import GraphSchema

__all__ = [
    "Catalog",
    "CatalogSnapshot",
    "ViewMeta",
    "table_as_graph",
]


def table_as_graph(table: Table, name: str = "") -> PathPropertyGraph:
    """Interpret a table as a graph of isolated nodes (Section 5).

    Each row becomes one unlabeled node whose properties are the row's
    non-null column values.
    """
    builder = GraphBuilder(name=name or table.name)
    for index, row in enumerate(table.rows):
        properties = {
            column: value
            for column, value in zip(table.columns, row)
            if value is not None
        }
        builder.add_node(f"{name or table.name or 'row'}#{index}",
                         properties=properties)
    return builder.build()


class ViewMeta:
    """Maintenance bookkeeping of one materialized GRAPH VIEW."""

    __slots__ = ("plan", "state")

    def __init__(self, plan, state) -> None:
        #: the static maintenance analysis (repro.eval.maintenance.ViewPlan);
        #: its ``deps`` are the names whose writes recompute the view
        self.plan = plan
        #: incremental support counts (repro.eval.maintenance.ViewState),
        #: None for views maintained by full recompute
        self.state = state


class CatalogSnapshot:
    """An immutable, point-in-time view of a :class:`Catalog`.

    Obtained from :meth:`Catalog.acquire_snapshot` (usually via
    :meth:`GCoreEngine.snapshot <repro.engine.GCoreEngine.snapshot>`). A
    snapshot resolves every read the evaluator performs — graphs, view
    materializations, tables-as-graphs, path views, the default-graph
    pointer — against the state captured at acquisition time, so a query
    holding one sees a single consistent catalog version no matter how
    many updates land concurrently. Mutating operations raise: snapshots
    are strictly read-only (writes go through the live catalog).

    Snapshots pin the base-graph versions they captured (a reader
    refcount in the owning catalog); call :meth:`release` — or use the
    snapshot as a context manager — when done, so superseded versions
    can be pruned. Releasing is idempotent. Reads keep working after
    release (the Python references survive); only the catalog-side
    retention accounting ends.
    """

    __slots__ = (
        "_catalog",
        "_graphs",
        "_tables",
        "_path_views",
        "_schemas",
        "_table_graph_cache",
        "_pinned",
        "_base_names",
        "_views",
        "epochs",
        "default_graph_name",
        "released",
    )

    def __init__(self, catalog: "Catalog") -> None:
        self._catalog = catalog
        self._graphs: Dict[str, PathPropertyGraph] = dict(catalog._graphs)
        self._graphs.update(catalog._view_cache)
        self._tables: Dict[str, Table] = dict(catalog._tables)
        self._path_views = dict(catalog._path_views)
        self._schemas = dict(catalog._schemas)
        self._base_names = frozenset(catalog._graphs)
        self._views: Dict[str, "ast.Query"] = dict(catalog._views)
        self._table_graph_cache: Dict[str, PathPropertyGraph] = {}
        #: name -> epoch at acquisition (base graphs, views and tables).
        self.epochs: Dict[str, int] = dict(catalog._epochs)
        #: the (name, epoch) base-graph versions this snapshot refcounts.
        self._pinned: List[Tuple[str, int]] = [
            (name, self.epochs.get(name, 0)) for name in catalog._graphs
        ]
        self.default_graph_name = catalog.default_graph_name
        self.released = False

    # -- context manager ------------------------------------------------
    def __enter__(self) -> "CatalogSnapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def release(self) -> None:
        """Drop this snapshot's reader refcounts (idempotent)."""
        self._catalog.release_snapshot(self)

    # -- read API (mirrors Catalog) -------------------------------------
    def has_graph(self, name: str) -> bool:
        return name in self._graphs or name in self._tables

    def graph(self, name: str) -> PathPropertyGraph:
        """Resolve *name* to the graph version captured at acquisition."""
        if name in self._graphs:
            return self._graphs[name]
        if name in self._tables:
            if name not in self._table_graph_cache:
                self._table_graph_cache[name] = table_as_graph(
                    self._tables[name], name
                )
            return self._table_graph_cache[name]
        raise UnknownGraphError(name, candidates=[*self._graphs, *self._tables])

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(name, candidates=self._tables) from None

    def path_view(self, name: str) -> Optional["ast.PathClause"]:
        return self._path_views.get(name)

    def schema(self, name: str) -> Optional["GraphSchema"]:
        """The schema attached to base graph *name* at acquisition."""
        return self._schemas.get(name)

    def is_base_graph(self, name: str) -> bool:
        """True iff *name* was a directly-registered base graph."""
        return name in self._base_names

    def is_view(self, name: str) -> bool:
        return name in self._views

    def view_query(self, name: str) -> Optional["ast.Query"]:
        return self._views.get(name)

    def default_graph(self) -> Optional[PathPropertyGraph]:
        if self.default_graph_name is None:
            return None
        return self.graph(self.default_graph_name)

    def epoch(self, name: str) -> int:
        """The captured change epoch of *name* (0 for unknown)."""
        return self.epochs.get(name, 0)

    def graph_names(self) -> List[str]:
        return sorted(self._graphs)

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    # -- writes are rejected --------------------------------------------
    def _read_only(self, operation: str):
        raise SemanticError(
            f"catalog snapshot is read-only: {operation} must run against "
            f"the live catalog"
        )

    def register_graph(self, *args, **kwargs):
        self._read_only("register_graph")

    def register_table(self, *args, **kwargs):
        self._read_only("register_table")

    def register_view(self, *args, **kwargs):
        self._read_only("register_view (GRAPH VIEW)")

    def register_path_view(self, *args, **kwargs):
        self._read_only("register_path_view")

    def commit_update(self, *args, **kwargs):
        self._read_only("commit_update")


class Catalog:
    """Engine-level registry of graphs, views and tables."""

    #: The name-keyed state a write can change: what :meth:`copy` copies
    #: and :meth:`adopt` takes over (the reader refcounts are not in it).
    _STATE = (
        "_graphs",
        "_tables",
        "_views",
        "_view_cache",
        "_view_meta",
        "_table_graph_cache",
        "_path_views",
        "_schemas",
        "_epochs",
    )

    def __init__(self) -> None:
        self._graphs: Dict[str, PathPropertyGraph] = {}
        self._tables: Dict[str, Table] = {}
        self._views: Dict[str, "ast.Query"] = {}
        self._view_cache: Dict[str, PathPropertyGraph] = {}
        self._view_meta: Dict[str, ViewMeta] = {}
        self._table_graph_cache: Dict[str, PathPropertyGraph] = {}
        self._path_views: Dict[str, "ast.PathClause"] = {}
        self._schemas: Dict[str, "GraphSchema"] = {}
        self._epochs: Dict[str, int] = {}
        # MVCC reader bookkeeping: refcounts per pinned (name, epoch)
        # base-graph version, and the superseded graph versions retained
        # while at least one snapshot still pins them.
        self._pins: Dict[Tuple[str, int], int] = {}
        self._retained: Dict[str, Dict[int, PathPropertyGraph]] = {}
        self._snapshots_taken = 0
        self._snapshots_released = 0
        self.default_graph_name: Optional[str] = None

    # ------------------------------------------------------------------
    def register_graph(
        self,
        name: str,
        graph: PathPropertyGraph,
        default: bool = False,
        schema: Optional["GraphSchema"] = None,
    ) -> None:
        """Register *graph* under *name*; optionally make it the default.

        Re-registering an existing name replaces the graph wholesale. An
        optional *schema* is remembered and re-checked (scoped to the
        touched objects) by every later :meth:`commit_update`.
        """
        if name in self._views:
            raise SemanticError(
                f"cannot register graph {name!r}: the name belongs to a "
                f"GRAPH VIEW (redefine the view instead)"
            )
        self.commit_update(name, graph)
        if schema is not None:
            self._schemas[name] = schema
        if default or self.default_graph_name is None:
            self.default_graph_name = name

    def commit_update(self, name: str, graph: PathPropertyGraph) -> None:
        """Install *graph* as the next version (epoch) of base graph
        *name*: the result of an applied delta, or a re-registration."""
        before = self._graphs.get(name)
        old_epoch = self._epochs.get(name, 0)
        if before is not None and self._pins.get((name, old_epoch), 0) > 0:
            # A snapshot reader still pins the superseded version: retain
            # it until release_snapshot drops the last refcount.
            self._retained.setdefault(name, {})[old_epoch] = before
        self._graphs[name] = graph.with_name(name)
        self._epochs[name] = old_epoch + 1

    def register_table(self, name: str, table: Table) -> None:
        """Register a table for the Section 5 extensions."""
        if name in self._views:
            raise SemanticError(
                f"cannot register table {name!r}: the name belongs to a "
                f"GRAPH VIEW"
            )
        self._tables[name] = table.with_name(name)
        self._table_graph_cache.pop(name, None)
        self._epochs[name] = self._epochs.get(name, 0) + 1

    def register_view(
        self,
        name: str,
        query: "ast.Query",
        materialized: PathPropertyGraph,
        plan,
        state=None,
    ) -> None:
        """Register a GRAPH VIEW with its defining query and current result.

        Re-registering an existing view replaces its materialization (the
        maintenance path); registering a view under a base graph's or
        table's name raises — the catalog resolves base graphs first, so
        the view would be silently shadowed otherwise. *plan*/*state*
        carry the maintenance analysis and support counts of
        :mod:`repro.eval.maintenance`.
        """
        if name in self._graphs or name in self._tables:
            raise SemanticError(
                f"cannot register view {name!r}: the name belongs to a "
                f"{'graph' if name in self._graphs else 'table'}"
            )
        self._views[name] = query
        self._view_cache[name] = materialized.with_name(name)
        self._view_meta[name] = ViewMeta(plan, state)
        self._epochs[name] = self._epochs.get(name, 0) + 1

    def register_path_view(self, name: str, clause: "ast.PathClause") -> None:
        """Register a persistent PATH view definition."""
        self._path_views[name] = clause

    # ------------------------------------------------------------------
    def has_graph(self, name: str) -> bool:
        return (
            name in self._graphs
            or name in self._view_cache
            or name in self._tables
        )

    def is_base_graph(self, name: str) -> bool:
        """True iff *name* is a directly-registered (mutable) base graph."""
        return name in self._graphs

    def is_view(self, name: str) -> bool:
        """True iff *name* is a registered GRAPH VIEW."""
        return name in self._views

    def base_graph(self, name: str) -> PathPropertyGraph:
        """The base graph *name*; views and tables are rejected."""
        try:
            return self._graphs[name]
        except KeyError:
            raise UnknownGraphError(name, candidates=self._graphs) from None

    def graph(self, name: str) -> PathPropertyGraph:
        """Resolve *name* to a graph: base graph, view, or table-as-graph."""
        if name in self._graphs:
            return self._graphs[name]
        if name in self._view_cache:
            return self._view_cache[name]
        if name in self._tables:
            if name not in self._table_graph_cache:
                self._table_graph_cache[name] = table_as_graph(
                    self._tables[name], name
                )
            return self._table_graph_cache[name]
        raise UnknownGraphError(
            name, candidates=[*self._graphs, *self._views, *self._tables]
        )

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(name, candidates=self._tables) from None

    def schema(self, name: str) -> Optional["GraphSchema"]:
        """The schema attached to base graph *name* (None if unconstrained)."""
        return self._schemas.get(name)

    def path_view(self, name: str) -> Optional["ast.PathClause"]:
        return self._path_views.get(name)

    def view_query(self, name: str) -> Optional["ast.Query"]:
        return self._views.get(name)

    def view_meta(self, name: str) -> Optional[ViewMeta]:
        """Maintenance bookkeeping of view *name* (None when not a view)."""
        return self._view_meta.get(name)

    def default_graph(self) -> Optional[PathPropertyGraph]:
        if self.default_graph_name is None:
            return None
        return self.graph(self.default_graph_name)

    def copy(self) -> "Catalog":
        """A copy to stage a write in: writes to it leave this catalog
        untouched until :meth:`adopt` takes them over."""
        clone = Catalog()
        for field in self._STATE:
            setattr(clone, field, dict(getattr(self, field)))
        clone._pins = self._pins
        clone._retained = {
            name: dict(versions) for name, versions in self._retained.items()
        }
        clone.default_graph_name = self.default_graph_name
        return clone

    def adopt(self, staged: "Catalog") -> None:
        """Take over the state of *staged*, a :meth:`copy` of this
        catalog with writes applied: they all publish at once."""
        for field in (*self._STATE, "_retained", "default_graph_name"):
            setattr(self, field, getattr(staged, field))

    # ------------------------------------------------------------------
    # MVCC snapshots
    # ------------------------------------------------------------------
    def acquire_snapshot(self) -> CatalogSnapshot:
        """Capture a :class:`CatalogSnapshot` and refcount its versions.

        Every base-graph version visible to the snapshot gets one reader
        refcount; later updates retain superseded versions until their
        refcount drops back to zero (:meth:`release_snapshot`). The
        caller — normally :meth:`GCoreEngine.snapshot
        <repro.engine.GCoreEngine.snapshot>`, which serializes snapshot
        and update traffic behind the engine lock — owns the release.
        """
        snapshot = CatalogSnapshot(self)
        for key in snapshot._pinned:
            self._pins[key] = self._pins.get(key, 0) + 1
        self._snapshots_taken += 1
        return snapshot

    def release_snapshot(self, snapshot: CatalogSnapshot) -> None:
        """Drop *snapshot*'s refcounts and prune unpinned retained versions.

        Idempotent: releasing an already-released snapshot is a no-op.
        A retained (superseded) graph version is pruned the moment its
        reader refcount reaches zero; the live version of each name is
        never touched.
        """
        if snapshot.released:
            return
        snapshot.released = True
        self._snapshots_released += 1
        for key in snapshot._pinned:
            count = self._pins.get(key, 0) - 1
            if count > 0:
                self._pins[key] = count
                continue
            self._pins.pop(key, None)
            name, epoch = key
            versions = self._retained.get(name)
            if versions is not None:
                versions.pop(epoch, None)
                if not versions:
                    del self._retained[name]

    def retained_versions(self, name: str) -> List[int]:
        """Epochs of superseded versions of *name* still pinned by readers."""
        return sorted(self._retained.get(name, ()))

    def retained_version_count(self, name: Optional[str] = None) -> int:
        """How many superseded graph versions are currently retained.

        With *name*, counts that graph's retained versions only; without,
        the catalog-wide total. This is the observable the MVCC harness
        asserts on: the count rises while snapshot readers pin superseded
        versions and returns to zero once every reader released.
        """
        if name is not None:
            return len(self._retained.get(name, ()))
        return sum(len(v) for v in self._retained.values())

    def active_snapshot_count(self) -> int:
        """Snapshots acquired and not yet released."""
        return self._snapshots_taken - self._snapshots_released

    # ------------------------------------------------------------------
    def epoch(self, name: str) -> int:
        """The change epoch of *name* (0 for never-changed/unknown)."""
        return self._epochs.get(name, 0)

    # ------------------------------------------------------------------
    def graph_names(self):
        """All resolvable graph names (base graphs and views)."""
        return sorted(set(self._graphs) | set(self._view_cache))

    def view_names(self):
        """All registered GRAPH VIEW names."""
        return sorted(self._views)

    def table_names(self):
        return sorted(self._tables)

    def path_view_names(self):
        return sorted(self._path_views)
