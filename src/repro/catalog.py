"""The graph catalog: named graphs, views, tables and path views.

G-CORE queries reference graphs by name (``ON social_graph``), create
persistent views (``GRAPH VIEW``), and — with the Section 5 extensions —
reference tables. The catalog is the engine-level registry for all of
them. Tables referenced as graph locations are converted on demand into
the "isolated-node graph" interpretation of Section 5 and cached.

Every name carries an **epoch**, bumped by each write to it: a
re-registration, an applied delta, a view (re)materialization. PATH
views carry epochs of their own, apart from the graph epochs.

A committed catalog is a **version**, and versions are values: the
engine builds each write on a :meth:`Catalog.copy`, recomputes the
views the write changes on that copy (:mod:`repro.eval.maintenance`),
and publishes it by replacing its reference. Nothing writes to a
published catalog, so holding one is a consistent snapshot of every
name — graphs, view materializations, tables, path views, the
default-graph pointer — and an old version is freed when its last
holder drops it (see ``docs/consistency.md``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from .errors import SemanticError, UnknownGraphError, UnknownTableError
from .model.builder import GraphBuilder
from .model.graph import PathPropertyGraph
from .table import Table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .eval.maintenance import ViewPlan, ViewState
    from .lang import ast
    from .model.schema import GraphSchema

__all__ = [
    "Catalog",
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

    def __init__(self, plan: "ViewPlan", state: Optional["ViewState"]) -> None:
        #: the static maintenance analysis (repro.eval.maintenance.ViewPlan);
        #: its ``deps`` are the names whose writes recompute the view
        self.plan = plan
        #: incremental support counts (repro.eval.maintenance.ViewState),
        #: None for views maintained by full recompute
        self.state = state


class Catalog:
    """Engine-level registry of graphs, views and tables.

    The engine publishes one catalog per committed version and never
    writes to it again: the write methods below run on a fresh
    :meth:`copy` (or on a catalog nobody else holds yet).
    """

    #: The name-keyed state a write can change: what :meth:`copy` copies.
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
        "_path_epochs",
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
        self._path_epochs: Dict[str, int] = {}
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
        *name*: the result of an applied delta, or a re-registration. A
        graph already so named is installed as is, with its fragment store."""
        self._graphs[name] = graph if graph.name == name else graph.with_name(name)
        self._epochs[name] = self._epochs.get(name, 0) + 1

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
        plan: "ViewPlan",
        state: Optional["ViewState"] = None,
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
        """Register a persistent PATH view definition; bumps its path
        view epoch (:meth:`path_view_epoch`)."""
        self._path_views[name] = clause
        self._path_epochs[name] = self._path_epochs.get(name, 0) + 1

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
            graph = self._table_graph_cache.get(name)
            if graph is None:
                # a memo: concurrent readers of this version agree on
                # whichever conversion is stored first
                graph = self._table_graph_cache.setdefault(
                    name, table_as_graph(self._tables[name], name)
                )
            return graph
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
        """A copy to stage a write in: the next version of this catalog,
        which stays as it is."""
        clone = Catalog()
        for field in self._STATE:
            setattr(clone, field, dict(getattr(self, field)))
        clone.default_graph_name = self.default_graph_name
        return clone

    # ------------------------------------------------------------------
    def epoch(self, name: str) -> int:
        """The change epoch of *name* (0 for never-changed/unknown)."""
        return self._epochs.get(name, 0)

    def path_view_epoch(self, name: str) -> int:
        """The change epoch of PATH view *name* (0 for unknown)."""
        return self._path_epochs.get(name, 0)

    # ------------------------------------------------------------------
    def graph_names(self) -> List[str]:
        """All resolvable graph names (base graphs and views)."""
        return sorted(set(self._graphs) | set(self._view_cache))

    def view_names(self) -> List[str]:
        """All registered GRAPH VIEW names."""
        return sorted(self._views)

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def path_view_names(self) -> List[str]:
        return sorted(self._path_views)
