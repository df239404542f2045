"""Graph summary statistics for cost-based MATCH planning.

:class:`GraphStatistics` condenses a :class:`~repro.model.graph.PathPropertyGraph`
into the counts a cardinality estimator needs:

* node / edge / path totals and per-label counts,
* average out- and in-degree per edge label (edges of that label divided
  by the node count — the expected fan from a uniformly chosen node),
* property-key selectivity per object kind: the expected fraction of
  objects satisfying an equality test ``{key = const}``, computed as
  (objects carrying the key / objects) x (1 / distinct values of the key).

Graphs are immutable, so the statistics are computed once per graph and
cached on it (see :meth:`PathPropertyGraph.statistics`); building them is
a single O(N + E + P) pass over the public accessors.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .graph import ObjectId, PathPropertyGraph

__all__ = ["GraphStatistics"]

#: Selectivity assumed for an equality test on a key we have no data for.
DEFAULT_SELECTIVITY = 0.1

#: Fraction of the node set assumed reachable by a regular-path search
#: whose edge labels cannot be bounded statically (any-edge wildcards,
#: PATH-view arcs, bare ``-/p/->`` patterns).
DEFAULT_REACH_FRACTION = 0.5


class GraphStatistics:
    """Immutable summary statistics of one :class:`PathPropertyGraph`."""

    __slots__ = (
        "node_count",
        "edge_count",
        "path_count",
        "node_label_counts",
        "edge_label_counts",
        "path_label_counts",
        "edge_label_sources",
        "edge_label_targets",
        "_node_prop_sel",
        "_edge_prop_sel",
        "_path_prop_sel",
    )

    def __init__(self, graph: "PathPropertyGraph") -> None:
        self.node_count = len(graph.nodes)
        self.edge_count = len(graph.edges)
        self.path_count = len(graph.paths)

        node_labels: Dict[str, int] = {}
        edge_labels: Dict[str, int] = {}
        path_labels: Dict[str, int] = {}
        sources: Dict[str, Set["ObjectId"]] = {}
        targets: Dict[str, Set["ObjectId"]] = {}
        for node in graph.nodes:
            for label in graph.labels(node):
                node_labels[label] = node_labels.get(label, 0) + 1
        for edge in graph.edges:
            src, dst = graph.endpoints(edge)
            for label in graph.labels(edge):
                edge_labels[label] = edge_labels.get(label, 0) + 1
                sources.setdefault(label, set()).add(src)
                targets.setdefault(label, set()).add(dst)
        for pid in graph.paths:
            for label in graph.labels(pid):
                path_labels[label] = path_labels.get(label, 0) + 1
        self.node_label_counts = node_labels
        self.edge_label_counts = edge_labels
        self.path_label_counts = path_labels
        self.edge_label_sources = {l: len(s) for l, s in sources.items()}
        self.edge_label_targets = {l: len(s) for l, s in targets.items()}

        self._node_prop_sel = self._property_selectivities(graph, graph.nodes)
        self._edge_prop_sel = self._property_selectivities(graph, graph.edges)
        self._path_prop_sel = self._property_selectivities(graph, graph.paths)

    @staticmethod
    def _property_selectivities(
        graph: "PathPropertyGraph", objects: Iterable["ObjectId"]
    ) -> Dict[str, float]:
        carriers: Dict[str, int] = {}
        distinct: Dict[str, Set[object]] = {}
        total = 0
        for obj in objects:
            total += 1
            for key, values in graph.properties(obj).items():
                carriers[key] = carriers.get(key, 0) + 1
                distinct.setdefault(key, set()).update(values)
        if not total:
            return {}
        return {
            key: (count / total) / max(len(distinct[key]), 1)
            for key, count in carriers.items()
        }

    # ------------------------------------------------------------------
    # Incremental adjustment (graph deltas)
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        old_graph: "PathPropertyGraph",
        new_graph: "PathPropertyGraph",
        effects,
    ) -> "GraphStatistics":
        """Statistics for *new_graph*, adjusted from these in O(|delta|).

        ``effects`` is the :class:`~repro.model.delta.DeltaEffects` of the
        applied update. Totals and per-label counts are adjusted
        *exactly* by diffing only the touched objects between the two
        graphs. The distinct-endpoint counts behind :meth:`fan_out` /
        :meth:`label_reach_fraction` are scaled proportionally (clamped
        to the label count and node total), and property selectivities
        are carried over unchanged — both are planner estimates whose
        drift under small deltas is negligible compared to an O(N + E)
        rebuild per update.
        """
        stats = GraphStatistics.__new__(GraphStatistics)
        stats.node_count = len(new_graph.nodes)
        stats.edge_count = len(new_graph.edges)
        stats.path_count = len(new_graph.paths)

        node_labels = dict(self.node_label_counts)
        edge_labels = dict(self.edge_label_counts)
        path_labels = dict(self.path_label_counts)

        def adjust(counts: Dict[str, int], labels, amount: int) -> None:
            for label in labels:
                updated = counts.get(label, 0) + amount
                if updated > 0:
                    counts[label] = updated
                else:
                    counts.pop(label, None)

        for node in effects.removed_nodes:
            adjust(node_labels, old_graph.labels(node), -1)
        for node in effects.added_nodes:
            adjust(node_labels, new_graph.labels(node), +1)
        for edge in effects.removed_edges:
            adjust(edge_labels, old_graph.labels(edge), -1)
        for edge in effects.added_edges:
            adjust(edge_labels, new_graph.labels(edge), +1)
        for pid in effects.removed_paths:
            adjust(path_labels, old_graph.labels(pid), -1)
        for obj in effects.modified:
            if obj in new_graph.nodes:
                counts = node_labels
            elif obj in new_graph.edges:
                counts = edge_labels
            else:
                counts = path_labels
            before = old_graph.labels(obj) if obj in old_graph else frozenset()
            after = new_graph.labels(obj)
            adjust(counts, before - after, -1)
            adjust(counts, after - before, +1)
        stats.node_label_counts = node_labels
        stats.edge_label_counts = edge_labels
        stats.path_label_counts = path_labels

        sources: Dict[str, int] = {}
        targets: Dict[str, int] = {}
        for label, count in edge_labels.items():
            old_count = self.edge_label_counts.get(label, 0)
            for table, store in (
                (self.edge_label_sources, sources),
                (self.edge_label_targets, targets),
            ):
                old_distinct = table.get(label, 0)
                if old_count:
                    estimate = round(old_distinct * count / old_count)
                else:
                    estimate = count  # a fresh label: assume distinct ends
                store[label] = max(1, min(estimate, count, stats.node_count))
        stats.edge_label_sources = sources
        stats.edge_label_targets = targets

        stats._node_prop_sel = self._node_prop_sel
        stats._edge_prop_sel = self._edge_prop_sel
        stats._path_prop_sel = self._path_prop_sel
        return stats

    # ------------------------------------------------------------------
    # Label counts
    # ------------------------------------------------------------------
    def edge_label_count(self, label: str) -> int:
        """Number of edges carrying *label*."""
        return self.edge_label_counts.get(label, 0)

    # ------------------------------------------------------------------
    # Degrees
    # ------------------------------------------------------------------
    def avg_out_degree(self, label: Optional[str] = None) -> float:
        """Expected number of outgoing *label* edges of a random node."""
        count = self.edge_count if label is None else self.edge_label_count(label)
        return count / max(self.node_count, 1)

    def fan_out(self, label: str) -> float:
        """Average *label* out-degree over nodes that have one at all."""
        count = self.edge_label_count(label)
        return count / max(self.edge_label_sources.get(label, 0), 1)

    def fan_in(self, label: str) -> float:
        """Average *label* in-degree over nodes that have one at all."""
        count = self.edge_label_count(label)
        return count / max(self.edge_label_targets.get(label, 0), 1)

    # ------------------------------------------------------------------
    # Reachability (path-pattern cost model)
    # ------------------------------------------------------------------
    def label_reach_fraction(self, label: str, inverse: bool = False) -> float:
        """Fraction of nodes that can be *entered* over a *label* edge.

        The targets of ``label`` edges (their sources for an *inverse*
        step ``label^``) upper-bound everything a regular path built from
        that step can reach beyond its start, so ``|targets| / |nodes|``
        is the planner's per-step reachability estimate.
        """
        if not self.node_count:
            return 0.0
        entered = self.edge_label_sources if inverse else self.edge_label_targets
        return min(entered.get(label, 0) / self.node_count, 1.0)

    def reachability_estimate(
        self, steps: Optional[Iterable[Tuple[str, bool]]] = None
    ) -> float:
        """Expected number of nodes a search reaches from its bound start.

        *steps* are the ``(label, inverse)`` edge steps of the searched
        regex — the reversed one for a backward search
        (:func:`repro.paths.automaton.regex_edge_steps`): ``None`` means
        unbounded (any-edge wildcard or view arcs — fall back to
        :data:`DEFAULT_REACH_FRACTION` of the graph), the empty set means
        the regex traverses no edges at all (only the start itself is
        reachable). Never below 1 so downstream products stay monotone.
        """
        if steps is None:
            return max(self.node_count * DEFAULT_REACH_FRACTION, 1.0)
        fraction = max(
            (self.label_reach_fraction(label, inverse) for label, inverse in steps),
            default=0.0,
        )
        return max(self.node_count * fraction, 1.0)

    # ------------------------------------------------------------------
    # Selectivities
    # ------------------------------------------------------------------
    def label_selectivity(
        self, kind: str, labels: Tuple[Tuple[str, ...], ...]
    ) -> float:
        """Fraction of *kind* objects satisfying a label conjunction.

        ``labels`` follows the pattern convention: a conjunction of
        disjunction groups (``:A|B:C`` means (A or B) and C). Groups are
        assumed independent; each contributes ``matched / total``.
        """
        total, counts = {
            "node": (self.node_count, self.node_label_counts),
            "edge": (self.edge_count, self.edge_label_counts),
            "path": (self.path_count, self.path_label_counts),
        }[kind]
        if not labels:
            return 1.0
        if not total:
            return 0.0
        selectivity = 1.0
        for group in labels:
            matched = min(sum(counts.get(l, 0) for l in group), total)
            selectivity *= matched / total
        return selectivity

    def property_selectivity(self, kind: str, key: str) -> float:
        """Expected fraction of *kind* objects matching ``{key = const}``."""
        table = {
            "node": self._node_prop_sel,
            "edge": self._edge_prop_sel,
            "path": self._path_prop_sel,
        }[kind]
        return table.get(key, DEFAULT_SELECTIVITY)

    def property_tests_selectivity(self, kind: str, keys: Iterable[str]) -> float:
        """Combined (independence-assumption) selectivity of equality tests."""
        selectivity = 1.0
        for key in keys:
            selectivity *= self.property_selectivity(kind, key)
        return selectivity

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """A deterministic multi-line dump (REPL ``.stats`` command)."""
        lines = [
            f"nodes={self.node_count} edges={self.edge_count} "
            f"paths={self.path_count}"
        ]
        for title, counts in (
            ("node labels", self.node_label_counts),
            ("edge labels", self.edge_label_counts),
            ("path labels", self.path_label_counts),
        ):
            if counts:
                body = ", ".join(
                    f"{label}={counts[label]}" for label in sorted(counts)
                )
                lines.append(f"  {title}: {body}")
        if self.edge_label_counts:
            degrees = ", ".join(
                f"{label}={self.avg_out_degree(label):.2f}"
                for label in sorted(self.edge_label_counts)
            )
            lines.append(f"  avg out-degree: {degrees}")
        for title, table in (
            ("node key selectivity", self._node_prop_sel),
            ("edge key selectivity", self._edge_prop_sel),
        ):
            if table:
                body = ", ".join(
                    f"{key}={table[key]:.3f}" for key in sorted(table)
                )
                lines.append(f"  {title}: {body}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<GraphStatistics: {self.node_count} nodes, "
            f"{self.edge_count} edges, {self.path_count} paths>"
        )
