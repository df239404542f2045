"""The generator's grammar weights and catalog-derived vocabulary.

The grammar itself lives in :mod:`repro.fuzz.generate` as recursive
productions; this module owns the two inputs that shape it:

* :data:`DEFAULT_WEIGHTS` — one flat ``production -> weight`` table.
  Weights are relative probabilities (feature toggles are drawn as
  ``rng.random() < weight``; alternative sets are drawn proportionally),
  so the table doubles as the documentation of what the generator can
  emit (``docs/fuzzing.md``).
* :class:`Vocabulary` — the names and scalar values the generator is
  allowed to mention, derived from a live engine's catalog so that
  generated statements resolve (the analyzer-clean filter would discard
  statements over unknown names anyway; drawing from the catalog keeps
  the acceptance rate high).

Everything here is deterministic: name lists are sorted, value pools are
sorted by ``(type, repr)``, and no iteration order of a set or dict ever
leaks into the vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..model.values import Date, Scalar

__all__ = ["DEFAULT_WEIGHTS", "GraphVocab", "Vocabulary", "scalar_sort_key"]


#: Relative weights of every grammar production the generator knows.
#: Toggles (``x.y``) are probabilities in [0, 1]; alternative groups
#: (``x.y.*``) are normalized over the group members.
DEFAULT_WEIGHTS: Dict[str, float] = {
    # ---- statement / query level -------------------------------------
    "head.select": 0.55,  # vs CONSTRUCT
    "query.path_clause": 0.10,  # PATH name = ... head
    "query.graph_clause": 0.06,  # GRAPH name AS (...) head
    "body.setop": 0.10,  # UNION/INTERSECT/MINUS of graph queries
    "setop.union": 0.50,
    "setop.intersect": 0.25,
    "setop.minus": 0.25,
    "body.graph_ref": 0.05,  # a bare graph name as a set-op operand
    "basic.from_table": 0.08,  # SELECT ... FROM table
    # ---- MATCH --------------------------------------------------------
    "match.extra_pattern": 0.25,  # a second comma pattern in the block
    "match.optional": 0.20,  # an OPTIONAL block
    "match.where": 0.60,
    "match.on": 0.22,  # explicit ON graph for a pattern
    "chain.extend": 0.50,  # add another connector+node to a chain
    "connector.path": 0.28,  # a path connector (vs an edge)
    # ---- node / edge patterns ----------------------------------------
    "node.var": 0.85,
    "node.label": 0.55,
    "node.second_label": 0.10,
    "node.prop_test": 0.22,
    "node.prop_bind": 0.08,
    "bind.reuse": 0.50,  # a {k = v} bind naming an already-bound value var
    "edge.var": 0.45,
    "edge.rebind": 0.30,  # reuse an edge var of an earlier pattern
    "edge.label": 0.70,
    "edge.second_label": 0.10,  # a label conjunction -[:a:b]->
    "edge.prop_test": 0.10,
    "edge.prop_bind": 0.08,
    "pattern.test_reads_block": 0.15,  # a {k = x.k} test, x any node/edge var of the block
    "edge.in": 0.22,  # <-[...]-
    "edge.undirected": 0.12,  # -[...]-
    # ---- path connectors ---------------------------------------------
    "path.mode.shortest": 0.55,
    "path.mode.kshortest": 0.18,
    "path.mode.all": 0.15,
    "path.mode.reach": 0.12,
    "path.var": 0.60,
    "path.cost_var": 0.22,
    "path.stored": 0.10,  # -/@p .../-> stored-path match
    "path.reuse": 0.50,  # a SHORTEST walk or COST var already bound: a join
    "path.anchor_target": 0.25,  # a {k = v} test on the target alone
    # ---- regular path expressions ------------------------------------
    "regex.label": 0.46,
    "regex.any": 0.06,
    "regex.node_test": 0.05,
    "regex.view": 0.08,
    "regex.concat": 0.14,
    "regex.alt": 0.11,
    "regex.star": 0.04,
    "regex.plus": 0.04,
    "regex.opt": 0.05,
    "regex.repeat": 0.05,
    "regex.inverse": 0.12,  # :label^ / _^
    # ---- SELECT -------------------------------------------------------
    "select.distinct": 0.22,
    "select.extra_item": 0.55,
    "select.alias": 0.75,
    "select.group_by": 0.20,
    "select.aggregate": 0.35,  # aggregate head without GROUP BY
    "select.order_by": 0.35,
    "select.order_desc": 0.35,
    "select.limit": 0.25,
    "select.offset": 0.30,  # only drawn when limit is present
    # ---- CONSTRUCT ----------------------------------------------------
    "construct.extra_item": 0.20,
    "construct.graph_ref": 0.10,  # a bare graph name union item
    "construct.fresh_node": 0.35,  # build a new node (vs reusing a var)
    "construct.edge": 0.45,  # connect two construct nodes
    "construct.when": 0.22,
    "construct.set": 0.18,
    "construct.remove": 0.08,
    "construct.group": 0.10,  # explicit GROUP key on a fresh node
    "construct.prop_assign": 0.35,  # {k := expr} on a construct element
    # ---- expressions --------------------------------------------------
    "expr.binary_bool": 0.45,  # AND/OR/XOR split while depth remains
    "expr.not": 0.10,
    "expr.exists_pattern": 0.07,
    "expr.exists_query": 0.04,
    "expr.label_test": 0.10,
    "expr.case": 0.06,
    "expr.func": 0.18,
    "expr.param_literal": 0.22,  # draw a $param instead of an inline literal
    "expr.prop_vs_prop": 0.12,  # compare two properties
    "cmp.eq": 0.40,
    "cmp.neq": 0.12,
    "cmp.lt": 0.12,
    "cmp.le": 0.08,
    "cmp.gt": 0.12,
    "cmp.ge": 0.08,
    "cmp.in": 0.08,
    "cmp.constant_left": 0.30,  # `1 < n.k`: the constant as left operand
    # ---- literal value lattice ---------------------------------------
    "lit.bool": 0.08,
    "lit.int": 0.30,
    "lit.float": 0.14,
    "lit.str": 0.34,
    "lit.date": 0.08,
    "lit.set": 0.06,  # only reachable through a $param (no set syntax)
    # ---- fault injection ---------------------------------------------
    "fault.unknown_name": 0.03,  # misspell a graph/table/view name
}


def scalar_sort_key(value: Scalar) -> Tuple[str, str]:
    """A total, version-stable order over mixed scalar pools."""
    return (type(value).__name__, repr(value))


@dataclass(frozen=True)
class GraphVocab:
    """The name/value surface of one registered graph."""

    name: str
    node_labels: Tuple[str, ...]
    edge_labels: Tuple[str, ...]
    path_labels: Tuple[str, ...]
    prop_keys: Tuple[str, ...]
    #: per-key sorted scalar pools drawn for property equality tests
    prop_values: Tuple[Tuple[str, Tuple[Scalar, ...]], ...]

    def values_for(self, key: str) -> Tuple[Scalar, ...]:
        for name, values in self.prop_values:
            if name == key:
                return values
        return ()

    @classmethod
    def from_graph(cls, name: str, graph) -> "GraphVocab":
        stats = graph.statistics()
        pools: Dict[str, List[Scalar]] = {}
        for props in graph.property_map().values():
            for key, values in props.items():
                pool = pools.setdefault(key, [])
                for value in values:
                    if value not in pool:
                        pool.append(value)
        prop_values = tuple(
            (key, tuple(sorted(pool, key=scalar_sort_key)[:8]))
            for key, pool in sorted(pools.items())
        )
        return cls(
            name=name,
            node_labels=tuple(sorted(stats.node_label_counts)),
            edge_labels=tuple(sorted(stats.edge_label_counts)),
            path_labels=tuple(sorted(stats.path_label_counts)),
            prop_keys=tuple(sorted(pools)),
            prop_values=prop_values,
        )


@dataclass(frozen=True)
class Vocabulary:
    """Everything the generator may name: graphs, tables, views, values."""

    graphs: Tuple[GraphVocab, ...]
    default_graph: str
    tables: Tuple[Tuple[str, Tuple[str, ...]], ...]  # (name, columns)
    path_views: Tuple[str, ...]
    #: extra dates for the Date lane of the value lattice
    dates: Tuple[Date, ...] = field(
        default=(Date(1999, 1, 17), Date(2002, 10, 1), Date(2014, 12, 1))
    )

    def graph_named(self, name: str) -> GraphVocab:
        for graph in self.graphs:
            if graph.name == name:
                return graph
        return self.graphs[0]

    @property
    def graph_names(self) -> Tuple[str, ...]:
        return tuple(graph.name for graph in self.graphs)

    @classmethod
    def from_engine(cls, engine) -> "Vocabulary":
        """Derive the vocabulary from an engine's registered catalog."""
        catalog = engine.catalog
        graphs = tuple(
            GraphVocab.from_graph(name, catalog.graph(name))
            for name in sorted(catalog.graph_names())
        )
        if not graphs:
            raise ValueError("fuzzing needs at least one registered graph")
        default = getattr(catalog, "default_graph_name", None) or graphs[0].name
        tables = tuple(
            (name, tuple(catalog.table(name).columns))
            for name in sorted(catalog.table_names())
        )
        path_views = tuple(sorted(catalog.path_view_names()))
        return cls(
            graphs=graphs,
            default_graph=default,
            tables=tables,
            path_views=path_views,
        )
