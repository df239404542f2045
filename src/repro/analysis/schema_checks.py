"""Pass 3a — name resolution against the catalog, schema and statistics.

With a catalog the analyzer resolves every name a statement mentions:

* ``GC101 unknown-graph`` — ``ON g`` / graph operands / CONSTRUCT graph
  refs naming a graph absent from the catalog (and not bound by a
  query-local ``GRAPH g AS (...)`` head);
* ``GC102 unknown-table`` — ``FROM t`` naming an unregistered table;
* ``GC103 unknown-label`` — a label test naming a label that neither
  the target graph's statistics nor its schema know;
* ``GC104 unknown-property`` — a property key no object of the target
  graph carries (and the schema does not declare);
* ``GC105 unknown-path-view`` — ``<~view>`` in a path regex naming
  neither a registered PATH view nor a query-local ``PATH`` head;
* ``GC302 empty-label`` — the schema declares the label but zero
  objects carry it (matches are statically empty).

All checks degrade gracefully: with no catalog (or a graph that does
not resolve) the pass stays silent rather than guessing.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Iterable, Iterator, List, Optional, Set, TYPE_CHECKING

from ..lang import ast
from ..model.values import Scalar

if TYPE_CHECKING:  # pragma: no cover
    from .analyzer import Analyzer

__all__ = ["GraphFacts", "JoinedFacts", "facts_for_graph", "check_chain_names", "regex_views"]


class GraphFacts:
    """Lazily-computed name sets of one resolved graph (+ schema)."""

    def __init__(self, graph: Any, schema: Any = None) -> None:
        self.graph = graph
        self.schema = schema
        self._labels: Optional[FrozenSet[str]] = None
        self._schema_labels: Optional[FrozenSet[str]] = None
        self._keys: Optional[FrozenSet[str]] = None
        self._domains: dict = {}

    # ------------------------------------------------------------------
    @property
    def data_labels(self) -> FrozenSet[str]:
        """Labels carried by at least one object (statistics-derived)."""
        if self._labels is None:
            stats = self.graph.statistics()
            self._labels = frozenset(
                {
                    *stats.node_label_counts,
                    *stats.edge_label_counts,
                    *stats.path_label_counts,
                }
            )
        return self._labels

    @property
    def schema_labels(self) -> FrozenSet[str]:
        if self._schema_labels is None:
            if self.schema is None:
                self._schema_labels = frozenset()
            else:
                self._schema_labels = (
                    self.schema.node_labels() | self.schema.edge_labels()
                )
        return self._schema_labels

    @property
    def known_labels(self) -> FrozenSet[str]:
        return self.data_labels | self.schema_labels

    @property
    def known_keys(self) -> FrozenSet[str]:
        """Property keys carried by some object or declared by the schema."""
        if self._keys is None:
            keys: Set[str] = set()
            for props in self.graph.property_map().values():
                keys |= set(props)
            if self.schema is not None:
                for allowed in self.schema.node_properties.values():
                    keys |= set(allowed)
                for edge_type in self.schema.edge_types.values():
                    keys |= set(edge_type.properties)
            self._keys = frozenset(keys)
        return self._keys

    def domain(self, key: str) -> FrozenSet[Scalar]:
        """Every scalar any object carries in its *key* value set."""
        if key not in self._domains:
            values: Set[Scalar] = set()
            for props in self.graph.property_map().values():
                values |= set(props.get(key, ()))
            self._domains[key] = frozenset(values)
        return self._domains[key]


class JoinedFacts(GraphFacts):
    """Several graphs' facts as one: a name is known if one of them knows it."""

    def __init__(self, parts: List[GraphFacts]) -> None:
        super().__init__(None)
        self._labels, self._schema_labels, self._keys = (frozenset().union(
            *(getattr(part, name) for part in parts)) for name in (
            "data_labels", "schema_labels", "known_keys"))
        self._parts = parts

    def domain(self, key: str) -> FrozenSet[Scalar]:
        return frozenset().union(*(part.domain(key) for part in self._parts))


def facts_for_graph(ctx: "Analyzer", name: Optional[str]) -> Optional["GraphFacts"]:
    """Resolve *name* (None = default graph) to cached :class:`GraphFacts`.

    Returns ``None`` when there is no catalog, the graph is query-local
    (its content is not known statically), or resolution fails (e.g. an
    unreadable snapshot) — in all cases the schema checks simply stay
    silent.
    """
    catalog = ctx.catalog
    if catalog is None or name in ctx.local_graphs:
        return None
    cache = ctx.graph_facts_cache
    if name in cache:
        return cache[name]
    facts: Optional[GraphFacts] = None
    try:
        if name is None:
            graph = catalog.default_graph()
        elif catalog.has_graph(name):
            graph = catalog.graph(name)
        else:
            graph = None
        if graph is not None:
            schema = None
            schema_of = getattr(catalog, "schema", None)
            # None targets the default graph: resolve its registered
            # name so the attached schema is found too.
            effective = name
            if effective is None:
                effective = getattr(catalog, "default_graph_name", None)
            if effective is not None and callable(schema_of):
                schema = schema_of(effective)
            facts = GraphFacts(graph, schema)
    except Exception:  # unreadable snapshot: degrade silently
        facts = None
    cache[name] = facts
    return facts


def _check_label_groups(
    ctx: "Analyzer",
    facts: Optional[GraphFacts],
    labels: Iterable[Iterable[str]],
) -> None:
    """GC103/GC302 for one pattern's label conjunction groups."""
    if facts is None:
        return
    for group in labels:
        for label in group:
            if label not in facts.known_labels:
                ctx.emit(
                    "GC103",
                    f"label {label!r} does not occur in the target graph "
                    f"(or its schema)",
                    anchor=label,
                    hint="check the spelling against the graph's labels",
                )
            elif label not in facts.data_labels:
                ctx.emit(
                    "GC302",
                    f"label {label!r} is declared by the schema but "
                    f"matches zero objects",
                    anchor=label,
                )


def _check_property_key(ctx: "Analyzer", facts: Optional[GraphFacts], key: str) -> None:
    if facts is None:
        return
    if key not in facts.known_keys:
        ctx.emit(
            "GC104",
            f"no object of the target graph carries property {key!r}",
            anchor=key,
            hint="check the key against the graph's property map",
        )


def regex_views(regex: Optional[ast.RegexExpr]) -> Iterator[ast.RView]:
    """Yield every ``RView`` node of a path regular expression."""
    if regex is None:
        return
    if isinstance(regex, ast.RView):
        yield regex
    child = getattr(regex, "item", None)
    if isinstance(child, ast.RegexExpr):
        yield from regex_views(child)
    for part in getattr(regex, "items", ()):
        if isinstance(part, ast.RegexExpr):
            yield from regex_views(part)


def _regex_labels(regex: Optional[ast.RegexExpr]) -> Iterator[str]:
    if regex is None:
        return
    if isinstance(regex, (ast.RLabel, ast.RNodeTest)):
        yield regex.label
    child = getattr(regex, "item", None)
    if isinstance(child, ast.RegexExpr):
        yield from _regex_labels(child)
    for part in getattr(regex, "items", ()):
        if isinstance(part, ast.RegexExpr):
            yield from _regex_labels(part)


def check_chain_names(
    ctx: "Analyzer",
    facts: Optional[GraphFacts],
    chain: ast.Chain,
    construct: bool = False,
) -> None:
    """Resolve labels / property keys / path views of one pattern chain.

    CONSTRUCT chains (*construct* = True) skip label checks — they
    *introduce* labels into the result graph — but still resolve
    property keys read by tests and the path views of regexes.
    """
    for element in chain.elements:
        if isinstance(element, (ast.NodePattern, ast.EdgePattern)):
            if not construct:
                _check_label_groups(ctx, facts, element.labels)
            for key, _expr in element.prop_tests:
                _check_property_key(ctx, facts, key)
            for key, _var in element.prop_binds:
                _check_property_key(ctx, facts, key)
        elif isinstance(element, ast.PathPatternElem):
            if not construct and element.stored:
                _check_label_groups(ctx, facts, element.labels)
            for label in _regex_labels(element.regex):
                if facts is not None and label not in facts.known_labels:
                    ctx.emit(
                        "GC103",
                        f"label {label!r} does not occur in the target "
                        f"graph (or its schema)",
                        anchor=label,
                    )
            for view in regex_views(element.regex):
                ctx.check_path_view(view.name)
