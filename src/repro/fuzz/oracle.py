"""The definitional oracle the engine is checked against: Appendix A of
G-CORE (arXiv 1712.01550) under the CQ + RPQ model of arXiv 1610.06264.

* **Paths** are walks enumerated on the product of a graph, a
  :func:`~repro.paths.automaton.compile_regex` automaton and PATH-view
  segments (:func:`shortest_walks`, :func:`k_shortest_walks`,
  :func:`reachable`, :func:`all_paths`).
* **Bindings**: :class:`OracleContext` enumerates a MATCH block's
  homomorphisms element by element in syntax order, then filters each
  complete one by its patterns' ``{k = v}`` tests, in element order, and
  its WHERE, with the interpreted ``ExpressionEvaluator``.
* **Statements**: :func:`run` executes one through the engine's own
  statement path with an :class:`OracleContext`, so every block — top
  level, OPTIONAL, EXISTS, pattern predicates, ``ON (subquery)``,
  PATH-view bodies — is the oracle's.

It reads only Definition 2.1's surface of a graph (``nodes``, ``edges``,
``paths``, ``endpoints``, ``path_sequence``, ``labels``, ``property``),
never the engine's adjacency buckets, value indexes, statistics,
view-segment memos or plans. It is correct on fuzz-sized graphs, not fast.
"""

from __future__ import annotations

import heapq
import itertools
from typing import (
    Any, Callable, Dict, FrozenSet, Iterator, List, Mapping, Optional,
    Sequence, Set, Tuple,
)

from ..algebra.binding import EMPTY_BINDING, Binding, BindingTable
from ..engine import GCoreEngine, PreparedQuery
from ..errors import AnalysisError, SemanticError
from ..eval.context import EvalContext
from ..eval.expressions import ExpressionEvaluator
from ..eval.match import evaluate_match
from ..eval.pathviews import materialize_path_view
from ..eval.query import QueryResult, evaluate_query
from ..lang import ast
from ..lang.parser import Parser, parse_with
from ..model.graph import ObjectId, PathPropertyGraph
from ..model.values import gcore_equals, gcore_in
from ..paths.automaton import NFA, compile_regex, regex_view_names
from ..paths.product import ViewSegment
from ..paths.walk import AllPathsHandle, Walk, walk_key

__all__ = ["OracleContext", "Product", "all_paths", "bindings", "k_shortest_walks",
           "reachable", "run", "shortest_walks"]

Move = Tuple[float, Tuple[ObjectId, ...], ObjectId, int]
State = Tuple[ObjectId, int]
#: A walk waiting in the heap: cost, walk key, push count, walk, automaton state.
Entry = Tuple[float, Tuple[str, ...], int, Tuple[ObjectId, ...], int]
Into = Dict[State, List[Tuple[State, Tuple[ObjectId, ...]]]]
Adjacency = Tuple[Dict[ObjectId, List[ObjectId]], Dict[ObjectId, List[ObjectId]]]
Views = Mapping[str, Mapping[ObjectId, Sequence[ViewSegment]]]
Step = Callable[[Binding], Iterator[Binding]]
#: A pattern's ``{k = v}`` test: the element's variable, its graph, k, v.
Test = Tuple[str, PathPropertyGraph, str, ast.Expr]

#: Prefix of the names anonymous pattern nodes get while a block runs.
_HIDDEN = "#oracle"


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

def adjacency(graph: PathPropertyGraph) -> Adjacency:
    """Outgoing and incoming edges per node, derived from ``endpoints``."""
    out: Dict[ObjectId, List[ObjectId]] = {}
    into: Dict[ObjectId, List[ObjectId]] = {}
    for edge in sorted(graph.edges, key=str):
        source, target = graph.endpoints(edge)
        out.setdefault(source, []).append(edge)
        into.setdefault(target, []).append(edge)
    return out, into


class Product:
    """The product of a graph, a regex automaton and PATH-view segments."""

    def __init__(self, graph: PathPropertyGraph, nfa: NFA, views: Optional[Views] = None) -> None:
        self.graph, self.nfa = graph, nfa
        self.views: Views = views or {}
        self.out, self.into = adjacency(graph)

    def moves(self, node: ObjectId, state: int) -> Iterator[Move]:
        """Each ``(cost, sequence extension, next node, next state)``: an
        edge arc costs 1, a node test 0, a view arc its segment's cost."""
        graph = self.graph
        for arc, after in self.nfa.moves(state):
            if arc.kind == "node":
                if arc.label in graph.labels(node):
                    yield 0.0, (), node, after
            elif arc.kind == "view":
                for segment in self.views.get(arc.label or "", {}).get(node, ()):
                    yield segment.cost, segment.sequence[1:], segment.target, after
            else:
                for edge in (self.into if arc.inverse else self.out).get(node, ()):
                    if arc.label is None or arc.label in graph.labels(edge):
                        other = graph.endpoints(edge)[0 if arc.inverse else 1]
                        yield 1.0, (edge, other), other, after


def k_shortest_walks(product: Product, source: ObjectId, k: int) -> Dict[ObjectId, List[Walk]]:
    """Up to *k* cheapest distinct conforming walks from *source* to each
    node, in ``(cost, walk_key)`` order (the tie-break of Appendix A,
    footnote 4). Whole walks wait in a heap; a product state expands at
    most its *k* cheapest distinct prefixes (the j-th cheapest walk to a
    state extends one of the k cheapest to a predecessor), and a prefix
    another automaton run repeats is skipped, so the enumeration ends."""
    nfa = product.nfa
    found: Dict[ObjectId, List[Walk]] = {}
    expanded: Dict[State, Set[Tuple[str, ...]]] = {}
    pushes = itertools.count(1)
    heap: List[Entry] = [(0.0, walk_key((source,)), 0, (source,), nfa.start)]
    while heap:
        cost, key, _, sequence, state = heapq.heappop(heap)
        node = sequence[-1]
        prefixes = expanded.setdefault((node, state), set())
        if key in prefixes or len(prefixes) >= k:
            continue
        prefixes.add(key)
        if nfa.is_accepting(state):
            walks = found.setdefault(node, [])
            if len(walks) < k and all(w.sequence != sequence for w in walks):
                walks.append(Walk(sequence, cost))
        for delta, extension, after, next_state in product.moves(node, state):
            if len(expanded.get((after, next_state), ())) < k:
                walk = sequence + extension
                heapq.heappush(heap, (cost + delta, walk_key(walk), next(pushes), walk, next_state))
    return found


def shortest_walks(product: Product, source: ObjectId) -> Dict[ObjectId, Walk]:
    """The cheapest conforming walk from *source* to each node it reaches:
    k = 1, so each product state is settled by the first walk popped."""
    return {node: walks[0] for node, walks in k_shortest_walks(product, source, 1).items()}


def _forward(product: Product, source: ObjectId) -> Tuple[Set[State], Into]:
    """The product states reachable from *source*, and transitions into each."""
    start = (source, product.nfa.start)
    seen, stack = {start}, [start]
    into: Into = {}
    while stack:
        pair = stack.pop()
        for _, extension, node, state in product.moves(*pair):
            into.setdefault((node, state), []).append((pair, extension))
            if (node, state) not in seen:
                seen.add((node, state))
                stack.append((node, state))
    return seen, into


def reachable(product: Product, source: ObjectId) -> Set[ObjectId]:
    """The nodes some conforming walk from *source* ends at."""
    return {node for node, state in _forward(product, source)[0]
            if product.nfa.is_accepting(state)}


def all_paths(product: Product, source: ObjectId
              ) -> Dict[ObjectId, Tuple[FrozenSet[ObjectId], FrozenSet[ObjectId]]]:
    """The ALL-paths projection from *source* to each node it reaches:
    the nodes and edges of every transition that is reachable from
    *source* and co-reachable from an accepting state at the target."""
    states, into = _forward(product, source)
    finals: Dict[ObjectId, List[State]] = {}
    for node, state in states:
        if product.nfa.is_accepting(state):
            finals.setdefault(node, []).append((node, state))
    projections = {}
    for target, stack in finals.items():
        nodes, back = {target}, set(stack)
        edges: Set[ObjectId] = set()
        while stack:
            for before, extension in into.get(stack.pop(), ()):
                nodes.add(before[0])
                nodes.update(extension[1::2])
                edges.update(extension[0::2])
                if before not in back:
                    back.add(before)
                    stack.append(before)
        projections[target] = (frozenset(nodes), frozenset(edges))
    return projections


# ---------------------------------------------------------------------------
# Bindings
# ---------------------------------------------------------------------------

class OracleContext(EvalContext):
    """An evaluation context whose MATCH blocks the oracle enumerates."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # Per-graph data (adjacency, scans, view segments), shared with every
        # child, kept beside its graph: an id reused after collection misses.
        self.memo: Dict[Tuple[str, int], Tuple[PathPropertyGraph, Any]] = {}

    def match_block(self, block: Any, seed: Optional[BindingTable],
                    graphs: Sequence[PathPropertyGraph]) -> Optional[BindingTable]:
        return match_block(block, self, seed, graphs)

    def per_graph(self, key: str, graph: PathPropertyGraph, make: Callable[[], Any]) -> Any:
        hit = self.memo.get((key, id(graph)))
        if hit is None or hit[0] is not graph:
            hit = self.memo[(key, id(graph))] = (graph, make())
        return hit[1]

    def segments_for(self, name: str, graph: PathPropertyGraph
                     ) -> Mapping[ObjectId, Tuple[ViewSegment, ...]]:
        """A PATH view's segments over *graph*, materialized per query by
        the oracle — never through the graph's epoch memo."""
        clause = self.require_path_view(name)
        return self.per_graph(
            repr(clause), graph, lambda: materialize_path_view(clause, graph, self)
        )

    def scan(self, graph: PathPropertyGraph, kind: str) -> List[ObjectId]:
        """The graph's ``nodes``, ``edges`` or ``paths`` in identifier order."""
        return self.per_graph(kind, graph, lambda: sorted(getattr(graph, kind), key=str))


def _bind(row: Optional[Binding], var: Optional[str], value: Any) -> Optional[Binding]:
    """*row* with *var* bound to *value* (a None var or value binds
    nothing); None when *row* is None or binds *var* to another value."""
    if row is None or var is None or value is None:
        return row
    if var not in row:
        return row.extend(var, value)
    return row if row[var] == value else None


def _labelled(graph: PathPropertyGraph, obj: ObjectId, groups: Sequence[Sequence[str]]) -> bool:
    """Does *obj* carry a label of every disjunction group (``:A|B:C``)?"""
    labels = graph.labels(obj)
    return all(any(label in labels for label in group) for group in groups)


def _member(value: Any, values: FrozenSet[Any]) -> bool:
    """*value* in *values* by Python's ``in``, then G-CORE's (TRUE is not 1)."""
    return value in values and gcore_in(value, values)


def _admit(graph: PathPropertyGraph, obj: ObjectId, pattern: Any,
           base: Optional[Binding]) -> List[Binding]:
    """*base* extended by *obj*'s property binds ``{k = x}``, if *obj* is in
    *base* and carries the pattern's labels."""
    if base is None or not _labelled(graph, obj, pattern.labels):
        return []
    rows = [base]
    for key, var in pattern.prop_binds:
        values = graph.property(obj, key)
        unrolled: List[Binding] = []
        for current in rows:
            if var not in current:
                unrolled.extend(current.extend(var, v) for v in sorted(values, key=repr))
            elif _member(current[var], values):
                unrolled.append(current)
        rows = unrolled
    return rows


def _passes(test: Test, row: Binding, ev: ExpressionEvaluator) -> bool:
    """Does *row* pass a ``{k = v}`` test? G-CORE equality or membership
    (Section 3) of the element's ``k`` in its pattern's graph and *v*
    evaluated over the complete *row*."""
    var, graph, key, expr = test
    expected, actual = ev.evaluate(expr, row), graph.property(row[var], key)
    return gcore_equals(actual, expected) or (
        not isinstance(expected, frozenset) and _member(expected, actual)
    )


def _node_step(ctx: OracleContext, graph: PathPropertyGraph, pattern: ast.NodePattern,
               var: str) -> Step:
    def step(row: Binding) -> Iterator[Binding]:
        for node in [row[var]] if var in row else ctx.scan(graph, "nodes"):
            if node in graph.nodes:
                yield from _admit(graph, node, pattern, _bind(row, var, node))
    return step


def _edge_step(ctx: OracleContext, graph: PathPropertyGraph, pattern: ast.EdgePattern,
               left: str, right: str, var: Optional[str]) -> Step:
    ends = {ast.OUT: [(left, right)], ast.IN: [(right, left)]}.get(
        pattern.direction, [(left, right), (right, left)]
    )

    def step(row: Binding) -> Iterator[Binding]:
        out, into = ctx.per_graph("adjacency", graph, lambda: adjacency(graph))
        for tail, head in ends:
            if var is not None and var in row:
                edges = [row[var]] if row[var] in graph.edges else []
            elif tail in row or head in row:
                edges = out.get(row[tail], []) if tail in row else into.get(row[head], [])
            else:
                edges = ctx.scan(graph, "edges")
            for edge in edges:
                source, target = graph.endpoints(edge)
                base = _bind(_bind(_bind(row, tail, source), head, target), var, edge)
                yield from _admit(graph, edge, pattern, base)
    return step


def _answers(pattern: ast.PathPatternElem, product: Product, source: ObjectId
             ) -> List[Tuple[ObjectId, Any, Any]]:
    """``(target, path value, cost)`` per answer of a computed path pattern
    from *source* (None binds nothing; an integral cost binds an int)."""
    if pattern.mode == "reach":
        return [(target, None, None) for target in reachable(product, source)]
    if pattern.mode == "all":
        return [
            (target, AllPathsHandle(source, target, tuple(sorted(nodes, key=str)),
                                    tuple(sorted(edges, key=str))), None)
            for target, (nodes, edges) in all_paths(product, source).items()
        ]
    return [
        (target, walk, int(walk.cost) if walk.cost.is_integer() else walk.cost)
        for target, walks in k_shortest_walks(product, source, pattern.count).items()
        for walk in walks
    ]


def _path_step(ctx: OracleContext, graph: PathPropertyGraph, pattern: ast.PathPatternElem,
               left: str, right: str) -> Step:
    tail, head = (right, left) if pattern.direction == ast.IN else (left, right)
    products: List[Product] = []
    answers: Dict[ObjectId, List[Tuple[ObjectId, Any, Any]]] = {}

    def search(source: ObjectId) -> List[Tuple[ObjectId, Any, Any]]:
        if pattern.stored:
            return [
                (sequence[-1], pid, len(sequence) // 2)
                for pid in ctx.scan(graph, "paths")
                for sequence in [graph.path_sequence(pid)]
                if sequence[0] == source and _labelled(graph, pid, pattern.labels)
            ]
        if not products:
            # Built when the first row reaches the pattern: materializing
            # a PATH view may raise, and must not when no row does.
            views = {name: ctx.segments_for(name, graph)
                     for name in regex_view_names(pattern.regex)}
            products.append(Product(graph, compile_regex(pattern.regex), views))
        return _answers(pattern, products[0], source)

    def step(row: Binding) -> Iterator[Binding]:
        if pattern.direction == ast.UNDIRECTED:
            raise SemanticError("path patterns must be directed (-/ /-> or <-/ /-)")
        for source in [row[tail]] if tail in row else ctx.scan(graph, "nodes"):
            if source not in graph.nodes:
                continue
            if source not in answers:
                answers[source] = search(source)
            for target, value, cost in answers[source]:
                bound = _bind(_bind(row, tail, source), head, target)
                bound = _bind(_bind(bound, pattern.var, value), pattern.cost_var, cost)
                if bound is not None:
                    yield bound
    return step


def match_block(block: ast.MatchBlock, ctx: OracleContext, seed: Optional[BindingTable],
                graphs: Sequence[PathPropertyGraph]) -> BindingTable:
    """The homomorphisms of *block* over its patterns' *graphs* extending
    each *seed* row (Appendix A.2), extended element by element in syntax
    order, that satisfy its patterns' ``{k = v}`` tests, in element order,
    and then its WHERE; anonymous elements are projected away."""
    ev = ExpressionEvaluator(ctx)
    steps: List[Step] = []
    tests: List[Test] = []
    columns: List[Optional[str]] = list(seed.columns) if seed is not None else []
    for index, (location, graph) in enumerate(zip(block.patterns, graphs)):
        elements = location.chain.elements
        names = [e.var or f"{_HIDDEN}{index}.{i}" for i, e in enumerate(elements)]
        for i, element in enumerate(elements):
            if getattr(element, "copy_of", None) is not None:
                raise SemanticError("copy patterns (=x) are CONSTRUCT-only")
            tests += [
                (names[i], graph, key, expr) for key, expr in getattr(element, "prop_tests", ())
            ]
            if isinstance(element, ast.NodePattern):
                steps.append(_node_step(ctx, graph, element, names[i]))
                columns += [names[i], *(var for _, var in element.prop_binds)]
            elif isinstance(element, ast.EdgePattern):
                # An anonymous edge is bound (to a hidden name) only for its tests.
                edge = names[i] if element.prop_tests else element.var
                steps.append(_edge_step(ctx, graph, element, names[i - 1], names[i + 1], edge))
                columns += [element.var, *(var for _, var in element.prop_binds)]
            else:
                steps.append(_path_step(ctx, graph, element, names[i - 1], names[i + 1]))
                columns += [element.var, element.cost_var]
    rows = list(seed) if seed is not None else [EMPTY_BINDING]
    for step in steps:
        rows = [longer for row in rows for longer in step(row)]
    rows = [
        row for row in rows
        if all(_passes(test, row, ev) for test in tests)
        and (block.where is None or ev.evaluate_predicate(block.where, row))
    ]
    visible = [c for c in dict.fromkeys(columns) if c and not c.startswith(_HIDDEN)]
    return BindingTable(visible, [row.project(visible) for row in rows])


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

def run(engine: GCoreEngine, text: str, params: Optional[Dict[str, Any]] = None,
        strict: bool = False) -> QueryResult:
    """Execute one statement on *engine*'s catalog with the oracle
    evaluating every MATCH block; ``strict`` analyzes it first, and a
    :class:`~repro.engine.PreparedQuery` sort-checks it (outside the
    engine's LRU), as :meth:`GCoreEngine.run` does."""
    if strict:
        analysis = engine.analyze(text)
        if not analysis.ok:
            raise AnalysisError(analysis)
    statement = PreparedQuery(engine, text, engine.parse(text)).statement
    if isinstance(statement, ast.GraphViewStmt):
        with engine._lock:  # a write: evaluated over the version it replaces
            return engine._define_view(statement, _context(engine, params))
    return evaluate_query(statement, _context(engine, params))


def _context(engine: GCoreEngine, params: Optional[Dict[str, Any]]) -> OracleContext:
    ctx = OracleContext(engine.catalog, engine._ids)
    ctx.params = dict(params or {})
    return ctx


def bindings(engine: GCoreEngine, match_text: str) -> BindingTable:
    """The oracle's binding table of a standalone ``MATCH ...`` fragment
    (what :meth:`GCoreEngine.bindings` returns, without its sort check)."""
    match = parse_with(match_text, Parser._match_clause)
    return evaluate_match(match, OracleContext(engine.catalog, engine._ids))
