"""The semantic analyzer: one AST walk orchestrating all passes.

:func:`analyze` accepts query text or an already-parsed statement plus
an optional :class:`~repro.catalog.Catalog` version and returns an
:class:`~repro.analysis.diagnostics.AnalysisResult`. Analysis never
raises on a bad query — even unparseable text comes back as a ``GC001``
diagnostic — and never executes anything: it is a pure function of the
statement, the catalog metadata and the statistics of registered
graphs.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, Union

from ..errors import GCoreError, LexerError, ParseError
from ..eval.match import pattern_targets
from ..lang import ast
from ..lang.lexer import tokenize
from ..lang.parser import Parser
from ..model.values import Date, Scalar
from .cost import check_cartesian
from .diagnostics import CODES, AnalysisResult, Diagnostic
from .satisfiability import check_satisfiability
from .schema_checks import GraphFacts, JoinedFacts, check_chain_names, facts_for_graph
from .scopes import (
    Scope,
    collect_chain_sorts,
    collect_construct_sorts,
    collect_match_scope,
)
from .spans import SpanIndex
from .types import check_condition, infer_type

__all__ = ["Analyzer", "analyze"]


class Analyzer:
    """One analysis run: diagnostic accumulator plus resolution state."""

    def __init__(
        self, catalog: Any = None, spans: Optional[SpanIndex] = None
    ) -> None:
        self.catalog = catalog
        self.spans = spans or SpanIndex()
        self.diagnostics: List[Diagnostic] = []
        #: graph names bound by query-local ``GRAPH g AS (...)`` heads
        self.local_graphs: Set[str] = set()
        #: path-view names bound by query-local ``PATH p = ...`` heads
        self.local_path_views: Set[str] = set()
        #: graph name (None = default) -> GraphFacts or None
        self.graph_facts_cache: Dict[Optional[str], Optional[GraphFacts]] = {}
        #: stack of var -> GraphFacts | None (unknown) frames
        self._frames: List[Dict[str, Optional[GraphFacts]]] = []
        #: the facts of the graph a subquery or pattern predicate at the
        #: current position inherits (None: unknown)
        self.graph: Optional[GraphFacts] = None

    # ------------------------------------------------------------------
    # Diagnostic emission
    # ------------------------------------------------------------------
    def emit(
        self,
        code: str,
        message: str,
        anchor: Optional[str] = None,
        hint: Optional[str] = None,
        severity: Optional[str] = None,
    ) -> None:
        """Record one finding, anchored at *anchor*'s first occurrence."""
        span = self.spans.first(anchor)
        self.diagnostics.append(
            Diagnostic(
                code=code,
                severity=severity or CODES[code].severity,
                message=message,
                line=span[0] if span else None,
                column=span[1] if span else None,
                hint=hint,
            )
        )

    def result(self) -> AnalysisResult:
        return AnalysisResult(self.diagnostics)

    # ------------------------------------------------------------------
    # Resolution hooks used by the pass modules
    # ------------------------------------------------------------------
    def _facts_of_var(self, name: str) -> Optional[GraphFacts]:
        for frame in reversed(self._frames):
            if name in frame:
                return frame[name]
        return None

    def note_property(self, scope: Scope, expr: ast.Prop) -> None:
        """GC104 for ``var.key`` reads against the variable's graph."""
        if not isinstance(expr.base, ast.Var):
            return
        facts = self._facts_of_var(expr.base.name)
        if facts is not None and expr.key not in facts.known_keys:
            self.emit(
                "GC104",
                f"no object of the target graph carries property "
                f"{expr.key!r}",
                anchor=expr.key,
                hint="check the key against the graph's property map",
            )

    def note_label_test(self, scope: Scope, expr: ast.LabelTest) -> None:
        """GC103/GC302 for ``var:A|B`` tests against the variable's graph."""
        facts = self._facts_of_var(expr.var)
        if facts is None:
            return
        for label in expr.labels:
            if label not in facts.known_labels:
                self.emit(
                    "GC103",
                    f"label {label!r} does not occur in the target graph "
                    f"(or its schema)",
                    anchor=label,
                    hint="check the spelling against the graph's labels",
                )
            elif label not in facts.data_labels:
                self.emit(
                    "GC302",
                    f"label {label!r} is declared by the schema but "
                    f"matches zero objects",
                    anchor=label,
                )

    def note_chain(self, scope: Scope, chain: ast.Chain) -> None:
        """Name checks for an inline EXISTS pattern, against the graph of
        the first pattern of the block whose WHERE holds it."""
        check_chain_names(self, self.graph, chain)

    def property_domain(
        self, scope: Scope, var: str, key: str
    ) -> Optional[frozenset]:
        """The known value domain of ``var.key``, or None when unknown.

        Unknown *keys* return None too: GC104 already covers them, and a
        domain-based GC301 on top would be double-reporting.
        """
        facts = self._facts_of_var(var)
        if facts is None or key not in facts.known_keys:
            return None
        return facts.domain(key)

    def check_path_view(self, name: str) -> None:
        """GC105 unless *name* is a registered or query-local PATH view."""
        if name in self.local_path_views or self.catalog is None:
            return
        try:
            known = self.catalog.path_view(name) is not None
        except GCoreError:
            known = True  # resolution failure is not the query's fault
        if not known:
            self.emit(
                "GC105",
                f"path view {name!r} is not defined",
                anchor=name,
                hint="define it with a PATH clause or register it as a "
                "PATH view",
            )

    def check_graph_name(self, name: str) -> None:
        """GC101 unless *name* is a registered or query-local graph."""
        if name in self.local_graphs or self.catalog is None:
            return
        if not self.catalog.has_graph(name):
            self.emit(
                "GC101",
                f"graph {name!r} is not in the catalog",
                anchor=name,
                hint="register the graph or check the spelling",
            )

    # ------------------------------------------------------------------
    # Statement walk
    # ------------------------------------------------------------------
    def analyze_statement(self, statement: ast.Statement) -> None:
        if isinstance(statement, ast.GraphViewStmt):
            statement = statement.query
        self.analyze_query(statement, None, facts_for_graph(self, None))

    def analyze_query(
        self, query: ast.Query, outer: Optional[Scope], graph: Optional[GraphFacts]
    ) -> None:
        """*query*, correlated against *outer*, inheriting *graph*'s facts."""
        # Heads bind names progressively: a PATH clause may reference
        # earlier PATH views, the body sees all of them.
        saved_graphs = set(self.local_graphs)
        saved_views = set(self.local_path_views)
        for head in query.heads:
            if isinstance(head, ast.PathClause):
                self._analyze_path_clause(head, outer, self._searched_over(query, head.name, graph))
                self.local_path_views.add(head.name)
            else:  # GraphClause
                self.analyze_query(head.query, outer, graph)
                self.local_graphs.add(head.name)
        self._analyze_body(query.body, outer, graph)
        self.local_graphs = saved_graphs
        self.local_path_views = saved_views

    def analyze_subquery(self, query: ast.Query, scope: Scope) -> None:
        """Hook for EXISTS (subquery) — correlated against *scope*."""
        self.analyze_query(query, scope, self.graph)

    def _analyze_body(
        self, body: ast.QueryBody, outer: Optional[Scope], graph: Optional[GraphFacts]
    ) -> None:
        if isinstance(body, ast.GraphRefQuery):
            self.check_graph_name(body.name)
        elif isinstance(body, ast.SetOpQuery):
            self._analyze_body(body.left, outer, graph)
            self._analyze_body(body.right, outer, graph)
        else:
            self._analyze_basic(body, outer, graph)

    def _searched_over(self, query: ast.Query, name: str,
                       graph: Optional[GraphFacts]) -> Optional[GraphFacts]:
        """The facts PATH head *name* is checked against: those of the graphs
        the patterns of *query*'s blocks search it over, joined (None if one
        is unknown or a search sits deeper), else the default graph's."""
        def searches(node: Any, stop: Tuple[type, ...] = ast.SUBQUERIES) -> int:
            return sum(isinstance(item, ast.RView) and item.name == name
                       for item in ast.walk(node, stop))
        local = {head.name for head in query.heads if isinstance(head, ast.GraphClause)}

        def resolve(on: Union[str, ast.Query]) -> Optional[GraphFacts]:
            return None if isinstance(on, ast.Query) or on in local else facts_for_graph(self, on)
        found: List[Optional[GraphFacts]] = []
        bodies = [query.body]
        while bodies:
            body = bodies.pop()
            if isinstance(body, ast.SetOpQuery):
                bodies += (body.left, body.right)
            elif isinstance(body, ast.BasicQuery) and body.match is not None:
                first = pattern_targets(body.match.block, graph, resolve)
                for block in (body.match.block, *body.match.optionals):
                    targets = first if block is body.match.block else (
                        pattern_targets(block, first[0], resolve))
                    found += [facts for location, facts in zip(block.patterns, targets)
                              for _ in range(searches(location.chain))]
        if None in found or searches(query, ()) > len(found):
            return None
        distinct = list({id(facts): facts for facts in found}.values()) or [facts_for_graph(self, None)]
        return distinct[0] if len(distinct) == 1 else JoinedFacts(distinct)

    def _analyze_path_clause(
        self, clause: ast.PathClause, outer: Optional[Scope], facts: Optional[GraphFacts]
    ) -> None:
        scope = Scope(outer)
        frame: Dict[str, Optional[GraphFacts]] = {}
        self._frames.append(frame)
        saved = self.graph
        try:
            self.graph = facts
            for chain in clause.chains:
                collect_chain_sorts(self, scope, chain)
                check_chain_names(self, facts, chain)
                self._register_chain_vars(frame, chain, facts)
            check_condition(self, scope, clause.where, clause="WHERE")
            check_satisfiability(
                self, scope, clause.where,
                self._pattern_facts(clause.chains),
            )
            if clause.cost is not None:
                cost_type = infer_type(self, scope, clause.cost)
                if cost_type is not None and cost_type != "num":
                    self.emit(
                        "GC205",
                        f"COST expression has type {cost_type}, "
                        f"not numeric",
                    )
        finally:
            self.graph = saved
            self._frames.pop()

    def _analyze_basic(
        self, basic: ast.BasicQuery, outer: Optional[Scope], graph: Optional[GraphFacts]
    ) -> None:
        frame: Dict[str, Optional[GraphFacts]] = {}
        self._frames.append(frame)
        saved = self.graph
        try:
            scope = self._scope_for_basic(basic, outer, frame, graph)
            if isinstance(basic.head, ast.ConstructClause):
                self._analyze_construct(basic.head, scope)
            else:
                self._analyze_select(basic.head, scope)
        finally:
            self.graph = saved
            self._frames.pop()

    def _scope_for_basic(
        self,
        basic: ast.BasicQuery,
        outer: Optional[Scope],
        frame: Dict[str, Optional[GraphFacts]],
        graph: Optional[GraphFacts],
    ) -> Scope:
        """The scope of *basic*'s head; leaves :attr:`graph` at what the
        head inherits, the graph of the main block's first pattern."""
        self.graph = graph
        if basic.from_table is not None:
            scope = Scope(outer)
            self._bind_table_columns(scope, basic.from_table)
            return scope

        scope = collect_match_scope(self, basic.match, outer)
        if basic.match is None:
            return scope

        def resolve(on: Union[str, ast.Query]) -> Optional[GraphFacts]:
            if isinstance(on, str):
                self.check_graph_name(on)
                return facts_for_graph(self, on)
            self.analyze_query(on, None, graph)
            return None  # an ON (…) result is unknown statically

        main = basic.match.block
        blocks = [(main, pattern_targets(main, graph, resolve))]
        for block in basic.match.optionals:
            blocks.append((block, pattern_targets(block, blocks[0][1][0], resolve)))
        for block, targets in blocks:
            for location, facts in zip(block.patterns, targets):
                self._register_chain_vars(frame, location.chain, facts)
                check_chain_names(self, facts, location.chain)
            check_cartesian(self, block)
        for block, targets in blocks:
            self.graph = targets[0]
            check_condition(self, scope, block.where, clause="WHERE")
            chains = (location.chain for location in block.patterns)
            check_satisfiability(self, scope, block.where, self._pattern_facts(chains))
        self.graph = blocks[0][1][0]
        return scope

    def _register_chain_vars(self, frame: Dict[str, Optional[GraphFacts]],
                             chain: ast.Chain, facts: Optional[GraphFacts]) -> None:
        for element in chain.elements:
            var = getattr(element, "var", None)
            if var and var not in frame:
                frame[var] = facts

    def _bind_table_columns(self, scope: Scope, table_name: str) -> None:
        """FROM import: bind column names when the catalog knows them."""
        if self.catalog is None:
            scope.open = True
            return
        try:
            table = self.catalog.table(table_name)
        except GCoreError:
            self.emit(
                "GC102",
                f"table {table_name!r} is not in the catalog",
                anchor=table_name,
                hint="register the table or check the spelling",
            )
            scope.open = True
            return
        for column in table.columns:
            scope.sorts.setdefault(column, "value")

    @staticmethod
    def _pattern_facts(
        chains: Iterable[ast.Chain],
    ) -> List[Tuple[str, str, Scalar]]:
        """``(var, key, literal)`` equalities implied by property tests."""
        facts: List[Tuple[str, str, Scalar]] = []
        for chain in chains:
            for element in chain.elements:
                var = getattr(element, "var", None)
                if not var:
                    continue
                for key, expr in getattr(element, "prop_tests", ()):
                    if isinstance(expr, ast.Literal) and isinstance(
                        expr.value, (bool, int, float, str, Date)
                    ):
                        facts.append((var, key, expr.value))
        return facts

    # ------------------------------------------------------------------
    # Heads
    # ------------------------------------------------------------------
    def _analyze_construct(
        self, construct: ast.ConstructClause, scope: Scope
    ) -> None:
        collect_construct_sorts(self, scope, construct)
        facts = self.graph  # what the head reads (_scope_for_basic)
        for item in construct.items:
            if isinstance(item, ast.GraphRefItem):
                self.check_graph_name(item.name)
                continue
            check_chain_names(self, facts, item.chain, construct=True)
            check_condition(self, scope, item.when, clause="WHEN")
            for assign in item.sets:
                if assign.expr is not None:
                    infer_type(
                        self, scope, assign.expr, allow_aggregates=True
                    )
            for element in item.chain.elements:
                for _key, expr in getattr(element, "assignments", ()):
                    infer_type(self, scope, expr, allow_aggregates=True)
                group = getattr(element, "group", None)
                for expr in group or ():
                    infer_type(self, scope, expr)

    def _analyze_select(self, select: ast.SelectClause, scope: Scope) -> None:
        for item in select.items:
            infer_type(self, scope, item.expr, allow_aggregates=True)
        for expr in select.group_by:
            infer_type(self, scope, expr)
        for expr, _ascending in select.order_by:
            infer_type(self, scope, expr, allow_aggregates=True)


def analyze(
    statement: Union[str, ast.Statement],
    catalog: Any = None,
) -> AnalysisResult:
    """Statically analyze *statement*, returning every diagnostic found.

    *statement* may be query text (diagnostics then carry source spans,
    and unparseable text yields a single ``GC001``) or a parsed
    :data:`~repro.lang.ast.Statement` (span-less diagnostics).
    *catalog* may be a :class:`~repro.catalog.Catalog` (e.g. a
    snapshot's version), or None to skip the catalog/schema/statistics
    checks.
    """
    spans: Optional[SpanIndex] = None
    if isinstance(statement, str):
        try:
            tokens = tokenize(statement)
            spans = SpanIndex(tokens)
            parser = Parser(tokens)
            parsed: ast.Statement = parser.statement()
            parser.expect_eof()
        except (LexerError, ParseError) as exc:
            return AnalysisResult(
                [
                    Diagnostic(
                        code="GC001",
                        severity="error",
                        message=str(exc),
                        line=exc.line,
                        column=exc.column,
                    )
                ]
            )
        statement = parsed
    analyzer = Analyzer(catalog=catalog, spans=spans)
    analyzer.analyze_statement(statement)
    return analyzer.result()
