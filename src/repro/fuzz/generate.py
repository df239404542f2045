"""Deterministic, weighted, grammar-directed G-CORE query generation.

One :class:`QueryGenerator` instance is a pure function ``seed ->
(query text, parameter values)``: every statement is generated from a
fresh ``random.Random(seed)``, so any statement of a run can be
regenerated from its seed alone — the property the corpus format, CI
replay and the shrinker all build on. Determinism across CPython
3.9–3.13 is part of the contract (``tests/fuzz/test_determinism.py``):
the generator draws only through ``Random.random`` / ``Random.randrange``
(whose algorithms are version-stable) and never iterates sets or dicts.

The grammar covers the surface catalogued in ``DEFAULT_WEIGHTS``
(:mod:`repro.fuzz.grammar`): SELECT and CONSTRUCT heads, MATCH with
node/edge/path atoms (SHORTEST / k SHORTEST / ALL / reachability, and
regular label expressions with views), OPTIONAL / WHERE / EXISTS,
GROUP BY / ORDER BY / LIMIT / OFFSET, set operations, PATH and GRAPH
heads, and parameterized literals across the full value lattice —
bool, int, float, str, Date and value sets (the latter two only through
``$params``: the concrete syntax has no date/set literals).

Generated statements are *mostly* well-formed by construction (variables
are drawn from scope, names from the catalog vocabulary); the caller
applies ``engine.analyze`` as the final generate-time filter and skips
statements with error diagnostics (except for the deliberately injected
unknown-name faults, which feed the error-parity oracle).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..lang import ast
from ..lang.pretty import pretty_statement
from ..model.values import Date
from .grammar import DEFAULT_WEIGHTS, GraphVocab, Vocabulary

__all__ = ["GeneratedCase", "QueryGenerator"]

_AGGREGATES = ("count", "sum", "min", "max", "avg", "collect")
_BOOL_OPS = ("and", "or", "xor")
_COMPARISONS = ("eq", "neq", "lt", "le", "gt", "ge", "in")
_CMP_TOKENS = {
    "eq": "=",
    "neq": "<>",
    "lt": "<",
    "le": "<=",
    "gt": ">",
    "ge": ">=",
    "in": "in",
}


@dataclass(frozen=True)
class GeneratedCase:
    """One generated statement: source text + its parameter bindings."""

    seed: int
    text: str
    statement: ast.Statement
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass
class _Scope:
    """Variables bound by the MATCH (or FROM) part under construction."""

    nodes: List[str] = field(default_factory=list)
    edges: List[str] = field(default_factory=list)
    paths: List[str] = field(default_factory=list)
    walks: List[str] = field(default_factory=list)  # computed SHORTEST paths
    costs: List[str] = field(default_factory=list)
    values: List[str] = field(default_factory=list)  # prop binds / columns

    def bindable(self) -> List[str]:
        return self.nodes + self.edges + self.values


class _Ctx:
    """Per-statement generation state (RNG, params, fresh-name counters)."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.params: Dict[str, Any] = {}
        self.counter = 0

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def param(self, value: Any) -> ast.Param:
        name = f"p{len(self.params)}"
        self.params[name] = value
        return ast.Param(name)


class QueryGenerator:
    """Weighted grammar-directed generator over a fixed vocabulary."""

    def __init__(
        self,
        vocab: Vocabulary,
        weights: Optional[Dict[str, float]] = None,
    ) -> None:
        self.vocab = vocab
        self.weights = dict(DEFAULT_WEIGHTS)
        if weights:
            self.weights.update(weights)

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    def statement(self, seed: int) -> GeneratedCase:
        """Generate the statement addressed by *seed* (deterministic)."""
        ctx = _Ctx(random.Random(seed))
        stmt = self._query(ctx)
        return GeneratedCase(
            seed=seed,
            text=pretty_statement(stmt),
            statement=stmt,
            params=ctx.params,
        )

    def stream(self, start: int, count: int) -> Iterator[GeneratedCase]:
        """The statements of seeds ``start .. start+count-1``, in order."""
        for seed in range(start, start + count):
            yield self.statement(seed)

    # ------------------------------------------------------------------
    # Draw helpers (restricted to version-stable Random primitives)
    # ------------------------------------------------------------------
    def _chance(self, ctx: _Ctx, key: str) -> bool:
        return ctx.rng.random() < self.weights[key]

    def _pick(self, ctx: _Ctx, seq: Sequence[Any]) -> Any:
        return seq[ctx.rng.randrange(len(seq))]

    def _weighted(self, ctx: _Ctx, group: str, options: Sequence[str]) -> str:
        total = sum(self.weights[f"{group}.{name}"] for name in options)
        point = ctx.rng.random() * total
        for name in options:
            point -= self.weights[f"{group}.{name}"]
            if point <= 0:
                return name
        return options[-1]

    def _misspell(self, ctx: _Ctx, name: str) -> str:
        from ..lang.lexer import KEYWORDS

        if len(name) > 2 and name[:-1].upper() not in KEYWORDS:
            return name[:-1]  # "orders" -> "order" would hit a keyword
        return name + "x"

    def _maybe_fault_name(self, ctx: _Ctx, name: str) -> str:
        if self._chance(ctx, "fault.unknown_name"):
            return self._misspell(ctx, name)
        return name

    # ------------------------------------------------------------------
    # Statement / query level
    # ------------------------------------------------------------------
    def _query(self, ctx: _Ctx, depth: int = 0) -> ast.Query:
        heads: List[Any] = []
        local_views: List[str] = []
        local_graphs: List[str] = []
        if depth == 0 and self._chance(ctx, "query.path_clause"):
            clause = self._path_clause(ctx)
            heads.append(clause)
            local_views.append(clause.name)
        if depth == 0 and self._chance(ctx, "query.graph_clause"):
            clause = self._graph_clause(ctx)
            heads.append(clause)
            local_graphs.append(clause.name)
        body = self._body(ctx, depth, local_views, local_graphs)
        return ast.Query(tuple(heads), body)

    def _body(
        self,
        ctx: _Ctx,
        depth: int,
        local_views: List[str],
        local_graphs: List[str],
    ) -> ast.QueryBody:
        select_head = self._chance(ctx, "head.select")
        if not select_head and depth == 0 and self._chance(ctx, "body.setop"):
            # Set operations are defined over *graph* queries only.
            op = self._weighted(ctx, "setop", ("union", "intersect", "minus"))
            left = self._setop_operand(ctx, local_views, local_graphs)
            right = self._setop_operand(ctx, local_views, local_graphs)
            return ast.SetOpQuery(op, left, right)
        return self._basic(ctx, select_head, depth, local_views, local_graphs)

    def _setop_operand(
        self,
        ctx: _Ctx,
        local_views: List[str],
        local_graphs: List[str],
    ) -> ast.QueryBody:
        if self._chance(ctx, "body.graph_ref"):
            name = self._pick(ctx, self.vocab.graph_names + tuple(local_graphs))
            return ast.GraphRefQuery(self._maybe_fault_name(ctx, name))
        return self._basic(ctx, False, 1, local_views, local_graphs)

    def _basic(
        self,
        ctx: _Ctx,
        select_head: bool,
        depth: int,
        local_views: List[str],
        local_graphs: List[str],
    ) -> ast.BasicQuery:
        if select_head and self.vocab.tables and self._chance(ctx, "basic.from_table"):
            table, columns = self._pick(ctx, self.vocab.tables)
            scope = _Scope(values=list(columns))
            head = self._select_head(ctx, scope, None)
            return ast.BasicQuery(
                head=head,
                from_table=self._maybe_fault_name(ctx, table),
            )
        gv = self.vocab.graph_named(self.vocab.default_graph)
        scope = _Scope()
        match = self._match(
            ctx,
            gv,
            scope,
            allow_all=not select_head,
            local_views=local_views,
            local_graphs=local_graphs,
            depth=depth,
        )
        if select_head:
            head: Any = self._select_head(ctx, scope, gv)
        else:
            head = self._construct_head(ctx, scope, gv, depth)
        return ast.BasicQuery(head=head, match=match)

    # ------------------------------------------------------------------
    # Heads: PATH / GRAPH clauses
    # ------------------------------------------------------------------
    def _path_clause(self, ctx: _Ctx) -> ast.PathClause:
        gv = self.vocab.graph_named(self.vocab.default_graph)
        name = ctx.fresh("pv")
        a, b, e = ctx.fresh("n"), ctx.fresh("n"), ctx.fresh("e")
        label = self._pick(ctx, gv.edge_labels) if gv.edge_labels else None
        edge = ast.EdgePattern(
            var=e, labels=((label,),) if label else ()
        )
        chain = ast.Chain(
            (ast.NodePattern(var=a), edge, ast.NodePattern(var=b))
        )
        where = None
        if gv.node_labels and ctx.rng.random() < 0.3:
            where = ast.LabelTest(b, (self._pick(ctx, gv.node_labels),))
        cost = ast.Literal(1 + ctx.rng.randrange(3))
        return ast.PathClause(name=name, chains=(chain,), where=where, cost=cost)

    def _graph_clause(self, ctx: _Ctx) -> ast.GraphClause:
        gv = self.vocab.graph_named(self.vocab.default_graph)
        name = ctx.fresh("g")
        var = ctx.fresh("n")
        labels: Tuple[Tuple[str, ...], ...] = ()
        if gv.node_labels:
            labels = ((self._pick(ctx, gv.node_labels),),)
        inner = ast.Query(
            (),
            ast.BasicQuery(
                head=ast.ConstructClause(
                    (ast.PatternItem(ast.Chain((ast.NodePattern(var=var),))),)
                ),
                match=ast.MatchClause(
                    ast.MatchBlock(
                        (
                            ast.PatternLocation(
                                ast.Chain((ast.NodePattern(var=var, labels=labels),))
                            ),
                        )
                    )
                ),
            ),
        )
        return ast.GraphClause(name=name, query=inner)

    # ------------------------------------------------------------------
    # MATCH
    # ------------------------------------------------------------------
    def _match(
        self,
        ctx: _Ctx,
        gv: GraphVocab,
        scope: _Scope,
        allow_all: bool,
        local_views: List[str],
        local_graphs: List[str],
        depth: int,
    ) -> ast.MatchClause:
        block = self._match_block(
            ctx, gv, scope, allow_all, local_views, local_graphs, depth
        )
        optionals: List[ast.MatchBlock] = []
        if depth == 0 and self._chance(ctx, "match.optional"):
            optionals.append(
                self._match_block(
                    ctx, gv, scope, False, local_views, local_graphs, depth + 1
                )
            )
        return ast.MatchClause(block, tuple(optionals))

    def _match_block(
        self,
        ctx: _Ctx,
        gv: GraphVocab,
        scope: _Scope,
        allow_all: bool,
        local_views: List[str],
        local_graphs: List[str],
        depth: int,
    ) -> ast.MatchBlock:
        patterns = [
            self._pattern_location(
                ctx, gv, scope, allow_all, local_views, local_graphs
            )
        ]
        if depth == 0 and self._chance(ctx, "match.extra_pattern"):
            patterns.append(
                self._pattern_location(
                    ctx, gv, scope, allow_all, local_views, local_graphs
                )
            )
        if gv.prop_keys and self._chance(ctx, "pattern.test_reads_block"):
            self._block_reading_test(ctx, gv, patterns)
        where = None
        if self._chance(ctx, "match.where"):
            where = self._bool_expr(ctx, gv, scope, depth=2, local_views=local_views)
        return ast.MatchBlock(tuple(patterns), where)

    def _block_reading_test(
        self, ctx: _Ctx, gv: GraphVocab, patterns: List[ast.PatternLocation]
    ) -> None:
        """Add a ``{k = x.k}`` test to a node or edge of *patterns* whose
        *x* is a node or edge variable of the block, bound before the
        element, after it or by it."""
        sites = [
            (p, i, element)
            for p, location in enumerate(patterns)
            for i, element in enumerate(location.chain.elements)
            if not isinstance(element, ast.PathPatternElem)
        ]
        names = [element.var for _, _, element in sites if element.var]
        if names:
            p, i, element = self._pick(ctx, sites)
            key = self._pick(ctx, gv.prop_keys)
            test = (key, ast.Prop(ast.Var(self._pick(ctx, names)), key))
            elements = list(patterns[p].chain.elements)
            elements[i] = replace(element, prop_tests=element.prop_tests + (test,))
            patterns[p] = replace(patterns[p], chain=ast.Chain(tuple(elements)))

    def _pattern_location(
        self,
        ctx: _Ctx,
        gv: GraphVocab,
        scope: _Scope,
        allow_all: bool,
        local_views: List[str],
        local_graphs: List[str],
    ) -> ast.PatternLocation:
        on: Optional[str] = None
        if self._chance(ctx, "match.on"):
            choices = self.vocab.graph_names + tuple(local_graphs)
            on = self._maybe_fault_name(ctx, self._pick(ctx, choices))
            if on in self.vocab.graph_names:
                gv = self.vocab.graph_named(on)
        chain = self._chain(ctx, gv, scope, allow_all, local_views)
        return ast.PatternLocation(chain, on)

    def _chain(
        self,
        ctx: _Ctx,
        gv: GraphVocab,
        scope: _Scope,
        allow_all: bool,
        local_views: List[str],
    ) -> ast.Chain:
        elements: List[Any] = [self._node(ctx, gv, scope)]
        length = 0
        while length < 3 and self._chance(ctx, "chain.extend"):
            length += 1
            if self._chance(ctx, "connector.path"):
                path = self._path_elem(ctx, gv, scope, allow_all, local_views)
                if gv.prop_keys and self._chance(ctx, "path.anchor_target"):
                    # Anchor only the target: a fresh bare source reaches it
                    # right to left, so the cost planner searches backward.
                    key = self._pick(ctx, gv.prop_keys)
                    test = (key, self._test_value(ctx, gv, key))
                    target = elements[-1]
                    elements[-1] = replace(target, prop_tests=target.prop_tests + (test,))
                    source = ctx.fresh("n")
                    scope.nodes.append(source)
                    elements += [replace(path, direction=ast.IN), ast.NodePattern(var=source)]
                    continue
                elements.append(path)
            else:
                elements.append(self._edge(ctx, gv, scope))
            elements.append(self._node(ctx, gv, scope))
        return ast.Chain(tuple(elements))

    def _node(self, ctx: _Ctx, gv: GraphVocab, scope: _Scope) -> ast.NodePattern:
        var = None
        if self._chance(ctx, "node.var"):
            # Occasionally re-bind an existing node var (joins).
            if scope.nodes and ctx.rng.random() < 0.25:
                var = self._pick(ctx, scope.nodes)
            else:
                var = ctx.fresh("n")
                scope.nodes.append(var)
        labels: List[Tuple[str, ...]] = []
        if gv.node_labels and self._chance(ctx, "node.label"):
            labels.append((self._pick(ctx, gv.node_labels),))
            if self._chance(ctx, "node.second_label"):
                labels.append((self._pick(ctx, gv.node_labels),))
        prop_tests: List[Tuple[str, ast.Expr]] = []
        if gv.prop_keys and self._chance(ctx, "node.prop_test"):
            key = self._pick(ctx, gv.prop_keys)
            prop_tests.append((key, self._test_value(ctx, gv, key)))
        prop_binds: List[Tuple[str, str]] = []
        if gv.prop_keys and self._chance(ctx, "node.prop_bind"):
            prop_binds.append(self._prop_bind(ctx, gv, scope))
        return ast.NodePattern(
            var=var,
            labels=tuple(labels),
            prop_tests=tuple(prop_tests),
            prop_binds=tuple(prop_binds),
        )

    def _edge(self, ctx: _Ctx, gv: GraphVocab, scope: _Scope) -> ast.EdgePattern:
        var = None
        if self._chance(ctx, "edge.var"):
            if scope.edges and self._chance(ctx, "edge.rebind"):  # a bound edge
                var = self._pick(ctx, scope.edges)
            else:
                var = ctx.fresh("e")
                scope.edges.append(var)
        labels: Tuple[Tuple[str, ...], ...] = ()
        if gv.edge_labels and self._chance(ctx, "edge.label"):
            count = 2 if ctx.rng.random() < 0.2 and len(gv.edge_labels) > 1 else 1
            group = tuple(
                self._pick(ctx, gv.edge_labels) for _ in range(count)
            )
            labels = (group,)
            if self._chance(ctx, "edge.second_label"):
                labels += ((self._pick(ctx, gv.edge_labels),),)
        prop_tests: List[Tuple[str, ast.Expr]] = []
        if gv.prop_keys and self._chance(ctx, "edge.prop_test"):
            key = self._pick(ctx, gv.prop_keys)
            prop_tests.append((key, self._test_value(ctx, gv, key)))
        bind = bool(gv.prop_keys) and self._chance(ctx, "edge.prop_bind")
        if self._chance(ctx, "edge.in"):
            direction = ast.IN
        elif self._chance(ctx, "edge.undirected"):
            direction = ast.UNDIRECTED
        else:
            direction = ast.OUT
        return ast.EdgePattern(
            var=var,
            direction=direction,
            labels=labels,
            prop_tests=tuple(prop_tests),
            prop_binds=(self._prop_bind(ctx, gv, scope),) if bind else (),
        )

    def _prop_bind(self, ctx: _Ctx, gv: GraphVocab, scope: _Scope) -> Tuple[str, str]:
        """A ``{k = v}`` bind; reusing a bound value var tests membership."""
        key = self._pick(ctx, gv.prop_keys)
        if scope.values and self._chance(ctx, "bind.reuse"):
            return key, self._pick(ctx, scope.values)
        bound = ctx.fresh("v")
        scope.values.append(bound)
        return key, bound

    def _path_elem(
        self,
        ctx: _Ctx,
        gv: GraphVocab,
        scope: _Scope,
        allow_all: bool,
        local_views: List[str],
    ) -> ast.PathPatternElem:
        modes = ["shortest", "kshortest", "reach"]
        if allow_all:
            modes.insert(2, "all")
        mode_key = self._weighted(ctx, "path.mode", tuple(modes))
        mode = {"kshortest": "shortest"}.get(mode_key, mode_key)
        count = 1 + ctx.rng.randrange(2, 4) if mode_key == "kshortest" else 1
        stored = bool(gv.path_labels) and self._chance(ctx, "path.stored")
        var = None
        cost_var = None
        reusable = scope.walks + scope.costs if mode == "shortest" and not stored else []
        if reusable and self._chance(ctx, "path.reuse"):
            # A walk or cost another pattern binds: the two patterns join on it.
            reused = self._pick(ctx, reusable)
            var, cost_var = (reused, None) if reused in scope.walks else (None, reused)
        elif mode_key != "reach" and self._chance(ctx, "path.var"):
            var = ctx.fresh("p")
            scope.paths.append(var)
            if mode == "shortest" and not stored:
                scope.walks.append(var)
            # Drawn for every mode, so the stream stays put; an ALL
            # pattern binds no walk for a COST to cost.
            if self._chance(ctx, "path.cost_var") and mode != "all":
                cost_var = ctx.fresh("c")
                scope.costs.append(cost_var)
        if stored:
            # The parser requires a variable right after ``@``, and an
            # unprefixed stored element always parses as mode=shortest.
            if var is None:
                var = ctx.fresh("p")
                scope.paths.append(var)
            if mode == "reach":
                mode = "shortest"
            labels = ((self._pick(ctx, gv.path_labels),),)
            return ast.PathPatternElem(
                var=var, mode=mode, count=count, stored=True, labels=labels
            )
        regex = self._regex(ctx, gv, depth=2, local_views=local_views)
        if mode == "shortest" and count == 1 and var is None and cost_var is None:
            # Prints as ``-/<regex>/->``, which the parser reads as a
            # reachability test; keep the AST in the shape it re-parses to.
            mode = "reach"
        return ast.PathPatternElem(
            var=var,
            mode=mode,
            count=count,
            regex=regex,
            cost_var=cost_var,
        )

    # ------------------------------------------------------------------
    # Regular path expressions
    # ------------------------------------------------------------------
    def _regex(
        self,
        ctx: _Ctx,
        gv: GraphVocab,
        depth: int,
        local_views: List[str],
    ) -> ast.RegexExpr:
        leaves = ["label", "any", "node_test"]
        views = tuple(self.vocab.path_views) + tuple(local_views)
        if views:
            leaves.append("view")
        options = list(leaves)
        if depth > 0:
            options += ["concat", "alt", "star", "plus", "opt", "repeat"]
        kind = self._weighted(ctx, "regex", tuple(options))
        if kind == "label":
            label = (
                self._pick(ctx, gv.edge_labels) if gv.edge_labels else "knows"
            )
            return ast.RLabel(label, inverse=self._chance(ctx, "regex.inverse"))
        if kind == "any":
            return ast.RAnyEdge(inverse=self._chance(ctx, "regex.inverse"))
        if kind == "node_test":
            label = (
                self._pick(ctx, gv.node_labels) if gv.node_labels else "Person"
            )
            return ast.RNodeTest(label)
        if kind == "view":
            return ast.RView(self._maybe_fault_name(ctx, self._pick(ctx, views)))
        if kind in ("concat", "alt"):
            count = 2 + (1 if ctx.rng.random() < 0.25 else 0)
            items = tuple(
                self._regex(ctx, gv, depth - 1, local_views) for _ in range(count)
            )
            return ast.RConcat(items) if kind == "concat" else ast.RAlt(items)
        item = self._regex(ctx, gv, 0, local_views)
        if kind == "star":
            return ast.RStar(item)
        if kind == "plus":
            return ast.RPlus(item)
        if kind == "opt":
            return ast.ROpt(item)
        low = ctx.rng.randrange(0, 2)
        high = low + 1 + ctx.rng.randrange(2)
        return ast.RRepeat(item, low, high)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _test_value(self, ctx: _Ctx, gv: GraphVocab, key: str) -> ast.Expr:
        """A value expression for a ``{key = ...}`` property test."""
        pool = gv.values_for(key)
        if pool and ctx.rng.random() < 0.8:
            value = self._pick(ctx, pool)
        else:
            value = self._literal_value(ctx, gv)
        return self._value_expr(ctx, value)

    def _value_expr(self, ctx: _Ctx, value: Any) -> ast.Expr:
        """Render *value* inline when the syntax allows, else as a $param."""
        inline_ok = isinstance(value, (bool, int, float, str))
        if not inline_ok or self._chance(ctx, "expr.param_literal"):
            return ctx.param(value)
        if not isinstance(value, bool) and isinstance(value, (int, float)):
            if value < 0:
                # The parser reads "-2" as Unary("-", Literal(2)); emit
                # that shape so pretty(statement) parses back identical.
                return ast.Unary("-", ast.Literal(-value))
        return ast.Literal(value)

    def _literal_value(self, ctx: _Ctx, gv: GraphVocab) -> Any:
        kind = self._weighted(
            ctx, "lit", ("bool", "int", "float", "str", "date", "set")
        )
        if kind == "bool":
            return ctx.rng.random() < 0.5
        if kind == "int":
            return ctx.rng.randrange(-3, 12)
        if kind == "float":
            return ctx.rng.randrange(-6, 25) / 4.0
        if kind == "str":
            pool = [values for _key, values in gv.prop_values if values]
            if pool and ctx.rng.random() < 0.6:
                candidates = [
                    v for v in self._pick(ctx, pool) if isinstance(v, str)
                ]
                if candidates:
                    return self._pick(ctx, candidates)
            return self._pick(ctx, ("x", "Acme", "Wagner", "HAL", ""))
        if kind == "date":
            return self._pick(ctx, self.vocab.dates)
        # value set: 1-3 scalars of one shape
        base = self._weighted(ctx, "lit", ("int", "str", "date"))
        size = 1 + ctx.rng.randrange(3)
        members = []
        for _ in range(size):
            if base == "int":
                members.append(ctx.rng.randrange(-3, 12))
            elif base == "str":
                members.append(self._pick(ctx, ("x", "Acme", "Wagner", "HAL")))
            else:
                members.append(self._pick(ctx, self.vocab.dates))
        return frozenset(members)

    def _operand(self, ctx: _Ctx, gv: GraphVocab, scope: _Scope) -> ast.Expr:
        """A scalar-ish operand over the current scope."""
        bindable = scope.bindable()
        roll = ctx.rng.random()
        if bindable and roll < 0.62:
            var = self._pick(ctx, bindable)
            if var in scope.values or not gv.prop_keys or ctx.rng.random() < 0.2:
                return ast.Var(var)
            return ast.Prop(ast.Var(var), self._pick(ctx, gv.prop_keys))
        if scope.costs and roll < 0.70:
            return ast.Var(self._pick(ctx, scope.costs))
        if scope.paths and self._chance(ctx, "expr.func"):
            fn = self._pick(ctx, ("length", "cost", "size"))
            return ast.FuncCall(fn, (ast.Var(self._pick(ctx, scope.paths)),))
        if bindable and self._chance(ctx, "expr.func"):
            var = self._pick(ctx, bindable)
            fn = self._pick(ctx, ("id", "labels", "tostring"))
            return ast.FuncCall(fn, (ast.Var(var),))
        return self._value_expr(ctx, self._literal_value(ctx, gv))

    def _comparison(
        self, ctx: _Ctx, gv: GraphVocab, scope: _Scope
    ) -> ast.Expr:
        op_key = self._weighted(ctx, "cmp", _COMPARISONS)
        op = _CMP_TOKENS[op_key]
        left = self._operand(ctx, gv, scope)
        if op == "in":
            # scalar IN property-set (properties are value sets)
            targets = [v for v in scope.nodes + scope.edges]
            if targets and gv.prop_keys:
                var = self._pick(ctx, targets)
                right: ast.Expr = ast.Prop(
                    ast.Var(var), self._pick(ctx, gv.prop_keys)
                )
            else:
                right = self._value_expr(ctx, self._literal_value(ctx, gv))
            return ast.Binary("in", left, right)
        if self._chance(ctx, "expr.prop_vs_prop"):
            right = self._operand(ctx, gv, scope)
        else:
            right = self._value_expr(ctx, self._literal_value(ctx, gv))
            if self._chance(ctx, "cmp.constant_left"):
                return ast.Binary(op, right, left)
        return ast.Binary(op, left, right)

    def _bool_expr(
        self,
        ctx: _Ctx,
        gv: GraphVocab,
        scope: _Scope,
        depth: int,
        local_views: List[str],
    ) -> ast.Expr:
        if depth > 0 and self._chance(ctx, "expr.binary_bool"):
            op = self._pick(ctx, _BOOL_OPS)
            left = self._bool_expr(ctx, gv, scope, depth - 1, local_views)
            right = self._bool_expr(ctx, gv, scope, depth - 1, local_views)
            return ast.Binary(op, left, right)
        if self._chance(ctx, "expr.not"):
            return ast.Unary(
                "not", self._bool_expr(ctx, gv, scope, 0, local_views)
            )
        if scope.nodes and gv.node_labels and self._chance(ctx, "expr.label_test"):
            return ast.LabelTest(
                self._pick(ctx, scope.nodes),
                (self._pick(ctx, gv.node_labels),),
            )
        if scope.nodes and self._chance(ctx, "expr.exists_pattern"):
            inner_scope = _Scope(nodes=list(scope.nodes))
            chain = self._exists_chain(ctx, gv, inner_scope)
            return ast.ExistsPattern(chain)
        if self._chance(ctx, "expr.exists_query"):
            return ast.ExistsQuery(self._exists_query(ctx, gv))
        if self._chance(ctx, "expr.case"):
            condition = self._comparison(ctx, gv, scope)
            return ast.Binary(
                "=",
                ast.CaseExpr(
                    whens=((condition, ast.Literal(1)),),
                    default=ast.Literal(0),
                ),
                ast.Literal(1),
            )
        return self._comparison(ctx, gv, scope)

    def _exists_chain(
        self, ctx: _Ctx, gv: GraphVocab, scope: _Scope
    ) -> ast.Chain:
        start = self._pick(ctx, scope.nodes)
        edge = ast.EdgePattern(
            labels=((self._pick(ctx, gv.edge_labels),),)
            if gv.edge_labels
            else (),
            direction=ast.IN if ctx.rng.random() < 0.25 else ast.OUT,
        )
        end_labels: Tuple[Tuple[str, ...], ...] = ()
        if gv.node_labels and ctx.rng.random() < 0.5:
            end_labels = ((self._pick(ctx, gv.node_labels),),)
        return ast.Chain(
            (
                ast.NodePattern(var=start),
                edge,
                ast.NodePattern(labels=end_labels),
            )
        )

    def _exists_query(self, ctx: _Ctx, gv: GraphVocab) -> ast.Query:
        var = ctx.fresh("n")
        labels: Tuple[Tuple[str, ...], ...] = ()
        if gv.node_labels:
            labels = ((self._pick(ctx, gv.node_labels),),)
        return ast.Query(
            (),
            ast.BasicQuery(
                head=ast.ConstructClause(
                    (ast.PatternItem(ast.Chain((ast.NodePattern(var=var),))),)
                ),
                match=ast.MatchClause(
                    ast.MatchBlock(
                        (
                            ast.PatternLocation(
                                ast.Chain(
                                    (ast.NodePattern(var=var, labels=labels),)
                                )
                            ),
                        )
                    )
                ),
            ),
        )

    # ------------------------------------------------------------------
    # SELECT head
    # ------------------------------------------------------------------
    def _aggregate_call(
        self, ctx: _Ctx, gv: Optional[GraphVocab], scope: _Scope
    ) -> ast.Expr:
        name = self._pick(ctx, _AGGREGATES)
        if name == "count" and ctx.rng.random() < 0.45:
            return ast.FuncCall("count", star=True)
        bindable = scope.bindable()
        if not bindable:
            return ast.FuncCall("count", star=True)
        var = self._pick(ctx, bindable)
        if gv is not None and gv.prop_keys and var not in scope.values:
            arg: ast.Expr = ast.Prop(ast.Var(var), self._pick(ctx, gv.prop_keys))
        else:
            arg = ast.Var(var)
        distinct = name in ("count", "collect") and ctx.rng.random() < 0.3
        return ast.FuncCall(name, (arg,), distinct=distinct)

    def _projection_expr(
        self, ctx: _Ctx, gv: Optional[GraphVocab], scope: _Scope
    ) -> ast.Expr:
        bindable = scope.bindable()
        if not bindable:
            return ast.Literal(1)
        var = self._pick(ctx, bindable)
        roll = ctx.rng.random()
        if var in scope.values or gv is None or not gv.prop_keys or roll < 0.3:
            return ast.Var(var)
        if roll < 0.85:
            return ast.Prop(ast.Var(var), self._pick(ctx, gv.prop_keys))
        fn = self._pick(ctx, ("id", "labels", "tostring"))
        return ast.FuncCall(fn, (ast.Var(var),))

    def _select_head(
        self, ctx: _Ctx, scope: _Scope, gv: Optional[GraphVocab]
    ) -> ast.SelectClause:
        items: List[ast.SelectItem] = []
        group_by: Tuple[ast.Expr, ...] = ()
        alias_index = 0

        def alias() -> Optional[str]:
            nonlocal alias_index
            if self._chance(ctx, "select.alias"):
                alias_index += 1
                return f"a{alias_index}"
            return None

        if scope.bindable() and self._chance(ctx, "select.group_by"):
            keys = [self._projection_expr(ctx, gv, scope)]
            if ctx.rng.random() < 0.3:
                keys.append(self._projection_expr(ctx, gv, scope))
            group_by = tuple(keys)
            items = [ast.SelectItem(key, f"k{i}") for i, key in enumerate(keys)]
            items.append(
                ast.SelectItem(self._aggregate_call(ctx, gv, scope), "agg")
            )
        elif self._chance(ctx, "select.aggregate"):
            items = [ast.SelectItem(self._aggregate_call(ctx, gv, scope), "agg")]
            if ctx.rng.random() < 0.3:
                items.append(
                    ast.SelectItem(self._aggregate_call(ctx, gv, scope), "agg2")
                )
        else:
            items = [ast.SelectItem(self._projection_expr(ctx, gv, scope), alias())]
            while len(items) < 3 and self._chance(ctx, "select.extra_item"):
                items.append(
                    ast.SelectItem(self._projection_expr(ctx, gv, scope), alias())
                )
        order_by: Tuple[Tuple[ast.Expr, bool], ...] = ()
        if self._chance(ctx, "select.order_by"):
            keys = []
            for item in items[: 1 + ctx.rng.randrange(2)]:
                ascending = not self._chance(ctx, "select.order_desc")
                keys.append((item.expr, ascending))
            order_by = tuple(keys)
        limit = offset = None
        if self._chance(ctx, "select.limit"):
            limit = 1 + ctx.rng.randrange(8)
            if self._chance(ctx, "select.offset"):
                offset = ctx.rng.randrange(4)
        return ast.SelectClause(
            items=tuple(items),
            distinct=self._chance(ctx, "select.distinct"),
            group_by=group_by,
            order_by=order_by,
            limit=limit,
            offset=offset,
        )

    # ------------------------------------------------------------------
    # CONSTRUCT head
    # ------------------------------------------------------------------
    def _construct_head(
        self, ctx: _Ctx, scope: _Scope, gv: GraphVocab, depth: int
    ) -> ast.ConstructClause:
        items: List[Any] = [self._construct_item(ctx, scope, gv)]
        if depth == 0 and self._chance(ctx, "construct.extra_item"):
            if self._chance(ctx, "construct.graph_ref"):
                items.append(
                    ast.GraphRefItem(self._pick(ctx, self.vocab.graph_names))
                )
            else:
                items.append(self._construct_item(ctx, scope, gv))
        return ast.ConstructClause(tuple(items))

    def _construct_node(
        self, ctx: _Ctx, scope: _Scope, gv: GraphVocab
    ) -> ast.NodePattern:
        if scope.nodes and not self._chance(ctx, "construct.fresh_node"):
            return ast.NodePattern(var=self._pick(ctx, scope.nodes))
        var = ctx.fresh("x")
        group: Optional[Tuple[ast.Expr, ...]] = None
        if scope.nodes and gv.prop_keys and self._chance(ctx, "construct.group"):
            group = (
                ast.Prop(
                    ast.Var(self._pick(ctx, scope.nodes)),
                    self._pick(ctx, gv.prop_keys),
                ),
            )
        assignments: List[Tuple[str, ast.Expr]] = []
        if self._chance(ctx, "construct.prop_assign"):
            key = self._pick(ctx, gv.prop_keys) if gv.prop_keys else "name"
            assignments.append((key, self._operand(ctx, gv, scope)))
        labels: Tuple[Tuple[str, ...], ...] = ()
        if gv.node_labels and ctx.rng.random() < 0.5:
            labels = ((self._pick(ctx, gv.node_labels),),)
        return ast.NodePattern(
            var=var,
            labels=labels,
            group=group,
            assignments=tuple(assignments),
        )

    def _construct_item(
        self, ctx: _Ctx, scope: _Scope, gv: GraphVocab
    ) -> ast.PatternItem:
        first = self._construct_node(ctx, scope, gv)
        elements: List[Any] = [first]
        if self._chance(ctx, "construct.edge"):
            label = (
                self._pick(ctx, gv.edge_labels) if gv.edge_labels else "linked"
            )
            assignments: Tuple[Tuple[str, ast.Expr], ...] = ()
            if self._chance(ctx, "construct.prop_assign"):
                key = self._pick(ctx, gv.prop_keys) if gv.prop_keys else "w"
                assignments = ((key, self._operand(ctx, gv, scope)),)
            elements.append(
                ast.EdgePattern(labels=((label,),), assignments=assignments)
            )
            elements.append(self._construct_node(ctx, scope, gv))
        chain = ast.Chain(tuple(elements))
        when = None
        if scope.bindable() and self._chance(ctx, "construct.when"):
            when = self._bool_expr(ctx, gv, scope, depth=1, local_views=[])
        construct_vars = [
            element.var
            for element in chain.elements
            if isinstance(element, ast.NodePattern) and element.var is not None
        ]
        sets: List[ast.SetAssign] = []
        if construct_vars and self._chance(ctx, "construct.set"):
            var = self._pick(ctx, construct_vars)
            if gv.node_labels and ctx.rng.random() < 0.5:
                sets.append(
                    ast.SetAssign(var, label=self._pick(ctx, gv.node_labels))
                )
            else:
                key = self._pick(ctx, gv.prop_keys) if gv.prop_keys else "mark"
                sets.append(
                    ast.SetAssign(var, key=key, expr=self._operand(ctx, gv, scope))
                )
        removes: List[ast.RemoveAssign] = []
        if construct_vars and self._chance(ctx, "construct.remove"):
            var = self._pick(ctx, construct_vars)
            if gv.prop_keys and ctx.rng.random() < 0.7:
                removes.append(
                    ast.RemoveAssign(var, key=self._pick(ctx, gv.prop_keys))
                )
            elif gv.node_labels:
                removes.append(
                    ast.RemoveAssign(var, label=self._pick(ctx, gv.node_labels))
                )
        return ast.PatternItem(
            chain=chain,
            when=when,
            sets=tuple(sets),
            removes=tuple(removes),
        )
