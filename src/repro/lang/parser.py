"""A recursive-descent parser for the full G-CORE surface syntax.

Covers every construct used in the paper (all 85 numbered query lines of
the guided tour), the formal grammar of Section 4 / Appendix A, and the
Section 5 tabular extensions:

* ``CONSTRUCT ... MATCH ... ON ... WHERE ... OPTIONAL ...``
* graph union shorthand (graph names inside the CONSTRUCT list)
* node/edge/path patterns with labels, property tests/bindings, GROUP
  grouping sets, ``@`` stored paths, copy patterns ``(=n)`` / ``-[=y]-``
* ``k SHORTEST`` / ``ALL`` / reachability path patterns with regular
  path expressions ``<:knows*>`` and path-view references ``<~wKnows*>``
* ``PATH name = ... WHERE ... COST ...`` and ``GRAPH [VIEW] name AS (...)``
* ``UNION / INTERSECT / MINUS`` over full graph queries
* ``EXISTS (subquery)`` and implicit existential patterns in WHERE
* ``SELECT ... [AS alias] MATCH ...`` with DISTINCT / GROUP BY / ORDER BY /
  LIMIT / OFFSET, and ``CONSTRUCT ... FROM <table>``

The grammar needs limited backtracking in exactly one spot — deciding
whether a parenthesized term in an expression is a sub-expression, a label
test, or an implicit existential pattern — implemented by speculative
parsing with token-position restore.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple, Union

from ..errors import ParseError
from . import ast
from .lexer import Token, tokenize

__all__ = ["parse_statement", "parse_query", "parse_expression", "Parser"]


def parse_statement(text: str) -> ast.Statement:
    """Parse a complete G-CORE statement (query or GRAPH VIEW definition)."""
    parser = Parser(tokenize(text))
    statement = parser.statement()
    parser.expect_eof()
    return statement


def parse_query(text: str) -> ast.Query:
    """Parse a G-CORE query; raises ParseError for view statements."""
    statement = parse_statement(text)
    if not isinstance(statement, ast.Query):
        raise ParseError("expected a query, found a GRAPH VIEW statement")
    return statement


def parse_expression(text: str) -> ast.Expr:
    """Parse a standalone expression (used by tests and the REPL helpers)."""
    parser = Parser(tokenize(text))
    expr = parser.expression()
    parser.expect_eof()
    return expr


_COMPARISON_OPS = {"EQ": "=", "NEQ": "<>", "LT": "<", "LE": "<=", "GT": ">", "GE": ">="}

# Keywords that can directly follow a CONSTRUCT graph-name item or end a
# clause; used to tell `CONSTRUCT social_graph , ...` from a pattern.
_CLAUSE_KEYWORDS = (
    "MATCH", "FROM", "UNION", "INTERSECT", "MINUS", "WHEN", "SET", "REMOVE",
    "CONSTRUCT", "SELECT", "GRAPH", "PATH", "WHERE", "OPTIONAL", "ON",
    "GROUP", "ORDER", "LIMIT", "OFFSET",
)


class Parser:
    """Token-stream parser with single-token lookahead plus backtracking."""

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------------
    # Token-stream helpers
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "EOF":
            self._pos += 1
        return token

    def _check(self, kind: str) -> bool:
        return self._peek().kind == kind

    def _check_keyword(self, *names: str) -> bool:
        return self._peek().is_keyword(*names)

    def _accept(self, kind: str) -> Optional[Token]:
        if self._check(kind):
            return self._advance()
        return None

    def _accept_keyword(self, *names: str) -> Optional[Token]:
        if self._check_keyword(*names):
            return self._advance()
        return None

    def _expect(self, kind: str, what: str = "") -> Token:
        token = self._peek()
        if token.kind != kind:
            raise self._error(f"expected {what or kind}, found {token.text!r}")
        return self._advance()

    def _expect_keyword(self, name: str) -> Token:
        token = self._peek()
        if not token.is_keyword(name):
            raise self._error(f"expected {name}, found {token.text!r}")
        return self._advance()

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(message, token.line, token.column)

    def expect_eof(self) -> None:
        token = self._peek()
        if token.kind != "EOF":
            raise self._error(f"unexpected trailing input: {token.text!r}")

    def _save(self) -> int:
        return self._pos

    def _restore(self, position: int) -> None:
        self._pos = position

    def _ident_like(self) -> str:
        """Accept an identifier (variable, graph or view name)."""
        token = self._peek()
        if token.kind == "IDENT":
            self._advance()
            return token.text
        raise self._error(f"expected identifier, found {token.text!r}")

    def _name_like(self) -> str:
        """Accept a label or property-key name; keywords are allowed here.

        Labels such as ``End`` or ``Set`` collide with G-CORE keywords but
        are perfectly good label names; in label/key positions the grammar
        is unambiguous, so keywords are admitted (with their original
        spelling preserved via the token's raw text for identifiers).
        """
        token = self._peek()
        if token.kind in ("IDENT", "KEYWORD"):
            self._advance()
            return str(token.value) if token.value is not None else token.text
        raise self._error(f"expected a name, found {token.text!r}")

    # ------------------------------------------------------------------
    # Statements and queries
    # ------------------------------------------------------------------
    def statement(self) -> ast.Statement:
        """statement := graphViewStmt | query"""
        if self._check_keyword("GRAPH") and self._peek(1).is_keyword("VIEW"):
            save = self._save()
            self._advance()  # GRAPH
            self._advance()  # VIEW
            name = self._ident_like()
            self._expect_keyword("AS")
            self._expect("LPAREN")
            query = self.query()
            self._expect("RPAREN")
            if self._peek().kind in ("EOF", "SEMI"):
                return ast.GraphViewStmt(name, query)
            # A view definition followed by more input is not valid; a
            # query-local binding must use GRAPH name AS (...) instead.
            self._restore(save)
        return self.query()

    def query(self) -> ast.Query:
        """query := (pathClause | graphClause)* fullGraphQuery"""
        heads: List[Union[ast.PathClause, ast.GraphClause]] = []
        while True:
            if self._check_keyword("PATH"):
                heads.append(self._path_clause())
            elif self._check_keyword("GRAPH") and not self._peek(1).is_keyword("VIEW"):
                heads.append(self._graph_clause())
            else:
                break
        body = self._full_graph_query()
        return ast.Query(tuple(heads), body)

    def _path_clause(self) -> ast.PathClause:
        self._expect_keyword("PATH")
        name = self._ident_like()
        self._expect("EQ", "'=' after PATH name")
        chains = [self.pattern_chain(construct=False)]
        while self._accept("COMMA"):
            chains.append(self.pattern_chain(construct=False))
        where: Optional[ast.Expr] = None
        cost: Optional[ast.Expr] = None
        # WHERE and COST may appear in either order (the paper writes
        # WHERE-then-COST; the formal grammar writes COST-then-WHERE).
        for _ in range(2):
            if where is None and self._accept_keyword("WHERE"):
                where = self.expression()
            elif cost is None and self._accept_keyword("COST"):
                cost = self.expression()
        return ast.PathClause(name, tuple(chains), where, cost)

    def _graph_clause(self) -> ast.GraphClause:
        self._expect_keyword("GRAPH")
        name = self._ident_like()
        self._expect_keyword("AS")
        self._expect("LPAREN")
        query = self.query()
        self._expect("RPAREN")
        return ast.GraphClause(name, query)

    def _full_graph_query(self) -> ast.QueryBody:
        left = self._graph_query_operand()
        while self._check_keyword("UNION", "INTERSECT", "MINUS"):
            op = self._advance().text.lower()
            right = self._graph_query_operand()
            left = ast.SetOpQuery(op, left, right)
        return left

    def _graph_query_operand(self) -> ast.QueryBody:
        if self._check_keyword("CONSTRUCT") or self._check_keyword("SELECT"):
            return self._basic_query()
        if self._check("LPAREN"):
            save = self._save()
            self._advance()
            try:
                inner = self._full_graph_query()
                self._expect("RPAREN")
                return inner
            except ParseError:
                self._restore(save)
        if self._check("IDENT"):
            return ast.GraphRefQuery(self._advance().text)
        raise self._error("expected CONSTRUCT, SELECT, a graph name, or '('")

    def _basic_query(self) -> ast.BasicQuery:
        if self._check_keyword("SELECT"):
            return self._select_query()
        construct = self._construct_clause()
        match: Optional[ast.MatchClause] = None
        from_table: Optional[str] = None
        if self._accept_keyword("FROM"):
            from_table = self._ident_like()
        elif self._check_keyword("MATCH"):
            match = self._match_clause()
        return ast.BasicQuery(construct, match, from_table)

    # ------------------------------------------------------------------
    # SELECT (Section 5 extension)
    # ------------------------------------------------------------------
    def _select_query(self) -> ast.BasicQuery:
        self._expect_keyword("SELECT")
        distinct = bool(self._accept_keyword("DISTINCT"))
        items = [self._select_item()]
        while self._accept("COMMA"):
            items.append(self._select_item())
        match: Optional[ast.MatchClause] = None
        from_table: Optional[str] = None
        if self._accept_keyword("FROM"):
            from_table = self._ident_like()
        elif self._check_keyword("MATCH"):
            match = self._match_clause()
        group_by: Tuple[ast.Expr, ...] = ()
        order_by: List[Tuple[ast.Expr, bool]] = []
        limit = offset = None
        if self._check_keyword("GROUP") and self._peek(1).is_keyword("BY"):
            self._advance()
            self._advance()
            exprs = [self.expression()]
            while self._accept("COMMA"):
                exprs.append(self.expression())
            group_by = tuple(exprs)
        if self._check_keyword("ORDER") and self._peek(1).is_keyword("BY"):
            self._advance()
            self._advance()
            while True:
                expr = self.expression()
                ascending = True
                if self._accept_keyword("DESC"):
                    ascending = False
                else:
                    self._accept_keyword("ASC")
                order_by.append((expr, ascending))
                if not self._accept("COMMA"):
                    break
        if self._accept_keyword("LIMIT"):
            limit = int(self._expect("NUMBER").value)
        if self._accept_keyword("OFFSET"):
            offset = int(self._expect("NUMBER").value)
        select = ast.SelectClause(
            tuple(items), distinct, group_by, tuple(order_by), limit, offset
        )
        return ast.BasicQuery(select, match, from_table)

    def _select_item(self) -> ast.SelectItem:
        expr = self.expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._ident_like()
        return ast.SelectItem(expr, alias)

    # ------------------------------------------------------------------
    # CONSTRUCT
    # ------------------------------------------------------------------
    def _construct_clause(self) -> ast.ConstructClause:
        self._expect_keyword("CONSTRUCT")
        items = [self._construct_item()]
        while self._accept("COMMA"):
            items.append(self._construct_item())
        return ast.ConstructClause(tuple(items))

    def _construct_item(self) -> Union[ast.GraphRefItem, ast.PatternItem]:
        token = self._peek()
        if token.kind == "IDENT":
            follower = self._peek(1)
            if follower.kind in ("COMMA", "EOF", "RPAREN") or follower.is_keyword(
                *_CLAUSE_KEYWORDS
            ):
                self._advance()
                return ast.GraphRefItem(token.text)
        chain = self.pattern_chain(construct=True)
        when: Optional[ast.Expr] = None
        sets: List[ast.SetAssign] = []
        removes: List[ast.RemoveAssign] = []
        while True:
            if self._accept_keyword("WHEN"):
                when = self.expression()
            elif self._accept_keyword("SET"):
                sets.append(self._set_assignment())
            elif self._accept_keyword("REMOVE"):
                removes.append(self._remove_assignment())
            else:
                break
        return ast.PatternItem(chain, when, tuple(sets), tuple(removes))

    def _set_assignment(self) -> ast.SetAssign:
        var = self._ident_like()
        if self._accept("DOT"):
            key = self._name_like()
            self._expect("ASSIGN", "':=' in SET assignment")
            return ast.SetAssign(var, key=key, expr=self.expression())
        if self._accept("COLON"):
            return ast.SetAssign(var, label=self._name_like())
        raise self._error("expected '.' or ':' after SET variable")

    def _remove_assignment(self) -> ast.RemoveAssign:
        var = self._ident_like()
        if self._accept("DOT"):
            return ast.RemoveAssign(var, key=self._name_like())
        if self._accept("COLON"):
            return ast.RemoveAssign(var, label=self._name_like())
        raise self._error("expected '.' or ':' after REMOVE variable")

    # ------------------------------------------------------------------
    # MATCH
    # ------------------------------------------------------------------
    def _match_clause(self) -> ast.MatchClause:
        self._expect_keyword("MATCH")
        block = self._match_block()
        optionals: List[ast.MatchBlock] = []
        while self._accept_keyword("OPTIONAL"):
            optionals.append(self._match_block())
        return ast.MatchClause(block, tuple(optionals))

    def _match_block(self) -> ast.MatchBlock:
        patterns = [self._pattern_location()]
        while self._accept("COMMA"):
            patterns.append(self._pattern_location())
        where: Optional[ast.Expr] = None
        if self._accept_keyword("WHERE"):
            where = self.expression()
        return ast.MatchBlock(tuple(patterns), where)

    def _pattern_location(self) -> ast.PatternLocation:
        chain = self.pattern_chain(construct=False)
        on: Optional[Union[str, ast.Query]] = None
        if self._accept_keyword("ON"):
            if self._accept("LPAREN"):
                on = self.query()
                self._expect("RPAREN")
            else:
                on = self._ident_like()
        return ast.PatternLocation(chain, on)

    # ------------------------------------------------------------------
    # Patterns
    # ------------------------------------------------------------------
    def pattern_chain(self, construct: bool) -> ast.Chain:
        """chain := nodePattern (connector nodePattern)*"""
        elements: List[object] = [self._node_pattern(construct)]
        while True:
            connector = self._try_connector(construct)
            if connector is None:
                break
            elements.append(connector)
            elements.append(self._node_pattern(construct))
        return ast.Chain(tuple(elements))

    def _starts_connector(self) -> bool:
        token = self._peek()
        if token.kind == "DASH":
            return True
        if token.kind == "LT" and self._peek(1).kind == "DASH":
            return True
        return False

    def _try_connector(self, construct: bool):
        if not self._starts_connector():
            return None
        if self._peek(2 if self._check("LT") else 1).kind == "SLASH":
            # ``-/`` and ``<-/`` start nothing but a path: its errors stand.
            return self._connector(construct)
        save = self._save()
        try:
            return self._connector(construct)
        except ParseError:
            self._restore(save)
            return None

    def _connector(self, construct: bool):
        """connector := -[...]-> | <-[...]-  | -/.../-> | <-/.../-  | -> | <- | -"""
        incoming = False
        if self._accept("LT"):
            self._expect("DASH")
            incoming = True
        else:
            self._expect("DASH")
        if self._accept("LBRACKET"):
            pattern = self._edge_contents(construct)
            self._expect("RBRACKET")
            self._expect("DASH")
            outgoing = bool(self._accept("GT"))
            return replace(pattern, direction=self._direction(incoming, outgoing))
        if self._accept("SLASH"):
            pattern = self._path_contents(construct)
            self._expect("SLASH")
            self._expect("DASH")
            outgoing = bool(self._accept("GT"))
            return replace(pattern, direction=self._direction(incoming, outgoing))
        # Bare connectors: ->, <-, -
        if not incoming and self._accept("GT"):
            return ast.EdgePattern(direction=ast.OUT)
        if self._check("LPAREN"):
            direction = ast.IN if incoming else ast.UNDIRECTED
            return ast.EdgePattern(direction=direction)
        raise self._error("malformed edge/path connector")

    @staticmethod
    def _direction(incoming: bool, outgoing: bool) -> str:
        if incoming and outgoing:
            raise ParseError("an edge cannot point both ways")
        if incoming:
            return ast.IN
        if outgoing:
            return ast.OUT
        return ast.UNDIRECTED

    def _node_pattern(self, construct: bool) -> ast.NodePattern:
        self._expect("LPAREN", "'(' starting a node pattern")
        pattern = self._element_contents(construct, node=True)
        self._expect("RPAREN", "')' closing a node pattern")
        return ast.NodePattern(
            var=pattern["var"],
            labels=pattern["labels"],
            prop_tests=pattern["tests"],
            prop_binds=pattern["binds"],
            copy_of=pattern["copy_of"],
            group=pattern["group"],
            assignments=pattern["assignments"],
        )

    def _edge_contents(self, construct: bool) -> ast.EdgePattern:
        pattern = self._element_contents(construct, node=False)
        return ast.EdgePattern(
            var=pattern["var"],
            labels=pattern["labels"],
            prop_tests=pattern["tests"],
            prop_binds=pattern["binds"],
            copy_of=pattern["copy_of"],
            group=pattern["group"],
            assignments=pattern["assignments"],
        )

    def _element_contents(self, construct: bool, node: bool) -> dict:
        """Shared contents of (...) node and [...] edge patterns."""
        var: Optional[str] = None
        copy_of: Optional[str] = None
        group: Optional[Tuple[ast.Expr, ...]] = None
        labels: Tuple[Tuple[str, ...], ...] = ()
        tests: List[Tuple[str, ast.Expr]] = []
        binds: List[Tuple[str, str]] = []
        assignments: List[Tuple[str, ast.Expr]] = []

        # Copy patterns are written (=n) / -[=y]- (Section 3); a named
        # variant `x = y` would be ambiguous with equality in WHERE.
        if self._accept("EQ"):
            copy_of = self._ident_like()
        elif self._check("IDENT"):
            var = self._advance().text
        if self._accept_keyword("GROUP"):
            exprs = [self._group_expr()]
            while self._accept("COMMA"):
                exprs.append(self._group_expr())
            group = tuple(exprs)
        if self._check("COLON"):
            labels = self._label_groups()
        if self._accept("LBRACE"):
            first = True
            while not self._check("RBRACE"):
                if not first:
                    self._expect("COMMA", "',' between property entries")
                first = False
                key = self._name_like()
                if self._accept("ASSIGN"):
                    assignments.append((key, self.expression()))
                elif self._accept("EQ") or self._accept("COLON"):
                    # `{employer = e}` binds; `{name = 'Wagner'}` tests.
                    if (
                        self._check("IDENT")
                        and self._peek(1).kind in ("COMMA", "RBRACE")
                    ):
                        binds.append((key, self._advance().text))
                    else:
                        tests.append((key, self.expression()))
                else:
                    raise self._error("expected '=', ':' or ':=' after property key")
            self._expect("RBRACE")
        return {
            "var": var,
            "copy_of": copy_of,
            "group": group,
            "labels": labels,
            "tests": tuple(tests),
            "binds": tuple(binds),
            "assignments": tuple(assignments),
        }

    def _group_expr(self) -> ast.Expr:
        """A grouping-set entry: a variable or a property access."""
        name = self._ident_like()
        expr: ast.Expr = ast.Var(name)
        while self._accept("DOT"):
            expr = ast.Prop(expr, self._name_like())
        return expr

    def _label_groups(self) -> Tuple[Tuple[str, ...], ...]:
        """`:A|B:C` — conjunction of disjunction groups."""
        groups: List[Tuple[str, ...]] = []
        while self._accept("COLON"):
            alternatives = [self._name_like()]
            while self._accept("PIPE"):
                alternatives.append(self._name_like())
            groups.append(tuple(alternatives))
        return tuple(groups)

    # ------------------------------------------------------------------
    # Path pattern contents:  -/ ... /-
    # ------------------------------------------------------------------
    def _path_contents(self, construct: bool) -> ast.PathPatternElem:
        count = 1
        mode = "shortest"
        explicit_mode = False
        stored = False
        var: Optional[str] = None
        labels: Tuple[Tuple[str, ...], ...] = ()
        assignments: List[Tuple[str, ast.Expr]] = []
        regex: Optional[ast.RegexExpr] = None
        cost_var: Optional[str] = None

        if self._check("NUMBER"):
            count = int(self._advance().value)
            self._expect_keyword("SHORTEST")
            explicit_mode = True
        elif self._accept_keyword("SHORTEST"):
            explicit_mode = True
        elif self._accept_keyword("ALL"):
            mode = "all"
            explicit_mode = True

        if self._accept("AT"):
            stored = True
            var = self._ident_like()
        elif self._check("IDENT"):
            var = self._advance().text

        if self._check("COLON"):
            labels = self._label_groups()
        if self._accept("LBRACE"):
            first = True
            while not self._check("RBRACE"):
                if not first:
                    self._expect("COMMA")
                first = False
                key = self._name_like()
                if self._accept("ASSIGN"):
                    assignments.append((key, self.expression()))
                elif self._accept("EQ"):
                    assignments.append((key, self.expression()))
                else:
                    raise self._error("expected ':=' in path property list")
            self._expect("RBRACE")

        if self._accept("LT"):
            regex = self._regex_alternation()
            self._expect("GT", "'>' closing the path expression")

        if self._accept_keyword("COST"):
            if mode == "all":
                raise self._error("an ALL path pattern binds no walk for COST to cost")
            cost_var = self._ident_like()

        if regex is not None and var is None and cost_var is None and not explicit_mode:
            mode = "reach"  # an anonymous -/<r> COST c/-> binds c: SHORTEST
        return ast.PathPatternElem(
            var=var,
            stored=stored,
            mode=mode,
            count=count,
            regex=regex,
            cost_var=cost_var,
            labels=labels,
            assignments=tuple(assignments),
        )

    # ------------------------------------------------------------------
    # Regular path expressions
    # ------------------------------------------------------------------
    def _regex_alternation(self) -> ast.RegexExpr:
        items = [self._regex_sequence()]
        while self._accept("PIPE"):
            items.append(self._regex_sequence())
        if len(items) == 1:
            return items[0]
        return ast.RAlt(tuple(items))

    def _regex_sequence(self) -> ast.RegexExpr:
        items: List[ast.RegexExpr] = []
        while self._regex_atom_starts():
            items.append(self._regex_postfix())
        if not items:
            return ast.REps()
        if len(items) == 1:
            return items[0]
        return ast.RConcat(tuple(items))

    def _regex_atom_starts(self) -> bool:
        token = self._peek()
        return token.kind in ("COLON", "TILDE", "BANG", "LPAREN") or (
            token.kind == "IDENT" and token.text == "_"
        )

    def _regex_postfix(self) -> ast.RegexExpr:
        atom = self._regex_atom()
        while True:
            if self._accept("STAR"):
                atom = ast.RStar(atom)
            elif self._accept("PLUS"):
                atom = ast.RPlus(atom)
            elif self._accept("QUESTION"):
                atom = ast.ROpt(atom)
            elif self._check("LBRACE") and self._peek(1).kind == "NUMBER":
                self._advance()
                low = int(self._expect("NUMBER").value)
                high: Optional[int] = low
                if self._accept("COMMA"):
                    high = None
                    if self._check("NUMBER"):
                        high = int(self._advance().value)
                self._expect("RBRACE", "'}' closing the repetition bound")
                if high is not None and high < low:
                    raise self._error("repetition upper bound below lower")
                atom = ast.RRepeat(atom, low, high)
            else:
                return atom

    def _regex_atom(self) -> ast.RegexExpr:
        if self._accept("COLON"):
            label = self._name_like()
            inverse = bool(self._accept("CARET"))
            return ast.RLabel(label, inverse)
        if self._accept("TILDE"):
            return ast.RView(self._ident_like())
        if self._accept("BANG"):
            return ast.RNodeTest(self._name_like())
        if self._check("IDENT") and self._peek().text == "_":
            self._advance()
            inverse = bool(self._accept("CARET"))
            return ast.RAnyEdge(inverse)
        if self._accept("LPAREN"):
            inner = self._regex_alternation()
            self._expect("RPAREN")
            return inner
        raise self._error("malformed regular path expression")

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def expression(self) -> ast.Expr:
        return self._or_expr()

    def _or_expr(self) -> ast.Expr:
        left = self._and_expr()
        while self._check_keyword("OR", "XOR"):
            op = self._advance().text.lower()
            left = ast.Binary(op, left, self._and_expr())
        return left

    def _and_expr(self) -> ast.Expr:
        left = self._not_expr()
        while self._accept_keyword("AND"):
            left = ast.Binary("and", left, self._not_expr())
        return left

    def _not_expr(self) -> ast.Expr:
        if self._accept_keyword("NOT"):
            return ast.Unary("not", self._not_expr())
        return self._comparison()

    def _comparison(self) -> ast.Expr:
        left = self._additive()
        token = self._peek()
        if token.kind in _COMPARISON_OPS:
            self._advance()
            return ast.Binary(_COMPARISON_OPS[token.kind], left, self._additive())
        if token.is_keyword("IN"):
            self._advance()
            return ast.Binary("in", left, self._additive())
        if token.is_keyword("SUBSET"):
            self._advance()
            self._accept_keyword("OF")
            return ast.Binary("subset", left, self._additive())
        return left

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while self._peek().kind in ("PLUS", "DASH"):
            op = "+" if self._advance().kind == "PLUS" else "-"
            left = ast.Binary(op, left, self._multiplicative())
        return left

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while self._peek().kind in ("STAR", "SLASH", "PERCENT"):
            kind = self._advance().kind
            op = {"STAR": "*", "SLASH": "/", "PERCENT": "%"}[kind]
            left = ast.Binary(op, left, self._unary())
        return left

    def _unary(self) -> ast.Expr:
        if self._accept("DASH"):
            return ast.Unary("-", self._unary())
        if self._accept("PLUS"):
            return ast.Unary("+", self._unary())
        return self._postfix()

    def _postfix(self) -> ast.Expr:
        expr = self._primary()
        while True:
            if self._accept("DOT"):
                expr = ast.Prop(expr, self._name_like())
            elif self._accept("LBRACKET"):
                index = self.expression()
                self._expect("RBRACKET")
                expr = ast.Index(expr, index)
            elif (
                self._check("COLON")
                and isinstance(expr, ast.Var)
                and self._peek(1).kind == "IDENT"
            ):
                groups = self._label_groups()
                expr = self._label_groups_to_expr(expr.name, groups)
            else:
                return expr

    @staticmethod
    def _label_groups_to_expr(
        var: str, groups: Tuple[Tuple[str, ...], ...]
    ) -> ast.Expr:
        tests: List[ast.Expr] = [ast.LabelTest(var, group) for group in groups]
        expr = tests[0]
        for test in tests[1:]:
            expr = ast.Binary("and", expr, test)
        return expr

    def _primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind == "NUMBER":
            self._advance()
            return ast.Literal(token.value)
        if token.kind == "STRING":
            self._advance()
            return ast.Literal(token.value)
        if token.kind == "PARAM":
            self._advance()
            return ast.Param(token.value)
        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.is_keyword("CASE"):
            return self._case_expression()
        if token.is_keyword("EXISTS"):
            self._advance()
            self._expect("LPAREN")
            query = self.query()
            self._expect("RPAREN")
            return ast.ExistsQuery(query)
        if token.kind == "IDENT":
            if self._peek(1).kind == "LPAREN":
                return self._function_call()
            self._advance()
            return ast.Var(token.text)
        if (
            token.kind == "KEYWORD"
            and self._peek(1).kind == "LPAREN"
            and not token.is_keyword("EXISTS", "CASE", "NOT", "AND", "OR",
                                     "XOR", "IN", "WHERE", "MATCH")
        ):
            # Keyword-named built-ins such as COST(p) or SET-like labels.
            return self._function_call()
        if token.kind == "LBRACKET":
            self._advance()
            items: List[ast.Expr] = []
            if not self._check("RBRACKET"):
                items.append(self.expression())
                while self._accept("COMMA"):
                    items.append(self.expression())
            self._expect("RBRACKET")
            return ast.ListLiteral(tuple(items))
        if token.kind == "LPAREN":
            return self._paren_or_pattern()
        raise self._error(f"unexpected token in expression: {token.text!r}")

    def _function_call(self) -> ast.Expr:
        token = self._advance()
        name = str(token.value) if token.value is not None else token.text
        self._expect("LPAREN")
        if self._accept("STAR"):
            self._expect("RPAREN")
            return ast.FuncCall(name, (), star=True)
        distinct = bool(self._accept_keyword("DISTINCT"))
        args: List[ast.Expr] = []
        if not self._check("RPAREN"):
            args.append(self.expression())
            while self._accept("COMMA"):
                args.append(self.expression())
        self._expect("RPAREN")
        return ast.FuncCall(name, tuple(args), distinct=distinct)

    def _case_expression(self) -> ast.Expr:
        self._expect_keyword("CASE")
        whens: List[Tuple[ast.Expr, ast.Expr]] = []
        while self._accept_keyword("WHEN"):
            condition = self.expression()
            self._expect_keyword("THEN")
            whens.append((condition, self.expression()))
        if not whens:
            raise self._error("CASE requires at least one WHEN branch")
        default: Optional[ast.Expr] = None
        if self._accept_keyword("ELSE"):
            default = self.expression()
        self._expect_keyword("END")
        return ast.CaseExpr(tuple(whens), default)

    def _paren_or_pattern(self) -> ast.Expr:
        """Disambiguate '(' in an expression.

        A parenthesized term can be (a) an implicit existential pattern
        (Section 3), (b) a label test like ``(n:Person)``, or (c) an
        ordinary sub-expression. We speculatively parse a pattern chain;
        failure backtracks to expression parsing.
        """
        save = self._save()
        try:
            chain = self.pattern_chain(construct=False)
        except ParseError:
            chain = None
            self._restore(save)
        if chain is not None:
            if len(chain.elements) > 1:
                return ast.ExistsPattern(chain)
            node = chain.elements[0]
            plain = (
                not node.prop_tests
                and not node.prop_binds
                and node.copy_of is None
                and node.group is None
                and not node.assignments
            )
            if node.var is not None and plain and node.labels:
                return self._label_groups_to_expr(node.var, node.labels)
            if node.var is not None and plain and not node.labels:
                return ast.Var(node.var)
            return ast.ExistsPattern(chain)
        self._expect("LPAREN")
        inner = self.expression()
        self._expect("RPAREN")
        return inner
