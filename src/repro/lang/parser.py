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

The parser never backtracks: each branch is chosen by a bounded look at
the tokens ahead before any is consumed, and once chosen its errors stand.
The one real ambiguity (Section 3) is a parenthesized term in an
expression, which is an implicit existential pattern, a label test or a
sub-expression; a scan of the tokens ahead for the shape of a node-pattern
chain decides it (:meth:`Parser._pattern_ahead`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List, Optional, Tuple, TypeVar, Union

from ..errors import ParseError
from . import ast
from .lexer import Token, tokenize

__all__ = ["parse_statement", "parse_query", "parse_expression", "parse_with", "Parser"]

T = TypeVar("T")


def parse_with(text: str, rule: Callable[["Parser"], T]) -> T:
    """Parse all of *text* by *rule*, a :class:`Parser` method."""
    parser = Parser(tokenize(text))
    result = rule(parser)
    parser.expect_eof()
    return result


def parse_statement(text: str) -> ast.Statement:
    """Parse a complete G-CORE statement (query or GRAPH VIEW definition)."""
    return parse_with(text, Parser.statement)


def parse_query(text: str) -> ast.Query:
    """Parse a G-CORE query; raises ParseError for view statements."""
    statement = parse_statement(text)
    if not isinstance(statement, ast.Query):
        start = tokenize(text)[0]
        raise ParseError(
            "expected a query, found a GRAPH VIEW statement", start.line, start.column
        )
    return statement


def parse_expression(text: str) -> ast.Expr:
    """Parse a standalone expression (used by tests and the REPL helpers)."""
    return parse_with(text, Parser.expression)


_COMPARISON_OPS = {"EQ": "=", "NEQ": "<>", "LT": "<", "LE": "<=", "GT": ">", "GE": ">="}

# Keywords that can directly follow a CONSTRUCT graph-name item or end a
# clause; used to tell `CONSTRUCT social_graph , ...` from a pattern.
_CLAUSE_KEYWORDS = (
    "MATCH", "FROM", "UNION", "INTERSECT", "MINUS", "WHEN", "SET", "REMOVE",
    "CONSTRUCT", "SELECT", "GRAPH", "PATH", "WHERE", "OPTIONAL", "ON",
    "GROUP", "ORDER", "LIMIT", "OFFSET",
)


def _found(token: Token) -> str:
    """How an error message names the token it stopped at."""
    return "end of input" if token.kind == "EOF" else repr(token.text)


class Parser:
    """Committed recursive descent: bounded lookahead, no backtracking."""

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
            raise self._error(f"expected {what or kind}, found {_found(token)}")
        return self._advance()

    def _expect_keyword(self, name: str) -> Token:
        token = self._peek()
        if not token.is_keyword(name):
            raise self._error(f"expected {name}, found {_found(token)}")
        return self._advance()

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(message, token.line, token.column)

    def expect_eof(self) -> None:
        token = self._peek()
        if token.kind != "EOF":
            raise self._error(f"unexpected trailing input: {token.text!r}")

    def _comma_list(self, parse: Callable[[], T]) -> List[T]:
        """One or more *parse* results separated by commas."""
        items = [parse()]
        while self._accept("COMMA"):
            items.append(parse())
        return items

    def _ident_like(self) -> str:
        """Accept an identifier (variable, graph or view name)."""
        token = self._peek()
        if token.kind == "IDENT":
            self._advance()
            return token.text
        raise self._error(f"expected identifier, found {_found(token)}")

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
        raise self._error(f"expected a name, found {_found(token)}")

    # ------------------------------------------------------------------
    # Statements and queries
    # ------------------------------------------------------------------
    def statement(self) -> ast.Statement:
        """statement := graphViewStmt | query"""
        if self._check_keyword("GRAPH") and self._peek(1).is_keyword("VIEW"):
            self._advance()  # GRAPH
            self._advance()  # VIEW
            name = self._ident_like()
            self._expect_keyword("AS")
            self._expect("LPAREN")
            query = self.query()
            self._expect("RPAREN")
            if self._peek().kind not in ("EOF", "SEMI"):
                # A query-local graph is GRAPH name AS (...), without VIEW.
                raise self._error(
                    f"a GRAPH VIEW statement ends at its ')', found {_found(self._peek())}"
                )
            return ast.GraphViewStmt(name, query)
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
        chains = self._comma_list(self.pattern_chain)
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
            end = self._node_end(0)
            if end and self._connector_head(end):  # e.g. (n)-[:knows]->(m)
                raise self._error("a pattern needs CONSTRUCT or SELECT before it")
            self._advance()
            inner = self._full_graph_query()
            self._expect("RPAREN", "')' closing a parenthesized query")
            return inner
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
        items = self._comma_list(self._select_item)
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
            group_by = tuple(self._comma_list(self.expression))
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
        return ast.ConstructClause(tuple(self._comma_list(self._construct_item)))

    def _construct_item(self) -> Union[ast.GraphRefItem, ast.PatternItem]:
        token = self._peek()
        if token.kind == "IDENT":
            follower = self._peek(1)
            if follower.kind in ("COMMA", "EOF", "RPAREN") or follower.is_keyword(
                *_CLAUSE_KEYWORDS
            ):
                self._advance()
                return ast.GraphRefItem(token.text)
        chain = self.pattern_chain()
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
        patterns = self._comma_list(self._pattern_location)
        where: Optional[ast.Expr] = None
        if self._accept_keyword("WHERE"):
            where = self.expression()
        return ast.MatchBlock(tuple(patterns), where)

    def _pattern_location(self) -> ast.PatternLocation:
        chain = self.pattern_chain()
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
    def pattern_chain(self) -> ast.Chain:
        """chain := nodePattern (connector nodePattern)*"""
        elements: List[object] = [self._node_pattern()]
        while self._connector_head(0):
            elements.append(self._connector())
            elements.append(self._node_pattern())
        return ast.Chain(tuple(elements))

    def _connector_head(self, at: int) -> int:
        """The number of tokens in the ``-``, ``<-`` or ``->`` head of a
        connector starting *at* tokens ahead, or 0 when none starts there.

        ``-`` is also minus and ``<`` less-than, so a ``-`` or ``<-`` heads
        a connector only when ``[``, ``/`` or ``(`` follows it.
        """
        head = 2 if self._peek(at).kind == "LT" else 1
        if self._peek(at + head - 1).kind != "DASH":
            return 0
        follower = self._peek(at + head).kind
        if head == 1 and follower == "GT":
            return 2
        return head if follower in ("LBRACKET", "SLASH", "LPAREN") else 0

    def _node_end(self, at: int) -> int:
        """The offset just past a node-shaped group starting *at* tokens
        ahead, or 0 when none does.

        Node-shaped is ``( [=]IDENT? [GROUP g, ...]? [:labels]? [{...}]? )``:
        what :meth:`_node_pattern` parses, with the property list scanned
        as a balanced ``{...}`` run rather than parsed.
        """
        def kind(offset: int) -> str:
            return self._peek(offset).kind

        def name(offset: int) -> bool:
            return kind(offset) in ("IDENT", "KEYWORD")

        if kind(at) != "LPAREN":
            return 0
        at += 1
        if kind(at) == "EQ" and kind(at + 1) == "IDENT":
            at += 1
        if kind(at) == "IDENT":
            at += 1
        if self._peek(at).is_keyword("GROUP"):
            at += 1
            while True:
                if kind(at) != "IDENT":
                    return 0
                at += 1
                while kind(at) == "DOT" and name(at + 1):
                    at += 2
                if kind(at) != "COMMA":
                    break
                at += 1
        if kind(at) == "COLON":
            while kind(at) in ("COLON", "PIPE") and name(at + 1):
                at += 2
        if kind(at) == "LBRACE":
            depth = 0
            while kind(at) != "EOF":
                depth += {"LBRACE": 1, "RBRACE": -1}.get(kind(at), 0)
                at += 1
                if not depth:
                    break
        return at + 1 if kind(at) == "RPAREN" else 0

    def _connector(self):
        """connector := -[...]-> | <-[...]-  | -/.../-> | <-/.../-  | -> | <- | -"""
        incoming = bool(self._accept("LT"))
        self._expect("DASH")
        if self._accept("LBRACKET"):
            pattern = ast.EdgePattern(**self._element_contents())
            self._expect("RBRACKET", "']' closing an edge pattern")
        elif self._accept("SLASH"):
            pattern = self._path_contents()
            self._expect("SLASH")
        elif not incoming and self._accept("GT"):
            return ast.EdgePattern(direction=ast.OUT)
        else:
            return ast.EdgePattern(direction=ast.IN if incoming else ast.UNDIRECTED)
        self._expect("DASH")
        return replace(pattern, direction=self._direction(incoming))

    def _direction(self, incoming: bool) -> str:
        """The direction a connector closing with ``-`` or ``->`` gives."""
        if not self._check("GT"):
            return ast.IN if incoming else ast.UNDIRECTED
        if incoming:
            raise self._error("an edge cannot point both ways")
        self._advance()
        return ast.OUT

    def _node_pattern(self) -> ast.NodePattern:
        self._expect("LPAREN", "'(' starting a node pattern")
        pattern = ast.NodePattern(**self._element_contents())
        self._expect("RPAREN", "')' closing a node pattern")
        return pattern

    def _element_contents(self) -> dict:
        """The fields shared by (...) node and [...] edge patterns."""
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
            group = tuple(self._comma_list(self._group_expr))
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
        return dict(
            var=var, copy_of=copy_of, group=group, labels=labels,
            prop_tests=tuple(tests), prop_binds=tuple(binds),
            assignments=tuple(assignments),
        )

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
    def _path_contents(self) -> ast.PathPatternElem:
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
                if not (self._accept("ASSIGN") or self._accept("EQ")):
                    raise self._error("expected ':=' in path property list")
                assignments.append((key, self.expression()))
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
        expr: ast.Expr = ast.LabelTest(var, groups[0])
        for group in groups[1:]:
            expr = ast.Binary("and", expr, ast.LabelTest(var, group))
        return expr

    def _primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind in ("NUMBER", "STRING"):
            self._advance()
            return ast.Literal(token.value)
        if token.kind == "PARAM":
            self._advance()
            return ast.Param(token.value)
        if token.is_keyword("TRUE", "FALSE"):
            self._advance()
            return ast.Literal(token.text == "TRUE")
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
            items = [] if self._check("RBRACKET") else self._comma_list(self.expression)
            self._expect("RBRACKET")
            return ast.ListLiteral(tuple(items))
        if token.kind == "LPAREN":
            return self._paren_or_pattern()
        raise self._error(f"expected an expression, found {_found(token)}")

    def _function_call(self) -> ast.Expr:
        token = self._advance()
        name = str(token.value) if token.value is not None else token.text
        self._expect("LPAREN")
        if self._accept("STAR"):
            self._expect("RPAREN")
            return ast.FuncCall(name, (), star=True)
        distinct = bool(self._accept_keyword("DISTINCT"))
        args = [] if self._check("RPAREN") else self._comma_list(self.expression)
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

    def _pattern_ahead(self) -> bool:
        """True iff the ``(`` at the cursor starts a pattern chain.

        It does when a node-shaped group starts there and every bare
        connector after it, up to the chain's end or its first ``[`` or
        ``/`` connector, is followed by another node-shaped group; so
        ``(v) - (w)`` is a pattern, ``(v) - (1)`` and ``(v) < -(1)`` are
        arithmetic, and ``(x) - [1]`` is an edge.
        """
        at = self._node_end(0)
        while at:
            head = self._connector_head(at)
            if not head or self._peek(at + head).kind in ("LBRACKET", "SLASH"):
                return True
            at = self._node_end(at + head)
        return False

    def _paren_or_pattern(self) -> ast.Expr:
        """Disambiguate '(' in an expression.

        A parenthesized term can be (a) an implicit existential pattern
        (Section 3), (b) a label test like ``(n:Person)``, or (c) an
        ordinary sub-expression.
        """
        if not self._pattern_ahead():
            self._expect("LPAREN")
            inner = self.expression()
            self._expect("RPAREN")
            return inner
        chain = self.pattern_chain()
        node = chain.elements[0]
        # A single node with a variable and nothing but labels is a value.
        if len(chain.elements) > 1 or node.var is None or (
            replace(node, var=None, labels=()) != ast.NodePattern()
        ):
            return ast.ExistsPattern(chain)
        if node.labels:
            return self._label_groups_to_expr(node.var, node.labels)
        return ast.Var(node.var)
