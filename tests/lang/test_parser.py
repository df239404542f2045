"""Unit tests for the G-CORE parser."""

import pytest

from repro.errors import ParseError
from repro.lang import ast
from repro.lang.parser import parse_expression, parse_query, parse_statement


class TestBasicQueries:
    def test_minimal_construct_match(self):
        q = parse_query("CONSTRUCT (n) MATCH (n:Person)")
        assert isinstance(q.body, ast.BasicQuery)
        assert isinstance(q.body.head, ast.ConstructClause)
        node = q.body.match.block.patterns[0].chain.elements[0]
        assert node.var == "n" and node.labels == (("Person",),)

    def test_match_on_where(self):
        q = parse_query(
            "CONSTRUCT (n) MATCH (n) ON social_graph WHERE n.employer = 'Acme'"
        )
        location = q.body.match.block.patterns[0]
        assert location.on == "social_graph"
        where = q.body.match.block.where
        assert isinstance(where, ast.Binary) and where.op == "="

    def test_multiple_patterns_with_own_on(self):
        q = parse_query(
            "CONSTRUCT (c) MATCH (c:Company) ON g1, (n:Person) ON g2"
        )
        locations = q.body.match.block.patterns
        assert [l.on for l in locations] == ["g1", "g2"]

    def test_construct_without_match(self):
        q = parse_query("CONSTRUCT (n:Person {name := 'X'})")
        assert q.body.match is None

    def test_missing_construct_fails(self):
        with pytest.raises(ParseError):
            parse_query("MATCH (n)")

    def test_trailing_garbage_fails(self):
        with pytest.raises(ParseError):
            parse_query("CONSTRUCT (n) MATCH (n) xyz 123 (")


class TestEdgePatterns:
    def chain(self, text):
        return parse_query(f"CONSTRUCT (x) MATCH {text}").body.match.block.patterns[0].chain

    def test_outgoing(self):
        chain = self.chain("(a)-[e:knows]->(b)")
        edge = chain.elements[1]
        assert edge.var == "e" and edge.direction == ast.OUT
        assert edge.labels == (("knows",),)

    def test_incoming(self):
        chain = self.chain("(a)<-[:worksAt]-(b)")
        edge = chain.elements[1]
        assert edge.direction == ast.IN and edge.var is None

    def test_undirected(self):
        chain = self.chain("(a)-[:reply_of]-(b)")
        assert chain.elements[1].direction == ast.UNDIRECTED

    def test_bare_arrows(self):
        assert self.chain("(a)->(b)").elements[1].direction == ast.OUT
        assert self.chain("(a)<-(b)").elements[1].direction == ast.IN
        assert self.chain("(a)-(b)").elements[1].direction == ast.UNDIRECTED

    def test_long_chain(self):
        chain = self.chain("(a)-[:x]->(b)<-[:y]-(c)-[:z]->(d)")
        assert len(chain.elements) == 7
        assert [e.direction for e in chain.connectors()] == [
            ast.OUT, ast.IN, ast.OUT,
        ]

    def test_label_disjunction(self):
        chain = self.chain("(m:Post|Comment)")
        assert chain.elements[0].labels == (("Post", "Comment"),)

    def test_label_conjunction(self):
        chain = self.chain("(m:Person:Manager)")
        assert chain.elements[0].labels == (("Person",), ("Manager",))

    def test_property_bind_and_test(self):
        chain = self.chain("(n:Person {employer=e, name='Ann'})")
        node = chain.elements[0]
        assert node.prop_binds == (("employer", "e"),)
        assert node.prop_tests == (("name", ast.Literal("Ann")),)


class TestPathPatterns:
    def connector(self, text):
        q = parse_query(f"CONSTRUCT (a) MATCH {text}")
        return q.body.match.block.patterns[0].chain.elements[1]

    def test_default_shortest(self):
        p = self.connector("(a)-/p<:knows*>/->(b)")
        assert p.mode == "shortest" and p.count == 1 and p.var == "p"
        assert isinstance(p.regex, ast.RStar)

    def test_k_shortest_with_cost(self):
        p = self.connector("(a)-/3 SHORTEST p<:knows*> COST c/->(b)")
        assert p.count == 3 and p.cost_var == "c"

    def test_all_paths(self):
        p = self.connector("(a)-/ALL p<:knows*>/->(b)")
        assert p.mode == "all"

    def test_all_paths_take_no_cost(self):
        # An ALL pattern binds no walk, so there is nothing to cost.
        with pytest.raises(ParseError, match="ALL path pattern"):
            parse_query("CONSTRUCT (a) MATCH (a)-/ALL p<:knows*> COST c/->(b)")

    def test_reachability(self):
        p = self.connector("(a)-/<:knows*>/->(b)")
        assert p.mode == "reach" and p.var is None

    def test_anonymous_path_with_cost_is_shortest(self):
        p = self.connector("(a)-/<:knows*> COST c/->(b)")
        assert p.mode == "shortest" and p.count == 1
        assert p.var is None and p.cost_var == "c"

    def test_stored_path_match(self):
        p = self.connector("(a)-/@p:toWagner/->(b)")
        assert p.stored and p.labels == (("toWagner",),)

    def test_view_reference(self):
        p = self.connector("(a)-/p<~wKnows*>/->(b)")
        star = p.regex
        assert isinstance(star, ast.RStar)
        assert star.item == ast.RView("wKnows")

    def test_incoming_path(self):
        p = self.connector("(a)<-/p<:knows*>/-(b)")
        assert p.direction == ast.IN

    def test_regex_alternation_concat(self):
        p = self.connector("(a)-/<(:knows|:likes) :worksAt>/->(b)")
        concat = p.regex
        assert isinstance(concat, ast.RConcat)
        assert isinstance(concat.items[0], ast.RAlt)

    def test_regex_inverse_and_wildcards(self):
        p = self.connector("(a)-/<:knows^ _ !Person>/->(b)")
        items = p.regex.items
        assert items[0] == ast.RLabel("knows", inverse=True)
        assert items[1] == ast.RAnyEdge()
        assert items[2] == ast.RNodeTest("Person")

    def test_regex_plus_and_opt(self):
        p = self.connector("(a)-/<:knows+ :likes?>/->(b)")
        items = p.regex.items
        assert isinstance(items[0], ast.RPlus)
        assert isinstance(items[1], ast.ROpt)


class TestConstructClause:
    def test_graph_name_shorthand(self):
        q = parse_query("CONSTRUCT social_graph, (n) MATCH (n)")
        items = q.body.head.items
        assert items[0] == ast.GraphRefItem("social_graph")
        assert isinstance(items[1], ast.PatternItem)

    def test_group_clause(self):
        q = parse_query(
            "CONSTRUCT (x GROUP e :Company {name:=e})<-[y:worksAt]-(n) MATCH (n)"
        )
        node = q.body.head.items[0].chain.elements[0]
        assert node.group == (ast.Var("e"),)
        assert node.assignments == (("name", ast.Var("e")),)

    def test_group_property_expression(self):
        q = parse_query("CONSTRUCT (x GROUP o.custName :C) MATCH (o)")
        node = q.body.head.items[0].chain.elements[0]
        assert node.group == (ast.Prop(ast.Var("o"), "custName"),)

    def test_copy_node_and_edge(self):
        q = parse_query("CONSTRUCT (=n)-[=y]->(m) MATCH (n)-[y]->(m)")
        item = q.body.head.items[0]
        assert item.chain.elements[0].copy_of == "n"
        assert item.chain.elements[1].copy_of == "y"

    def test_when_clause(self):
        q = parse_query("CONSTRUCT (n)-[e:f {s:=COUNT(*)}]->(m) WHEN e.s > 0 MATCH (n), (m)")
        item = q.body.head.items[0]
        assert isinstance(item.when, ast.Binary)

    def test_set_and_remove(self):
        q = parse_query(
            "CONSTRUCT (n) SET n.k := 1 SET n:Extra REMOVE n.old REMOVE n:Gone MATCH (n)"
        )
        item = q.body.head.items[0]
        assert len(item.sets) == 2 and len(item.removes) == 2
        assert item.sets[0].key == "k"
        assert item.sets[1].label == "Extra"
        assert item.removes[0].key == "old"
        assert item.removes[1].label == "Gone"

    def test_stored_path_construct(self):
        q = parse_query(
            "CONSTRUCT (n)-/@p:localPeople{distance:=c}/->(m) MATCH (n)-/p<:k*> COST c/->(m)"
        )
        connector = q.body.head.items[0].chain.elements[1]
        assert connector.stored and connector.labels == (("localPeople",),)
        assert connector.assignments[0][0] == "distance"


class TestSetOpsAndHeads:
    def test_union_with_graph_name(self):
        q = parse_query("CONSTRUCT (n) MATCH (n) UNION social_graph")
        assert isinstance(q.body, ast.SetOpQuery)
        assert q.body.op == "union"
        assert q.body.right == ast.GraphRefQuery("social_graph")

    def test_chained_set_ops_left_assoc(self):
        q = parse_query("g1 UNION g2 MINUS g3")
        assert q.body.op == "minus"
        assert q.body.left.op == "union"

    def test_intersect(self):
        q = parse_query("g1 INTERSECT g2")
        assert q.body.op == "intersect"

    def test_parenthesized_operand(self):
        q = parse_query("g1 MINUS (g2 UNION g3)")
        assert q.body.op == "minus"
        assert q.body.right.op == "union"

    def test_path_clause(self):
        q = parse_query(
            "PATH wKnows = (x)-[e:knows]->(y) WHERE NOT 'Acme' IN y.employer "
            "COST 1 / (1 + e.nr_messages) CONSTRUCT (n) MATCH (n)"
        )
        head = q.heads[0]
        assert isinstance(head, ast.PathClause)
        assert head.name == "wKnows"
        assert head.where is not None and head.cost is not None

    def test_path_clause_cost_before_where(self):
        q = parse_query(
            "PATH p = (x)-[:k]->(y) COST 2 WHERE x.a = 1 CONSTRUCT (n) MATCH (n)"
        )
        head = q.heads[0]
        assert head.cost == ast.Literal(2)

    def test_non_linear_path_clause(self):
        q = parse_query(
            "PATH p = (a)-[:k]->(b), (b)-[:l]->(c) CONSTRUCT (n) MATCH (n)"
        )
        assert len(q.heads[0].chains) == 2

    def test_local_graph_clause(self):
        q = parse_query(
            "GRAPH tmp AS (CONSTRUCT (n) MATCH (n)) CONSTRUCT (m) MATCH (m) ON tmp"
        )
        assert isinstance(q.heads[0], ast.GraphClause)

    def test_graph_view_statement(self):
        statement = parse_statement(
            "GRAPH VIEW v1 AS (CONSTRUCT (n) MATCH (n))"
        )
        assert isinstance(statement, ast.GraphViewStmt)
        assert statement.name == "v1"


class TestOptionalAndExists:
    def test_optional_blocks(self):
        q = parse_query(
            "CONSTRUCT (n) MATCH (n:Person) "
            "OPTIONAL (n)-[:worksAt]->(c) OPTIONAL (n)-[:livesIn]->(a)"
        )
        assert len(q.body.match.optionals) == 2

    def test_optional_with_where(self):
        q = parse_query(
            "CONSTRUCT (n) MATCH (n) OPTIONAL (n)-[c1]->(m) WHERE (c1:has_creator)"
        )
        optional = q.body.match.optionals[0]
        assert optional.where is not None

    def test_explicit_exists(self):
        q = parse_query(
            "CONSTRUCT (n) MATCH (n) WHERE EXISTS (CONSTRUCT () MATCH (n)-[:a]->(m))"
        )
        assert isinstance(q.body.match.block.where, ast.ExistsQuery)

    def test_implicit_pattern_predicate(self):
        q = parse_query(
            "CONSTRUCT (n) MATCH (n), (m) WHERE (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)"
        )
        assert isinstance(q.body.match.block.where, ast.ExistsPattern)

    def test_label_test_in_where(self):
        q = parse_query("CONSTRUCT (n) MATCH (n) WHERE (n:Person)")
        assert q.body.match.block.where == ast.LabelTest("n", ("Person",))

    def test_parenthesized_var_in_where(self):
        q = parse_query("CONSTRUCT (n) MATCH (n) WHERE (n) = 3")
        assert q.body.match.block.where == ast.Binary("=", ast.Var("n"), ast.Literal(3))


class TestSelectAndTabular:
    def test_select_with_alias(self):
        q = parse_query("SELECT n.a AS x, n.b MATCH (n)")
        select = q.body.head
        assert isinstance(select, ast.SelectClause)
        assert select.items[0].alias == "x"
        assert select.items[1].alias is None

    def test_select_distinct_order_limit(self):
        q = parse_query(
            "SELECT DISTINCT n.a MATCH (n) ORDER BY n.a DESC, n.b LIMIT 5 OFFSET 2"
        )
        select = q.body.head
        assert select.distinct
        assert select.order_by[0][1] is False  # DESC
        assert select.order_by[1][1] is True
        assert select.limit == 5 and select.offset == 2

    def test_select_group_by(self):
        q = parse_query("SELECT n.city, COUNT(*) AS c MATCH (n) GROUP BY n.city")
        assert q.body.head.group_by == (ast.Prop(ast.Var("n"), "city"),)

    def test_construct_from_table(self):
        q = parse_query("CONSTRUCT (c GROUP custName :C {n:=custName}) FROM orders")
        assert q.body.from_table == "orders"

    def test_select_from_table(self):
        q = parse_query("SELECT custName FROM orders")
        assert q.body.from_table == "orders"


# A malformed statement fails with the error that names its fault, at the
# token where the fault is, the same from parse_query, engine.run and
# (as GC001) engine.analyze: (statement, message, line, column).
ERROR_TABLE = [
    ("CONSTRUCT (a) MATCH (a)<-[e]->(b)", "an edge cannot point both ways", 1, 30),
    ("CONSTRUCT (a) MATCH (a)-[e:]->(b)", "expected a name, found ']'", 1, 28),
    (
        "CONSTRUCT (a) MATCH (a)-[e {x 1}]->(b)",
        "expected '=', ':' or ':=' after property key", 1, 31,
    ),
    (
        "GRAPH VIEW v AS (CONSTRUCT (a) MATCH (a)) extra",
        "a GRAPH VIEW statement ends at its ')', found 'extra'", 1, 43,
    ),
    (
        "(CONSTRUCT (a) MATCH (a)",
        "expected ')' closing a parenthesized query, found end of input", 1, 25,
    ),
    ("CONSTRUCT (a) MATCH (a) WHERE (a)-[e:]->(b)", "expected a name, found ']'", 1, 38),
    (
        "CONSTRUCT (a) MATCH (a)-/ALL p <:knows> COST c/->(b)",
        "an ALL path pattern binds no walk for COST to cost", 1, 46,
    ),
    (
        "SELECT n MATCH (n) WHERE (n) - [1]",
        "expected ']' closing an edge pattern, found '1'", 1, 33,
    ),
    (
        "CONSTRUCT (a) MATCH (a)-[e]-(b",
        "expected ')' closing a node pattern, found end of input", 1, 31,
    ),
    (
        "CONSTRUCT (a) MATCH (a)-[:knows*]->(b)",
        "expected ']' closing an edge pattern, found '*'", 1, 32,
    ),
    (
        "SELECT n MATCH (n) WHERE (n {name 'x'})",
        "expected '=', ':' or ':=' after property key", 1, 35,
    ),
    (
        "(SELECT n MATCH (n)) UNION (CONSTRUCT (a) MATCH (a)-[e:]->(b))",
        "expected a name, found ']'", 1, 56,
    ),
    ("CONSTRUCT (a) MATCH (a)<-/<:knows>/->(b)", "an edge cannot point both ways", 1, 37),
    (
        "CONSTRUCT (a)\nMATCH (a)-[e]->(b)\nWHERE (a)<-[f]->(b)",
        "an edge cannot point both ways", 3, 16,
    ),
    (
        "CONSTRUCT (a) MATCH (a)-/<:knows{3,1}>/->(b)",
        "repetition upper bound below lower", 1, 38,
    ),
    ("SELECT n MATCH (n", "expected ')' closing a node pattern, found end of input", 1, 18),
    ("SELECT n.x + MATCH (n)", "expected an expression, found 'MATCH'", 1, 14),
    (
        "(n2)-[:knows]->(n2) MATCH (n1)",
        "a pattern needs CONSTRUCT or SELECT before it", 1, 1,
    ),
    (
        "(a:Person)<-(b) MATCH (a)",
        "a pattern needs CONSTRUCT or SELECT before it", 1, 1,
    ),
]


@pytest.mark.parametrize("text, message, line, column", ERROR_TABLE)
def test_error_names_the_fault(engine, text, message, line, column):
    expected = f"{message} (at line {line}, column {column})"
    with pytest.raises(ParseError) as parsed:
        parse_query(text)
    assert str(parsed.value) == expected
    assert (parsed.value.line, parsed.value.column) == (line, column)
    with pytest.raises(ParseError) as ran:
        engine.run(text)
    assert str(ran.value) == expected
    (diagnostic,) = engine.analyze(text).diagnostics
    assert diagnostic.code == "GC001"
    assert diagnostic.message == expected
    assert (diagnostic.line, diagnostic.column) == (line, column)


def test_parse_query_rejects_a_view_at_its_first_token():
    with pytest.raises(ParseError) as raised:
        parse_query("  GRAPH VIEW v AS (CONSTRUCT (a) MATCH (a))")
    assert str(raised.value) == (
        "expected a query, found a GRAPH VIEW statement (at line 1, column 3)"
    )


def _chain(text):
    """The pattern chain of ``MATCH text``."""
    return parse_query(f"CONSTRUCT () MATCH {text}").body.match.block.patterns[0].chain


# A parenthesized term in an expression is a pattern, a label test or a
# sub-expression. Each form below parses to what it parsed to when the
# parser still decided by trial parses; (x) - [1] is the one exception.
CHARACTERIZATION_TABLE = [
    ("(v) - (1)", parse_expression("v - 1")),
    ("(v) - (w.a)", parse_expression("v - w.a")),
    ("(v) - (w)", ast.ExistsPattern(_chain("(v)-(w)"))),
    ("(x) <- (y)", ast.ExistsPattern(_chain("(x)<-(y)"))),
    ("(x:Person)", ast.LabelTest("x", ("Person",))),
    (
        "(x:Person AND y)",
        ast.Binary("and", ast.LabelTest("x", ("Person",)), ast.Var("y")),
    ),
    ("(GROUP(x))", ast.FuncCall("GROUP", (ast.Var("x"),))),
    ("()", ast.ExistsPattern(ast.Chain((ast.NodePattern(),)))),
    ("(:Person)", ast.ExistsPattern(ast.Chain((ast.NodePattern(labels=(("Person",),)),)))),
    ("(=n)", ast.ExistsPattern(ast.Chain((ast.NodePattern(copy_of="n"),)))),
    ("(v) < -(1)", ast.Binary("<", ast.Var("v"), ast.Unary("-", ast.Literal(1)))),
    (
        "(a)-[e]->(b) - 1",
        ast.Binary("-", ast.ExistsPattern(_chain("(a)-[e]->(b)")), ast.Literal(1)),
    ),
    ("(a)-(b)-(1)", parse_expression("a - b - 1")),
    ("(x - y) - [1]", parse_expression("x - y - [1]")),
    ("x - [1]", ast.Binary("-", ast.Var("x"), ast.ListLiteral((ast.Literal(1),)))),
]


@pytest.mark.parametrize("text, expected", CHARACTERIZATION_TABLE)
def test_parenthesized_term_characterization(text, expected):
    assert parse_expression(text) == expected
    where = parse_query(f"CONSTRUCT () MATCH () WHERE {text}").body.match.block.where
    assert where == expected


def test_node_shaped_term_before_minus_list_is_an_edge():
    """The one narrowing: after a node-shaped term, ``-[`` always opens
    an edge, so ``(x) - [1]`` (list arithmetic that raises at evaluation
    time) is now a parse error; ``x - [1]`` is unchanged."""
    for text in ("(x) - [1]", "(x) < -[1]"):
        with pytest.raises(ParseError, match="closing an edge pattern, found '1'"):
            parse_expression(text)
