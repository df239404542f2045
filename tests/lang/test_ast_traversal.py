"""The AST's one walk and one rewrite, and the helpers built on them."""

from __future__ import annotations

from repro.fuzz import QueryGenerator, Vocabulary, build_engine
from repro.lang import ast
from repro.lang.parser import parse_expression, parse_statement


def test_identity_variants_are_one_equal_copy_per_node():
    generator = QueryGenerator(Vocabulary.from_engine(build_engine()))
    for seed in range(200):
        stmt = generator.statement(seed).statement
        copies = list(ast.variants(stmt, lambda node: [node]))
        assert len(copies) == len(list(ast.walk(stmt)))
        assert all(copy == stmt for copy in copies)


def test_walk_is_preorder_and_literal_values_are_leaves():
    expr = parse_expression("f(x, 1) + y")
    kinds = [type(node).__name__ for node in ast.walk(expr)]
    assert kinds == ["Binary", "FuncCall", "Var", "Literal", "Var"]
    assert list(ast.walk(None)) == []
    assert list(ast.walk(ast.Literal(ast.Var("v")))) == [ast.Literal(ast.Var("v"))]


def test_walk_yields_a_stop_node_without_entering_it():
    expr = parse_expression("x AND EXISTS (CONSTRUCT () MATCH (y))")
    stopped = list(ast.walk(expr, stop=(ast.ExistsQuery,)))
    assert [type(node).__name__ for node in stopped] == ["Binary", "Var", "ExistsQuery"]
    assert ast.Var("y") not in stopped
    assert len(list(ast.walk(expr))) > len(stopped)


def test_variants_replace_one_node_and_rebuild_the_spine():
    stmt = parse_statement("SELECT n.a AS a MATCH (n) WHERE n.a = 1 AND n.b = 1")

    def bump(node):
        if node == ast.Literal(1):
            yield ast.Literal(2)

    copies = list(ast.variants(stmt, bump))
    assert len(copies) == 2
    wheres = [copy.body.match.block.where for copy in copies]
    assert [ast.conjuncts(where)[0].right.value for where in wheres] == [2, 1]
    assert [ast.conjuncts(where)[1].right.value for where in wheres] == [1, 2]
    assert all(copy.body.head is stmt.body.head for copy in copies)


def test_conjuncts_split_only_the_top_level_and():
    expr = parse_expression("a AND (b AND c) AND (d OR e)")
    assert [type(c).__name__ for c in ast.conjuncts(expr)] == [
        "Var", "Var", "Var", "Binary",
    ]
    assert ast.conjuncts(None) == []


def test_chain_variables_include_binds_and_cost():
    stmt = parse_statement(
        "CONSTRUCT (a) MATCH (a {employer = e})-[k:knows]->(b)-/p <:knows*> COST c/->(d)"
    )
    chain = stmt.body.match.block.patterns[0].chain
    assert chain.variables() == {"a", "e", "k", "b", "p", "c", "d"}
