"""One end-to-end unit test per diagnostic code, through ``engine.analyze``.

Every code of the registry is exercised against the guided-tour catalog
(social graph + SNB schema, company graph, orders table) — the
acceptance bar of the analyzer issue: each documented code observable
through the public entry point.
"""

import pytest

from repro import GCoreEngine
from repro.analysis import CODES
from repro.analysis.analyzer import Analyzer
from repro.datasets import load
from repro.model.schema import snb_schema


@pytest.fixture(scope="module")
def engine():
    eng = GCoreEngine()
    paper = load("paper")
    eng.register_graph(
        "social_graph", paper.graphs["social_graph"], default=True, schema=snb_schema()
    )
    eng.register_graph("company_graph", paper.graphs["company_graph"])
    eng.register_table("orders", paper.tables["orders"])
    return eng


#: code -> a query that must trigger it (and nothing more severe).
TRIGGERS = {
    "GC001": "CONSTRUCT (",
    "GC101": "CONSTRUCT (n) MATCH (n) ON missing_graph",
    "GC102": "SELECT x FROM missing_table",
    "GC103": "CONSTRUCT (n) MATCH (n:Persn)",
    "GC104": "CONSTRUCT (n) MATCH (n) WHERE n.agee = 1",
    "GC105": "CONSTRUCT (n) MATCH (n)-/p<~missing_view>/->(m)",
    "GC201": "CONSTRUCT (x) MATCH (x)-[x]->(m)",
    "GC202": (
        "CONSTRUCT (n) MATCH (n)-/ALL p<:knows*>/->(m) WHERE length(p) > 2"
    ),
    "GC203": (
        "CONSTRUCT (n) MATCH (n) "
        "OPTIONAL (z)-[:knows]->(a) OPTIONAL (z)-[:knows]->(b)"
    ),
    "GC204": "CONSTRUCT (n) MATCH (n) WHERE m.name = 'Alice'",
    "GC205": "CONSTRUCT (n) MATCH (n) WHERE TRUE < 2",
    "GC206": "CONSTRUCT (n) MATCH (n) WHERE 1 + 1",
    "GC207": "CONSTRUCT (n) MATCH (n) WHERE count(n) > 1",
    "GC208": "SELECT id() AS x MATCH (n)",
    "GC301": (
        "SELECT n.name MATCH (n:Person) "
        "WHERE n.employer = 'Acme' AND n.employer = 'HAL'"
    ),
    "GC302": "CONSTRUCT (c) MATCH (c:Company)",
    "GC401": "CONSTRUCT (n) MATCH (n), (m)",
}


def test_trigger_table_covers_the_whole_registry():
    assert set(TRIGGERS) == set(CODES)


def test_docs_code_tables_match_the_registry():
    """``docs/analysis.md`` lists every code with its registry name and
    severity, and nothing else."""
    import re
    from pathlib import Path

    doc = Path(__file__).resolve().parents[2] / "docs" / "analysis.md"
    rows = re.findall(r"^\| `(GC\d{3})` \| `([\w-]+)` \| (\w+) \|",
                      doc.read_text(), re.MULTILINE)
    assert sorted(rows) == sorted(
        (code, info.name, info.severity) for code, info in CODES.items()
    )


def test_builtin_arity_is_reported_where_prepare_raises(engine):
    """GC208 carries prepare's message, anchors at the call, and strict
    mode refuses the statement before anything runs."""
    from repro.errors import AnalysisError, SemanticError

    text = TRIGGERS["GC208"]
    (diagnostic,) = engine.analyze(text)
    with pytest.raises(SemanticError) as raised:
        engine.prepare(text)
    assert diagnostic.message == str(raised.value)
    assert (diagnostic.line, diagnostic.column) == (1, 8)
    with pytest.raises(AnalysisError, match="GC208"):
        engine.run(text, strict=True)


@pytest.mark.parametrize("code", sorted(TRIGGERS))
def test_code_fires_with_registry_severity(engine, code):
    result = engine.analyze(TRIGGERS[code])
    fired = [d for d in result if d.code == code]
    assert fired, f"{code} not raised: {[d.code for d in result]}"
    assert all(d.severity == CODES[code].severity for d in fired)


@pytest.mark.parametrize("code", sorted(TRIGGERS))
def test_trigger_is_minimal(engine, code):
    """Each trigger raises only its own code."""
    result = engine.analyze(TRIGGERS[code])
    assert {d.code for d in result} == {code}


@pytest.mark.parametrize("code", sorted(set(TRIGGERS) - {"GC001"}))
def test_runtime_match_check_agrees_with_sort_codes(engine, code):
    """One sort-inference pass, two reporters: ``analyze_match`` raises
    exactly when the analyzer reports GC201/GC202/GC203 on that MATCH."""
    from repro.errors import SemanticError
    from repro.eval.analysis import analyze_match

    match = engine.parse(TRIGGERS[code]).body.match
    reported = {d.code for d in engine.analyze(TRIGGERS[code])}
    if reported & {"GC201", "GC202", "GC203"}:
        with pytest.raises(SemanticError):
            analyze_match(match)
    else:
        analyze_match(match)


#: The message each sort-code trigger raises, the same before and after
#: the check moved from evaluation to prepare.
SORT_MESSAGES = {
    "GC201": "variable 'x' is used both as node and as edge",
    "GC202": "ALL-paths variable 'p' may only be used for graph projection",
    "GC203": (
        "variable 'z' is shared by OPTIONAL blocks but does not appear "
        "in the enclosing pattern"
    ),
}


@pytest.mark.parametrize("code", sorted(SORT_MESSAGES))
def test_prepare_raises_the_sort_codes(engine, code):
    from repro.errors import SemanticError

    with pytest.raises(SemanticError) as raised:
        engine.prepare(TRIGGERS[code])
    assert str(raised.value) == SORT_MESSAGES[code]
    assert not engine.is_plan_cached(TRIGGERS[code])


@pytest.mark.parametrize("entry", ["prepare", "run-ast", "run-script"])
def test_every_entry_checks_subqueries_no_row_reaches(engine, entry):
    """The check reads the statement, not the rows it evaluates: an
    ill-sorted EXISTS over no outer row fails on every way in."""
    from repro.errors import SemanticError

    text = (
        "SELECT n.firstName MATCH (n:Person) WHERE n.firstName = 'Nobody' "
        "AND EXISTS (CONSTRUCT (x) MATCH (x)-[x]->(m))"
    )
    run = {
        "prepare": engine.prepare,
        "run-ast": lambda text: engine.run(engine.parse(text)),
        "run-script": engine.run_script,
    }[entry]
    with pytest.raises(SemanticError, match=SORT_MESSAGES["GC201"]):
        run(text)


def _spy_analyze_match(monkeypatch):
    """Count the calls of ``analyze_match`` in every module of the package
    that imported it."""
    import sys

    from repro.eval import analysis

    original = analysis.analyze_match
    calls = []

    def counted(clause):
        calls.append(clause)
        return original(clause)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(
            module, "analyze_match", None
        ) is original:
            monkeypatch.setattr(module, "analyze_match", counted)
    return calls


def test_sort_check_runs_once_per_match_clause_at_prepare(
    engine, monkeypatch
):
    """A statement's MATCH clauses are sort-checked when it is prepared —
    a GRAPH head, the body and an EXISTS subquery, one call each — and
    never while it runs, not even once per outer row of EXISTS."""
    text = (
        "GRAPH people AS (CONSTRUCT (p) MATCH (p:Person)) "
        "SELECT n.firstName MATCH (n:Person) ON people "
        "WHERE EXISTS (CONSTRUCT (n) MATCH (n) OPTIONAL (n)-[:knows]->(m))"
    )
    calls = _spy_analyze_match(monkeypatch)
    prepared = engine.prepare(text)
    statement = prepared.statement
    exists = statement.body.match.block.where.query
    assert calls == [
        statement.heads[0].query.body.match,
        statement.body.match,
        exists.body.match,
    ]
    del calls[:]
    for _ in range(3):
        assert len(prepared.run().rows) >= 3  # EXISTS runs once per row
    assert calls == []


def test_clean_query_has_no_diagnostics(engine):
    result = engine.analyze(
        "SELECT n.name MATCH (n:Person) WHERE n.employer = 'Acme'"
    )
    assert result.ok
    assert len(result) == 0


def test_diagnostics_carry_source_spans(engine):
    result = engine.analyze(TRIGGERS["GC204"])
    diagnostic = result[0]
    assert diagnostic.line == 1
    assert diagnostic.column is not None and diagnostic.column > 30


def test_parse_error_reports_position(engine):
    result = engine.analyze("CONSTRUCT (n) MATCH (n) WHERE ???")
    assert [d.code for d in result] == ["GC001"]
    assert result[0].line == 1


def test_analyze_accepts_parsed_statement(engine):
    from repro.lang.parser import parse_statement

    statement = parse_statement(TRIGGERS["GC204"])
    result = engine.analyze(statement)
    assert [d.code for d in result] == ["GC204"]
    assert result[0].line is None  # no token stream, no spans


def test_analyze_without_catalog_skips_schema_checks():
    from repro.analysis import analyze

    result = analyze("CONSTRUCT (n) MATCH (n:Persn) WHERE n.agee = 1")
    assert result.ok  # GC103/GC104 need a catalog; nothing else fires


def test_regex_names_are_reported_in_preorder(engine, monkeypatch):
    """Unknown labels, then unknown views, each in the regex's pre-order
    (left to right), under a star, an alternation, a repeat and a
    concatenation; a breadth-first order would put Blip and nope first."""
    emitted = []
    original = Analyzer.emit

    def record(self, code, message, anchor=None, **kwargs):
        emitted.append((code, anchor))
        original(self, code, message, anchor=anchor, **kwargs)

    monkeypatch.setattr(Analyzer, "emit", record)
    engine.analyze("CONSTRUCT (n) MATCH (n)-/<((:knows :zork)* ~gone){1,2} | !Blip ~nope>/->(m)")
    assert emitted == [
        ("GC103", "zork"), ("GC103", "Blip"), ("GC105", "gone"), ("GC105", "nope"),
    ]


def test_local_graph_head_suppresses_gc101(engine):
    result = engine.analyze(
        "GRAPH tmp AS (CONSTRUCT (n) MATCH (n:Person)) "
        "CONSTRUCT (m) MATCH (m) ON tmp"
    )
    assert result.ok


def test_local_path_head_suppresses_gc105(engine):
    result = engine.analyze(
        "PATH two = (a)-[:knows]->(b) "
        "CONSTRUCT (x) MATCH (x)-/q<~two>/->(y)"
    )
    assert result.ok


def test_contradictory_pattern_and_where_facts(engine):
    result = engine.analyze(
        "SELECT n.name MATCH (n:Person {employer: 'Acme'}) "
        "WHERE n.employer = 'HAL'"
    )
    assert "GC301" in {d.code for d in result}


def test_domain_miss_is_flagged(engine):
    result = engine.analyze(
        "SELECT n.name MATCH (n:Person) WHERE n.employer = 'Initech'"
    )
    assert {d.code for d in result} == {"GC301"}


@pytest.mark.parametrize("mode", ["ALL ", "", "3 SHORTEST "])
def test_unbounded_paths_not_flagged(engine, mode):
    """No path mode enumerates walks, so a star is no cost smell."""
    result = engine.analyze(f"CONSTRUCT (n) MATCH (n)-/{mode}p<:knows*>/->(m)")
    assert not result.diagnostics


def test_shared_cost_variable_connects_patterns(engine):
    """The engine joins two path patterns on a shared COST variable, so
    they are one component, not a cartesian product."""
    text = (
        "SELECT a.firstName AS f "
        "MATCH (a:Person)-/<:knows*> COST c/->(b:Person), "
        "(x:Person)-/<:knows*> COST c/->(y:Person) "
        "WHERE a.firstName = 'John' AND x.firstName = 'Alice'"
    )
    assert "GC401" not in {d.code for d in engine.analyze(text)}
    assert len(engine.run(text).rows) == 5


@pytest.mark.parametrize(
    "text, rows",
    [
        # The trailing ON scopes the whole pattern list.
        ("SELECT c.name AS c MATCH (c:Company), (x:Company) ON company_graph", 16),
        # An OPTIONAL block inherits the main block's first graph.
        ("SELECT c.name AS c MATCH (c) ON company_graph OPTIONAL (c:Company)", 4),
        # A subquery in a block's WHERE inherits that block's first graph.
        ("SELECT c.name AS c MATCH (c) ON company_graph "
         "WHERE EXISTS (CONSTRUCT () MATCH (x:Company))", 4),
    ],
)
def test_gc103_checks_the_graph_a_pattern_reads(text, rows):
    # No schema here: Company is a label of company_graph alone.
    engine = GCoreEngine()
    load("paper").install(engine)
    assert "GC103" not in {d.code for d in engine.analyze(text)}
    assert len(engine.run(text).rows) == rows


def test_pattern_predicate_checks_its_blocks_first_graph(engine):
    # company_graph has no knows edge; the default graph does.
    text = "SELECT c.name AS c MATCH (c) ON company_graph WHERE (c)-[:knows]->()"
    assert "GC103" in {d.code for d in engine.analyze(text)}
    assert len(engine.run(text).rows) == 0


def test_a_pattern_on_another_graph_is_checked_against_it(engine):
    codes = {d.code for d in engine.analyze(
        "SELECT n.firstName AS f MATCH (n:Person) ON company_graph"
    )}
    assert {"GC103", "GC104"} <= codes


@pytest.mark.parametrize(
    "text, missing",
    [
        # company_graph, the one graph the view is searched over, has Company.
        ("PATH p = (a:Company)-[:e]->(b) "
         "CONSTRUCT (x) MATCH (x)-/<~p>/->(y) ON company_graph", {"e"}),
        # Searched over two graphs: missing only if both lack it.
        ("PATH p = (a:Company)-[:knows]->(b) CONSTRUCT (x) "
         "MATCH (x)-/<~p>/->(y) ON company_graph, (z)-/<~p>/->(w) ON social_graph", set()),
        ("PATH p = (a:Compny)-[:knows]->(b) CONSTRUCT (x) "
         "MATCH (x)-/<~p>/->(y) ON company_graph, (z)-/<~p>/->(w) ON social_graph", {"Compny"}),
        # Searched nowhere: the default graph's facts, as before.
        ("PATH p = (a:Company)-[:knows]->(b) CONSTRUCT (x) MATCH (x)", {"Company"}),
        # Searched inside a subquery only: not checked.
        ("PATH p = (a:Company)-[:e]->(b) CONSTRUCT (x) MATCH (x) "
         "WHERE EXISTS (CONSTRUCT () MATCH (x)-/<~p>/->(y) ON company_graph)", set()),
    ],
)
def test_path_view_is_checked_against_the_graphs_that_search_it(text, missing):
    engine = GCoreEngine()  # no schema: Company is a label of company_graph alone
    load("paper").install(engine)
    found = {d.message.split("'")[1] for d in engine.analyze(text) if d.code == "GC103"}
    assert found == missing


def test_construct_is_checked_against_the_graph_its_head_reads():
    engine = GCoreEngine()
    load("paper").install(engine)
    # name is a key of company_graph only, firstName of social_graph only
    assert "GC104" not in {
        d.code for d in engine.analyze("CONSTRUCT (x {name = 'a'}) MATCH (x) ON company_graph")
    }
    assert "GC104" in {
        d.code for d in engine.analyze("CONSTRUCT (x {firstName = 'a'}) MATCH (x) ON company_graph")
    }
