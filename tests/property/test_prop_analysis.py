"""Property tests for the semantic analyzer (ISSUE 9 acceptance).

Two contracts:

1. **Soundness (no false-positive errors)** — a query assembled from
   well-formed fragments over the loaded catalog parses, executes
   successfully, and the analyzer reports no error-level diagnostics
   for it. Error severity is reserved for genuinely broken statements;
   anything speculative must be a warning or info.
2. **Determinism** — analysis is a static function of the statement
   and the catalog: ``engine.analyze`` returns the identical diagnostic
   list every time.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro import GCoreEngine
from repro.datasets import load
from repro.model.schema import snb_schema


@pytest.fixture(scope="module")
def engine():
    eng = GCoreEngine()
    eng.register_graph(
        "social_graph", load("paper").graphs["social_graph"], default=True, schema=snb_schema()
    )
    return eng


NODE_LABELS = ("Person", "Post", "Tag")
EDGE_LABELS = ("knows", "hasInterest")
EMPLOYERS = ("Acme", "HAL", "CWI", "MIT")


@st.composite
def valid_queries(draw):
    """Well-formed queries over the social graph, by construction."""
    label = draw(st.sampled_from(NODE_LABELS))
    edge = draw(st.sampled_from(EDGE_LABELS))
    shape = draw(st.sampled_from(("node", "edge", "path")))
    if shape == "node":
        pattern = f"(n:{label})"
    elif shape == "edge":
        pattern = f"(n:Person)-[e:{edge}]->(m)"
    else:
        pattern = "(n:Person)-/p<:knows*>/->(m:Person)"
    clauses = ""
    if draw(st.booleans()) and shape != "path":
        employer = draw(st.sampled_from(EMPLOYERS))
        clauses = f" WHERE n.employer = '{employer}'"
    head = draw(st.sampled_from(("select", "construct")))
    if head == "select":
        query = f"SELECT n MATCH {pattern}{clauses}"
        if draw(st.booleans()):
            query += " ORDER BY n.firstName"
    else:
        query = f"CONSTRUCT (n) MATCH {pattern}{clauses}"
    return query


@settings(max_examples=60, deadline=None)
@given(query=valid_queries())
def test_soundness_valid_queries_have_no_error_diagnostics(engine, query):
    result = engine.analyze(query)
    assert result.errors == [], (
        f"false-positive error on executable query {query!r}: "
        f"{result.describe()}"
    )
    engine.run(query, strict=True)  # must also actually execute


@settings(max_examples=40, deadline=None)
@given(query=valid_queries())
def test_analysis_is_deterministic(engine, query):
    first = engine.analyze(query)
    second = engine.analyze(query)
    assert [d.to_json() for d in first] == [d.to_json() for d in second]


#: Valid, broken and smelly statements with the codes the analyzer
#: reports for each, in order.
MIXED_QUERIES = (
    ("SELECT n.name MATCH (n:Person)", []),
    ("SELECT m.name MATCH (n:Person)", ["GC204"]),
    ("CONSTRUCT (x) MATCH (x)-[x]->(m)", ["GC201"]),
    ("CONSTRUCT (n) MATCH (n), (m)", ["GC401"]),
    ("CONSTRUCT (n) MATCH (n:Persn) WHERE n.agee = 1", ["GC103", "GC104"]),
    ("SELECT n.name MATCH (n:Person) WHERE TRUE < 2", ["GC205"]),
    ("CONSTRUCT (", ["GC001"]),
    ("CONSTRUCT (n) MATCH (n)-/ALL p<:knows*>/->(m)", []),
)


@pytest.mark.parametrize("query,codes", MIXED_QUERIES)
def test_mixed_queries_analyze_identically_every_time(engine, query, codes):
    """Determinism also holds for statements with errors and warnings."""
    first = engine.analyze(query)
    assert [d.code for d in first] == codes
    second = engine.analyze(query)
    assert [d.to_json() for d in first] == [d.to_json() for d in second]
