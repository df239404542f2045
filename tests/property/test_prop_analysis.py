"""Property tests for the semantic analyzer (ISSUE 9 acceptance).

Two contracts:

1. **Soundness (no false-positive errors)** — a query assembled from
   well-formed fragments over the loaded catalog parses, executes
   successfully, and the analyzer reports no error-level diagnostics
   for it. Error severity is reserved for genuinely broken statements;
   anything speculative must be a warning or info.
2. **Config-independence** — analysis is a static function of the
   statement and the catalog: ``engine.analyze`` must return the
   identical diagnostic list whatever ``ExecutionConfig`` rides along.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro import GCoreEngine
from repro.config import ExecutionConfig
from repro.datasets import social_graph
from repro.model.schema import snb_schema


@pytest.fixture(scope="module")
def engine():
    eng = GCoreEngine()
    eng.register_graph(
        "social_graph", social_graph(), default=True, schema=snb_schema()
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


#: Queries mixing valid, broken and smelly constructs (for parity).
MIXED_QUERIES = (
    "SELECT n.name MATCH (n:Person)",
    "SELECT m.name MATCH (n:Person)",  # GC204
    "CONSTRUCT (x) MATCH (x)-[x]->(m)",  # GC201
    "CONSTRUCT (n) MATCH (n), (m)",  # GC401
    "CONSTRUCT (n) MATCH (n:Persn) WHERE n.agee = 1",  # GC103+GC104
    "SELECT n.name MATCH (n:Person) WHERE TRUE < 2",  # GC205
    "CONSTRUCT (",  # GC001
    "CONSTRUCT (n) MATCH (n)-/ALL p<:knows*>/->(m)",  # GC402
)

CONFIG_AXES = (
    ExecutionConfig(),
    ExecutionConfig(planner="naive"),
)


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
@given(
    query=st.sampled_from(MIXED_QUERIES),
    config=st.sampled_from(CONFIG_AXES),
)
def test_config_independence(engine, query, config):
    """The analyzer verdict ignores the execution configuration."""
    baseline = engine.analyze(query)
    other = engine.analyze(query, config=config)
    key = lambda r: [
        (d.code, d.severity, d.message, d.line, d.column, d.hint)
        for d in r
    ]
    assert key(other) == key(baseline)


@settings(max_examples=40, deadline=None)
@given(query=valid_queries())
def test_analysis_is_deterministic(engine, query):
    first = engine.analyze(query)
    second = engine.analyze(query)
    assert [d.to_json() for d in first] == [d.to_json() for d in second]
