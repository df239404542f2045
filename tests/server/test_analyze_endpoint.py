"""``POST /analyze`` and the ``strict`` flag of ``POST /query``.

Boots a real server on an ephemeral port (same harness as
``test_server.py``) and checks the wire format documented in
``docs/analysis.md``.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro import GCoreEngine
from repro.datasets import load
from repro.model.schema import snb_schema
from repro.server import ServerConfig, run_in_thread


def http(url, payload=None, timeout=30):
    if payload is None:
        request = urllib.request.Request(url)
    else:
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture(scope="module")
def server():
    engine = GCoreEngine()
    engine.register_graph(
        "social_graph", load("paper").graphs["social_graph"], default=True, schema=snb_schema()
    )
    handle = run_in_thread(engine, ServerConfig(port=0))
    try:
        yield handle
    finally:
        handle.stop()


def analyze(server, query):
    return http(f"{server.url}/analyze", {"query": query})


#: ≥8 distinct codes observable over the wire (the acceptance bar).
WIRE_CASES = {
    "GC001": "CONSTRUCT (",
    "GC101": "CONSTRUCT (n) MATCH (n) ON missing_graph",
    "GC103": "CONSTRUCT (n) MATCH (n:Persn)",
    "GC104": "CONSTRUCT (n) MATCH (n) WHERE n.agee = 1",
    "GC201": "CONSTRUCT (x) MATCH (x)-[x]->(m)",
    "GC204": "CONSTRUCT (n) MATCH (n) WHERE m.name = 'Alice'",
    "GC205": "CONSTRUCT (n) MATCH (n) WHERE TRUE < 2",
    "GC301": (
        "SELECT n.name MATCH (n:Person) "
        "WHERE n.employer = 'Acme' AND n.employer = 'HAL'"
    ),
    "GC302": "CONSTRUCT (c) MATCH (c:Company)",
    "GC401": "CONSTRUCT (n) MATCH (n), (m)",
}


@pytest.mark.parametrize("code", sorted(WIRE_CASES))
def test_analyze_reports_code_over_the_wire(server, code):
    status, body = analyze(server, WIRE_CASES[code])
    assert status == 200
    assert code in [d["code"] for d in body["diagnostics"]]


def test_analyze_envelope_shape(server):
    status, body = analyze(server, WIRE_CASES["GC204"])
    assert status == 200
    assert body["ok"] is False
    assert body["error_count"] == 1
    assert body["warning_count"] == 0
    assert body["info_count"] == 0
    assert "elapsed_ms" in body
    (diagnostic,) = body["diagnostics"]
    assert diagnostic["code"] == "GC204"
    assert diagnostic["name"] == "unbound-variable"
    assert diagnostic["severity"] == "error"
    assert diagnostic["line"] == 1
    assert diagnostic["column"] > 1
    assert "message" in diagnostic and "hint" in diagnostic


def test_analyze_clean_query(server):
    status, body = analyze(
        server, "SELECT n.name MATCH (n:Person) ORDER BY n.name"
    )
    assert status == 200
    assert body["ok"] is True
    assert body["diagnostics"] == []


def test_analyze_unparseable_is_still_200(server):
    status, body = analyze(server, "this is not a query")
    assert status == 200
    assert [d["code"] for d in body["diagnostics"]] == ["GC001"]


def test_analyze_rejects_missing_query(server):
    status, body = http(f"{server.url}/analyze", {})
    assert status == 400
    assert body["error"]["code"] == "bad_request"


def test_query_strict_blocks_error_diagnostics(server):
    status, body = http(
        f"{server.url}/query",
        {"query": WIRE_CASES["GC204"], "strict": True},
    )
    assert status == 400
    assert body["error"]["code"] == "analysis_error"
    assert "GC204" in body["error"]["message"]


def test_query_strict_allows_warnings(server):
    status, body = http(
        f"{server.url}/query",
        {"query": "SELECT n.name MATCH (n:Person), (m:Post)", "strict": True},
    )
    assert status == 200


def test_query_without_strict_still_runs(server):
    status, body = http(f"{server.url}/query", {"query": WIRE_CASES["GC204"]})
    assert status == 200


def test_query_strict_must_be_boolean(server):
    status, body = http(
        f"{server.url}/query", {"query": "SELECT 1 FROM t", "strict": "yes"}
    )
    assert status == 400
    assert body["error"]["code"] == "bad_request"
