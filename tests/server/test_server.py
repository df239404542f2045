"""HTTP server: endpoint behavior, error envelopes, admission edge cases.

Each test boots a real server on an ephemeral port
(:func:`repro.server.run_in_thread`) and talks plain HTTP through
urllib — the same wire a curl client sees, documented in
``docs/http-api.md``.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from http.client import HTTPConnection
from urllib.parse import quote

import pytest

from repro import GCoreEngine, GraphBuilder, datasets
from repro.model.io import encode_graph_chunks
from repro.server import ServerConfig, run_in_thread
from repro.server.http import write_response
from repro.server.protocol import dumps

PERSON_QUERY = "SELECT n.name MATCH (n:Person) ON g ORDER BY n.name"


def small_graph(n=6):
    b = GraphBuilder(name="g")
    for i in range(n):
        b.add_node(f"p{i}", labels=["Person"], properties={"name": f"p{i}"})
    for i in range(n - 1):
        b.add_edge(f"p{i}", f"p{i + 1}", edge_id=f"e{i}", labels=["knows"])
    return b.build()


def make_engine(engine_cls=GCoreEngine):
    engine = engine_cls()
    engine.register_graph("g", small_graph(), default=True)
    return engine


def http(url, payload=None, timeout=30):
    """POST *payload* (or GET when None); returns (status, body_dict)."""
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


def http_raw(url, body, timeout=30):
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture()
def server():
    handle = run_in_thread(make_engine(), ServerConfig(port=0))
    try:
        yield handle
    finally:
        handle.stop()


class SlowQueryEngine(GCoreEngine):
    """Every evaluation sleeps first — deterministic slow queries."""

    delay = 0.6

    def _evaluate(self, statement, params, plans, catalog):
        time.sleep(self.delay)
        return super()._evaluate(statement, params, plans, catalog)


class SlowUpdateEngine(GCoreEngine):
    """apply_update holds the engine write lock for a while."""

    delay = 0.8

    def apply_update(self, graph, delta, schema=None):
        with self._lock:
            time.sleep(self.delay)
            return super().apply_update(graph, delta, schema)


class TestQueryEndpoints:
    def test_query_roundtrip(self, server):
        status, body = http(server.url + "/query", {"query": PERSON_QUERY})
        assert status == 200
        assert body["kind"] == "table"
        assert body["columns"] == ["n.name"]
        assert body["rows"] == [[f"p{i}"] for i in range(6)]
        assert body["row_count"] == 6
        assert body["truncated"] is False
        assert body["epochs"]["g"] >= 1

    def test_construct_returns_graph_payload(self, server):
        status, body = http(
            server.url + "/query",
            {"query": "CONSTRUCT (n) MATCH (n:Person) ON g"},
        )
        assert status == 200
        assert body["kind"] == "graph"
        assert body["node_count"] == 6
        assert len(body["graph"]["nodes"]) == 6

    def test_row_limit_sets_truncated_flag(self, server):
        status, body = http(
            server.url + "/query", {"query": PERSON_QUERY, "max_rows": 2}
        )
        assert status == 200
        assert len(body["rows"]) == 2
        assert body["row_count"] == 6  # full size still reported
        assert body["truncated"] is True

    def test_prepare_execute_flow(self, server):
        status, prepared = http(
            server.url + "/prepare",
            {"query": "SELECT n.name MATCH (n:Person) ON g "
                      "WHERE n.name = $who"},
        )
        assert status == 200
        assert prepared["params"] == ["who"]
        statement_id = prepared["statement_id"]
        status, body = http(
            server.url + "/execute",
            {"statement_id": statement_id, "params": {"who": "p3"}},
        )
        assert status == 200
        assert body["rows"] == [["p3"]]
        assert body["statement_id"] == statement_id

    def test_execute_unknown_statement_is_404(self, server):
        status, body = http(
            server.url + "/execute", {"statement_id": "stmt-404"}
        )
        assert status == 404
        assert body["error"]["code"] == "not_found"

    @pytest.mark.parametrize(
        "statement_id", [["x"], {"id": "x"}, 1, True, None]
    )
    def test_execute_non_string_statement_id_is_400(self, server, statement_id):
        status, body = http(
            server.url + "/execute", {"statement_id": statement_id}
        )
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert "statement_id" in body["error"]["message"]

    def test_execute_missing_param_is_400(self, server):
        _status, prepared = http(
            server.url + "/prepare",
            {"query": "SELECT n.name MATCH (n:Person) ON g "
                      "WHERE n.name = $who"},
        )
        status, body = http(
            server.url + "/execute",
            {"statement_id": prepared["statement_id"]},
        )
        assert status == 400
        assert body["error"]["code"] == "evaluation_error"
        assert "who" in body["error"]["message"]

    def test_update_bumps_epoch_and_is_visible(self, server):
        status, body = http(
            server.url + "/update",
            {"graph": "g", "ops": [
                {"op": "add_node", "id": "p9", "labels": ["Person"],
                 "properties": {"name": "p9"}},
            ]},
        )
        assert status == 200
        assert body["epoch"] == 2
        assert body["node_count"] == 7
        status, after = http(server.url + "/query", {"query": PERSON_QUERY})
        assert ["p9"] in after["rows"]
        assert after["epochs"]["g"] == 2

    def test_update_refreshes_dependent_views(self):
        """Regression: a view registered before start kept serving its
        pre-update materialization, and no route could refresh it."""
        engine = make_engine()
        engine.run("GRAPH VIEW v AS (CONSTRUCT (n) MATCH (n:Person) ON g)")
        handle = run_in_thread(engine, ServerConfig(port=0))
        try:
            status, body = http(handle.url + "/update", {"graph": "g", "ops": [
                {"op": "add_node", "id": "p9", "labels": ["Person"],
                 "properties": {"name": "p9"}},
            ]})
            assert status == 200
            assert "stale_views" not in body
            status, after = http(handle.url + "/query", {
                "query": "SELECT n.name MATCH (n:Person) ON v ORDER BY n.name",
            })
            assert status == 200
            assert ["p9"] in after["rows"]
            assert after["epochs"]["v"] == 2
        finally:
            handle.stop()

    def test_view_over_view_follows_updates(self):
        engine = make_engine()
        engine.run("GRAPH VIEW v AS (CONSTRUCT (n) MATCH (n:Person) ON g)")
        engine.run("GRAPH VIEW w AS (CONSTRUCT (n) MATCH (n) ON v "
                   "WHERE n.name <> 'p0')")
        handle = run_in_thread(engine, ServerConfig(port=0))
        try:
            status, _ = http(handle.url + "/update", {"graph": "g", "ops": [
                {"op": "add_node", "id": "p9", "labels": ["Person"],
                 "properties": {"name": "p9"}},
                {"op": "remove_node", "id": "p1"},
            ]})
            assert status == 200
            status, body = http(handle.url + "/query", {
                "query": "SELECT n.name MATCH (n) ON w ORDER BY n.name",
            })
            assert status == 200
            assert body["rows"] == [["p2"], ["p3"], ["p4"], ["p5"], ["p9"]]
            assert body["epochs"]["w"] == 2
        finally:
            handle.stop()

    def test_stats_reports_view_epochs_without_a_stale_flag(self):
        engine = make_engine()
        engine.run("GRAPH VIEW v AS (CONSTRUCT (n) MATCH (n:Person) ON g)")
        handle = run_in_thread(engine, ServerConfig(port=0))
        try:
            http(handle.url + "/update", {"graph": "g", "ops": [
                {"op": "remove_node", "id": "p0"},
            ]})
            status, body = http(handle.url + "/stats")
            assert status == 200
            entries = {entry["name"]: entry for entry in body["graphs"]}
            view = entries["v"]
            assert view["kind"] == "view" and view["epoch"] == 2
            assert view["node_count"] == entries["g"]["node_count"] == 5
            assert "stale" not in view
        finally:
            handle.stop()

    def test_explain_endpoint(self, server):
        status, body = http(
            server.url + "/explain?query=" + quote(PERSON_QUERY)
        )
        assert status == 200
        assert isinstance(body["explain"], str) and body["explain"]

    def test_stats_endpoint_shape(self, server):
        http(server.url + "/query", {"query": PERSON_QUERY})
        status, body = http(server.url + "/stats")
        assert status == 200
        assert {"plan_cache", "graphs", "admission",
                "requests_total", "timeouts_total"} <= set(body)
        (entry,) = body["graphs"]
        assert entry["name"] == "g" and entry["kind"] == "base"
        # versions are values: there is no reader or retention accounting
        assert "mvcc" not in body and "retained_versions" not in entry


class TestUpdateInheritsIndexes:
    """A new epoch starts from its base's indexes; pinned readers keep
    the base's answers."""

    FRIENDS = (
        "SELECT m.firstName AS first MATCH (n:Person)-[:knows]->(m:Person) "
        "WHERE n.firstName = $first AND n.lastName = $last ORDER BY first"
    )

    def test_update_keeps_built_indexes_and_pinned_answers(self):
        engine = GCoreEngine()
        datasets.load("snb", scale=30, seed=42).install(engine)
        graph = engine.graph("snb")
        person = next(
            node for node in sorted(graph.nodes_with_label("Person"), key=str)
            if graph.out_adjacency("knows").get(node)
        )
        (first,), (last,) = (
            graph.property(person, "firstName"), graph.property(person, "lastName")
        )
        ask = {"query": self.FRIENDS, "params": {"first": first, "last": last}}
        handle = run_in_thread(engine, ServerConfig(port=0))

        def snb_indexes():
            (entry,) = [entry for entry in http(handle.url + "/stats")[1]["graphs"]
                        if entry["name"] == "snb"]
            return entry["property_indexes"]

        try:
            status, before = http(handle.url + "/query", ask)
            assert status == 200 and before["rows"]
            built = snb_indexes()
            assert {"firstName", "lastName"} <= set(built)
            with engine.snapshot() as pinned:
                status, _ = http(handle.url + "/update", {"graph": "snb", "ops": [
                    {"op": "set_property", "id": person, "key": "firstName",
                     "value": "Renamed"},
                ]})
                assert status == 200
                assert snb_indexes() == built
                assert http(handle.url + "/query", ask)[1]["rows"] == []
                renamed = dict(ask, params={"first": "Renamed", "last": last})
                assert http(handle.url + "/query", renamed)[1]["rows"] == (
                    before["rows"]
                )
                pinned_rows = pinned.run(self.FRIENDS, params=ask["params"])
                assert [list(row) for row in pinned_rows.rows] == before["rows"]
        finally:
            handle.stop()


class TestGraphResultWire:
    """Graph results: spliced fragments, chunked writes, /stats counts."""

    UNION = "CONSTRUCT (n) MATCH (n:Person) ON g UNION g"

    def test_union_body_is_dumps_with_matching_length(self, server):
        connection = HTTPConnection(
            "127.0.0.1", server.server.port, timeout=30)
        connection.request("POST", "/query", json.dumps({"query": self.UNION}),
                           {"Content-Type": "application/json"})
        response = connection.getresponse()
        body = response.read()
        connection.close()
        assert response.status == 200
        assert int(response.getheader("Content-Length")) == len(body)
        payload = json.loads(body)
        assert payload["node_count"] == 6 and payload["edge_count"] == 5
        graph = server.engine.run(self.UNION)
        assert body == dumps(dict(payload, graph=encode_graph_chunks(graph)))
        assert body == json.dumps(payload, separators=(", ", ": ")).encode()

    def test_write_response_sends_chunks_under_one_length(self):
        class Writer:
            def writelines(self, chunks):
                self.data = b"".join(chunks)

        writer = Writer()
        write_response(writer, 200, [b'{"a": ', b"[1, 2]", b"}"])
        head, _, body = writer.data.partition(b"\r\n\r\n")
        assert b"Content-Length: 13" in head.split(b"\r\n")
        assert body == b'{"a": [1, 2]}'
        write_response(writer, 200, b"{}")
        assert writer.data.endswith(b"Content-Length: 2\r\n"
                                    b"Connection: close\r\n\r\n{}")

    def test_stats_counts_wire_fragments(self, server):
        def fragments():
            (entry,) = http(server.url + "/stats")[1]["graphs"]
            return entry["wire_fragments"]

        assert fragments() == 0
        http(server.url + "/query",
             {"query": "CONSTRUCT (n {seen := 1}) MATCH (n:Person) ON g"})
        assert fragments() == 0  # every node assigned: nothing cached
        http(server.url + "/query",
             {"query": "CONSTRUCT (n) MATCH (n:Person) ON g"})
        assert fragments() == 6  # the untouched persons of g
        http(server.url + "/query", {"query": self.UNION})
        assert fragments() == 11  # all 6 nodes and 5 edges of g
        status, _ = http(server.url + "/update", {"graph": "g", "ops": [
            {"op": "set_property", "id": "p1", "key": "name", "value": "x"},
            {"op": "remove_edge", "id": "e4"},
        ]})
        assert status == 200
        assert fragments() == 9  # the new epoch keeps all it did not touch
        http(server.url + "/query", {"query": self.UNION})
        assert fragments() == 10  # p1 again; e4 is gone


class TestExecutionConfigWire:
    """A ``config`` member is one more ignored unknown member."""

    @pytest.mark.parametrize(
        "config", [{}, {"planner": "naive"}, {"bogus": 1}, "cost", None]
    )
    def test_config_member_is_ignored(self, server, config):
        reference = http(server.url + "/query", {"query": PERSON_QUERY})[1]
        status, body = http(
            server.url + "/query", {"query": PERSON_QUERY, "config": config}
        )
        assert status == 200
        assert body["rows"] == reference["rows"]
        status, prepared = http(
            server.url + "/prepare", {"query": PERSON_QUERY, "config": config}
        )
        assert status == 200
        status, body = http(
            server.url + "/execute",
            {"statement_id": prepared["statement_id"], "config": config},
        )
        assert status == 200
        assert body["rows"] == reference["rows"]

    def test_concurrent_queries(self, server):
        """Eight clients at once, each reading a snapshot through the
        shared plan cache, all get the serial reference rows."""
        reference = http(server.url + "/query", {"query": PERSON_QUERY})[1]
        results = [None] * 8

        def worker(index):
            results[index] = http(
                server.url + "/query", {"query": PERSON_QUERY}
            )

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(results))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for status, body in results:
            assert status == 200
            assert body["rows"] == reference["rows"]


class TestErrorEnvelopes:
    def test_malformed_json_is_400_bad_request(self, server):
        status, body = http_raw(server.url + "/query", b"{not json")
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert body["error"]["status"] == 400

    def test_non_object_body_is_400(self, server):
        status, body = http_raw(server.url + "/query", b"[1, 2]")
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    def test_unknown_graph_is_404_with_stable_code(self, server):
        status, body = http(
            server.url + "/query",
            {"query": "SELECT n.name MATCH (n) ON nope"},
        )
        assert status == 404
        assert body["error"]["code"] == "unknown_graph"

    def test_parse_error_code(self, server):
        status, body = http(server.url + "/query", {"query": "SELEC oops"})
        assert status == 400
        assert body["error"]["code"] == "parse_error"

    def test_builtin_arity_error_is_400(self, server):
        """A builtin called with the wrong argument count is the client's
        error (400 semantic_error), not an internal one."""
        status, body = http(
            server.url + "/query", {"query": "SELECT id() AS x MATCH (n)"}
        )
        assert status == 400
        assert body["error"]["code"] == "semantic_error"
        assert "id() takes 1 argument, got 0" in body["error"]["message"]

    def test_ill_sorted_prepare_fails_as_query_does(self, server):
        """/prepare sort-checks: an ill-sorted statement (the GC201
        trigger of the analyzer tests) gets /query's error envelope and
        registers no statement."""
        query = {"query": "CONSTRUCT (x) MATCH (x)-[x]->(m)"}
        status, body = http(server.url + "/query", query)
        assert status == 400
        assert body["error"]["code"] == "semantic_error"
        assert http(server.url + "/prepare", query) == (status, body)
        _status, stats = http(server.url + "/stats")
        assert stats["prepared_statements"] == 0

    def test_unknown_route_and_wrong_method(self, server):
        status, body = http(server.url + "/nope")
        assert status == 404
        assert body["error"]["code"] == "not_found"
        status, body = http(server.url + "/query")  # GET on a POST route
        assert status == 405
        assert body["error"]["code"] == "method_not_allowed"

    def test_bad_update_op_rejected_before_apply(self, server):
        status, body = http(
            server.url + "/update",
            {"graph": "g", "ops": [{"op": "warp_core_breach"}]},
        )
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        status, after = http(server.url + "/query", {"query": PERSON_QUERY})
        assert after["epochs"]["g"] == 1  # nothing half-applied

    @pytest.mark.parametrize(
        "op",
        [
            {"op": "add_node", "id": "x", "labels": "Person"},
            {"op": "add_node", "id": "x", "labels": [1, 2]},
            {"op": "add_node", "id": ["x"]},
            {"op": "add_node", "id": True},
            {"op": "add_node", "id": None},
            {"op": "add_node", "id": 1.5},
            {"op": "add_edge", "id": "e", "source": ["p0"], "target": "p1"},
            {"op": "add_edge", "id": "e", "source": "p0", "target": {"a": 1}},
            {"op": "add_edge", "id": "e", "source": "p0", "target": "p1",
             "labels": "knows"},
            {"op": "add_label", "id": "p0", "label": ["L"]},
            {"op": "remove_label", "id": "p0", "label": 7},
            {"op": "set_property", "id": "p0", "key": 5, "value": 1},
            {"op": "remove_property", "id": "p0", "key": ["name"]},
            {"op": "remove_node", "id": ["p0"]},
        ],
    )
    def test_mistyped_update_op_is_400(self, server, op):
        status, body = http(server.url + "/update", {"graph": "g", "ops": [op]})
        assert status == 400, body
        assert body["error"]["code"] == "bad_request"
        status, after = http(server.url + "/query", {"query": PERSON_QUERY})
        assert after["epochs"]["g"] == 1  # nothing applied

    def test_integer_ids_are_accepted(self, server):
        status, _ = http(
            server.url + "/update",
            {"graph": "g", "ops": [
                {"op": "add_node", "id": 7, "labels": ["Person"]},
                {"op": "add_edge", "id": 8, "source": 7, "target": "p0"},
            ]},
        )
        assert status == 200

    @pytest.mark.parametrize(
        "date", [5, None, ["2020-01-01"], "nope", "2020-13-45", "2021-02-30"]
    )
    def test_malformed_date_is_400(self, server, date):
        status, body = http(
            server.url + "/query",
            {"query": "SELECT n.name MATCH (n:Person) ON g WHERE n.name = $d",
             "params": {"d": {"$date": date}}},
        )
        assert status == 400, body
        assert body["error"]["code"] == "bad_request"
        status, body = http(
            server.url + "/update",
            {"graph": "g", "ops": [{"op": "set_property", "id": "p0",
                                    "key": "born", "value": {"$date": date}}]},
        )
        assert status == 400, body
        assert body["error"]["code"] == "bad_request"

    @pytest.mark.parametrize("items", [[[1]], [None]])
    def test_non_scalar_list_param_items_are_400(self, server, items):
        status, body = http(
            server.url + "/query",
            {"query": "SELECT n.name MATCH (n:Person) ON g WHERE n.name IN $p",
             "params": {"p": items}},
        )
        assert status == 400, body
        assert body["error"]["code"] == "bad_request"

    def test_delta_conflict_maps_to_409(self, server):
        status, body = http(
            server.url + "/update",
            {"graph": "g", "ops": [{"op": "remove_node", "id": "ghost"}]},
        )
        assert status == 409
        assert body["error"]["code"] == "delta_error"

    def test_invalid_timeout_and_row_limit_values(self, server):
        for payload in (
            {"query": PERSON_QUERY, "timeout_ms": 0},
            {"query": PERSON_QUERY, "timeout_ms": "fast"},
            {"query": PERSON_QUERY, "max_rows": 0},
            {"query": PERSON_QUERY, "max_rows": True},
        ):
            status, body = http(server.url + "/query", payload)
            assert status == 400
            assert body["error"]["code"] == "bad_request"

    @pytest.mark.parametrize("spelling", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_timeout_is_400(self, server, spelling):
        # json.loads accepts these; a NaN deadline used to reach wait_for
        body = f'{{"query": "{PERSON_QUERY}", "timeout_ms": {spelling}}}'
        status, payload = http_raw(server.url + "/query", body.encode())
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "timeout_ms" in payload["error"]["message"]

    def test_negative_content_length_is_400(self, server):
        host, port = server.url.rsplit("/", 1)[1].split(":")
        with socket.create_connection((host, int(port)), timeout=30) as sock:
            sock.sendall(b"POST /query HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: -5\r\n\r\n")
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        error = json.loads(body)["error"]
        assert error["code"] == "bad_request"
        assert error["message"] == "invalid Content-Length"
        assert http(server.url + "/query", {"query": PERSON_QUERY})[0] == 200


class TestAdmissionAndTimeouts:
    def test_timeout_expiry_mid_query_is_408(self):
        handle = run_in_thread(
            make_engine(SlowQueryEngine), ServerConfig(port=0)
        )
        try:
            status, body = http(
                handle.url + "/query",
                {"query": PERSON_QUERY, "timeout_ms": 100},
            )
            assert status == 408
            assert body["error"]["code"] == "timeout"
            # the abandoned worker finishes and frees its slot; the
            # server keeps serving afterwards
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                _status, health = http(handle.url + "/health")
                if health["in_flight"] == 0:
                    break
                time.sleep(0.05)
            assert health["in_flight"] == 0
            status, body = http(
                handle.url + "/query",
                {"query": PERSON_QUERY, "timeout_ms": 30_000},
            )
            assert status == 200
            _status, stats = http(handle.url + "/stats")
            assert stats["timeouts_total"] == 1
        finally:
            handle.stop()

    def test_load_shedding_returns_503(self):
        handle = run_in_thread(
            make_engine(SlowQueryEngine),
            ServerConfig(port=0, max_in_flight=1, max_queue=0),
        )
        try:
            results = []

            def slow_query():
                results.append(
                    http(handle.url + "/query", {"query": PERSON_QUERY})
                )

            occupant = threading.Thread(target=slow_query)
            occupant.start()
            # wait for the slow query to take the only slot
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                _status, health = http(handle.url + "/health")
                if health["in_flight"] == 1:
                    break
                time.sleep(0.02)
            assert health["in_flight"] == 1

            status, body = http(
                handle.url + "/query", {"query": PERSON_QUERY}
            )
            assert status == 503
            assert body["error"]["code"] == "overloaded"

            occupant.join(timeout=30)
            assert results[0][0] == 200  # the occupant still succeeded
            _status, stats = http(handle.url + "/stats")
            assert stats["admission"]["shed_total"] == 1
            # capacity is back
            status, _body = http(
                handle.url + "/query", {"query": PERSON_QUERY}
            )
            assert status == 200
        finally:
            handle.stop()

    def test_health_stays_responsive_during_long_update(self):
        handle = run_in_thread(
            make_engine(SlowUpdateEngine), ServerConfig(port=0)
        )
        try:
            update_result = []

            def long_update():
                update_result.append(http(
                    handle.url + "/update",
                    {"graph": "g", "ops": [
                        {"op": "add_node", "id": "slow", "labels": ["Person"],
                         "properties": {"name": "slow"}},
                    ]},
                ))

            updater = threading.Thread(target=long_update)
            updater.start()
            # probe /health while the update holds the engine write lock
            deadline = time.monotonic() + 10
            probed = 0
            while updater.is_alive() and time.monotonic() < deadline:
                started = time.monotonic()
                status, body = http(handle.url + "/health", timeout=2)
                elapsed = time.monotonic() - started
                assert status == 200 and body["status"] == "ok"
                assert elapsed < 1.0, "health blocked behind the update"
                probed += 1
            updater.join(timeout=30)
            assert probed >= 1
            assert update_result[0][0] == 200
        finally:
            handle.stop()
