"""The threaded front end: acceptor, worker pool, 408 watchdog, imports.

Every server here runs with one or two query slots, so no test starts
more than a handful of threads.
"""

import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import GCoreEngine, GraphBuilder
from repro.server import ServerConfig, app, run_in_thread
from repro.server.http import Connection
from repro.server.protocol import dumps, serialize_result

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")
PERSON_QUERY = "SELECT n.name MATCH (n:Person) ON g ORDER BY n.name"


def make_engine(engine_cls=GCoreEngine, n=6, padding=0):
    b = GraphBuilder(name="g")
    for i in range(n):
        b.add_node(f"p{i}", labels=["Person"],
                   properties={"name": f"p{i}", "bio": "x" * padding})
    engine = engine_cls()
    engine.register_graph("g", b.build(), default=True)
    return engine


class SlowQueryEngine(GCoreEngine):
    delay = 0.6

    def _evaluate(self, statement, params, plans, catalog):
        time.sleep(self.delay)
        return super()._evaluate(statement, params, plans, catalog)


def exchange(port, raw, timeout=30):
    """Send *raw* bytes on a fresh connection; (status, head, body).

    Reads the body by its ``Content-Length``, as HTTP clients do: a
    request the acceptor sheds unread may see a reset after the body.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(raw)

        def more(data):
            chunk = sock.recv(1 << 16)
            assert chunk, f"connection closed after {data[:200]!r}"
            return data + chunk

        reply = b""
        while b"\r\n\r\n" not in reply:
            reply = more(reply)
        head, _, body = reply.partition(b"\r\n\r\n")
        length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
        while len(body) < length:
            body = more(body)
    return int(head.split()[1]), head, body


def post(port, route, payload):
    body = json.dumps(payload).encode()
    status, _head, raw = exchange(
        port,
        f"POST {route} HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}"
        f"\r\n\r\n".encode() + body,
    )
    return status, raw


def get(port, route):
    status, _head, raw = exchange(port, f"GET {route} HTTP/1.1\r\n\r\n".encode())
    return status, json.loads(raw)


def wait_until(predicate, seconds=10):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def test_server_imports_neither_asyncio_nor_ssl():
    code = ("import sys, repro.server.__main__; "
            "print(sorted(m for m in ('asyncio', 'ssl', 'http.client', "
            "'http.server') if m in sys.modules))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=SRC_DIR),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_stop_joins_every_server_thread_and_closes_the_port():
    before = set(threading.enumerate())
    handle = run_in_thread(
        make_engine(), ServerConfig(port=0, max_in_flight=1, max_queue=1)
    )
    port = handle.server.port
    assert get(port, "/health")[0] == 200
    assert post(port, "/query", {"query": PERSON_QUERY})[0] == 200
    started = set(threading.enumerate()) - before
    assert {"gcore-accept", "gcore-watchdog", "gcore-worker-0"} <= {
        thread.name for thread in started
    }
    handle.stop()
    assert [thread.name for thread in started if thread.is_alive()] == []
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", port), timeout=5).close()


def test_sigterm_stops_the_server_process():
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.server", "--port", "0"],
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=SRC_DIR),
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 60)
        assert ready and "listening on http://" in proc.stdout.readline()
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 0
    assert "stopped" in out


def test_queued_request_gets_its_full_timeout_from_admission():
    handle = run_in_thread(
        make_engine(SlowQueryEngine),
        ServerConfig(port=0, max_in_flight=1, max_queue=1),
    )
    port = handle.server.port
    try:
        occupant = threading.Thread(
            target=post, args=(port, "/query", {"query": PERSON_QUERY}))
        occupant.start()
        assert wait_until(lambda: get(port, "/health")[1]["in_flight"] == 1)
        # ~0.6 s in the queue, then 0.6 s of work: over its 1 s budget
        # counted from arrival, inside it counted from admission
        started = time.monotonic()
        status, _ = post(port, "/query",
                         {"query": PERSON_QUERY, "timeout_ms": 1000})
        assert status == 200
        assert time.monotonic() - started > 1.0
        occupant.join(30)
        # a 408 leaves nothing behind for the watchdog either
        status, raw = post(port, "/query",
                           {"query": PERSON_QUERY, "timeout_ms": 100})
        assert status == 408 and json.loads(raw)["error"]["code"] == "timeout"
        assert wait_until(lambda: get(port, "/health")[1]["in_flight"] == 0)
        assert handle.server._pending == {}
        assert get(port, "/stats")[1]["timeouts_total"] == 1
    finally:
        handle.stop()


def test_acceptor_answers_503_when_every_worker_is_busy(monkeypatch):
    monkeypatch.setattr(app, "RESERVE", 1)
    handle = run_in_thread(
        make_engine(), ServerConfig(port=0, max_in_flight=1, max_queue=0)
    )
    port = handle.server.port
    idle = []
    try:
        # two silent connections hold both workers (1 slot + 0 queue + 1)
        for _ in range(2):
            idle.append(socket.create_connection(("127.0.0.1", port), timeout=30))
        assert wait_until(lambda: len(handle.server._workers) == 2)
        status, raw = post(port, "/query", {"query": PERSON_QUERY})
        assert status == 503
        assert json.loads(raw)["error"]["code"] == "overloaded"
        for sock in idle:
            sock.close()
        # the workers free up once they read the closes
        retries = []
        assert wait_until(lambda: retries.append(post(
            port, "/query", {"query": PERSON_QUERY})[0]) or retries[-1] == 200)
        shed = get(port, "/stats")[1]["admission"]["shed_total"]
        assert shed == 1 + retries.count(503)
        assert len(handle.server._workers) == 2
    finally:
        for sock in idle:
            sock.close()
        handle.stop()


def test_read_timeout_answers_408(monkeypatch):
    monkeypatch.setattr(app, "READ_TIMEOUT_S", 0.2)
    handle = run_in_thread(
        make_engine(), ServerConfig(port=0, max_in_flight=1, max_queue=0)
    )
    port = handle.server.port
    try:
        started = time.monotonic()
        status, _head, raw = exchange(port, b"POST /query HTTP/1.1\r\nContent-Le")
        assert status == 408
        assert json.loads(raw)["error"]["code"] == "timeout"
        assert 0.2 <= time.monotonic() - started < 5
        assert post(port, "/query", {"query": PERSON_QUERY})[0] == 200
    finally:
        handle.stop()


@pytest.mark.parametrize("query", [
    "CONSTRUCT (n) MATCH (n:Person) ON g",
    # every section wholly the owner's: its cached bodies go out as chunks
    "CONSTRUCT (n) MATCH (n:Person) WHERE n.name <> 'p1' UNION g",
    # the owner's nodes section with one entry masked out
    "g MINUS (CONSTRUCT (n) MATCH (n:Person) WHERE n.name = 'p1')",
], ids=["per-object", "owner-sections", "masked-section"])
def test_megabyte_construct_body_is_byte_identical(query):
    engine = make_engine(n=2000, padding=600)
    handle = run_in_thread(engine, ServerConfig(port=0, max_in_flight=1, max_queue=0))
    try:
        for _ in range(2):  # cold, then from the owner's cached sections
            status, body = post(handle.server.port, "/query", {"query": query})
    finally:
        handle.stop()
    assert status == 200 and len(body) >= 1_000_000
    payload = json.loads(body)
    expected = dict(serialize_result(engine.run(query), None),
                    epochs=payload["epochs"], elapsed_ms=payload["elapsed_ms"])
    assert body == dumps(expected)


def test_writelines_survives_partial_sends():
    sender, receiver = socket.socketpair()
    sender.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    chunks = [b"a" * 100_000, b"", b"b" * 300_000, b"c"]
    received = []

    def drain():
        while data := receiver.recv(1 << 16):
            received.append(data)

    reader = threading.Thread(target=drain)
    reader.start()
    with sender:
        Connection(sender, 10.0).writelines(chunks)
    reader.join(30)
    receiver.close()
    assert b"".join(received) == b"".join(chunks)
