"""The concurrent G-CORE query server.

:class:`GCoreServer` exposes one :class:`~repro.engine.GCoreEngine` over
HTTP to many concurrent clients:

* ``POST /query`` — one-shot statements; ``POST /prepare`` +
  ``POST /execute`` — the parameterized hot loop; ``GET /explain`` —
  the planner sketch; ``POST /update`` — graph deltas;
* every read runs against a **snapshot**
  (:meth:`GCoreEngine.snapshot <repro.engine.GCoreEngine.snapshot>`):
  the request holds one immutable catalog version for its lifetime
  while updates publish later ones;
* an acceptor thread hands each connection to one worker of a pool of
  ``max_in_flight + max_queue +`` :data:`RESERVE` threads (stdlib
  :mod:`socket` and :mod:`threading`: no :mod:`asyncio`, no :mod:`ssl`),
  which reads, runs and answers the request; ``503`` unread when all
  are busy;
* queries run behind **admission control** (:mod:`repro.server.admission`):
  a bounded wait queue, 503 load shedding past it, a per-request
  timeout (408, answered by a watchdog thread) and a row limit with a
  ``truncated`` response flag;
* ``GET /health`` never touches engine locks — it stays responsive
  while a long update holds the write path — and ``GET /stats`` reports
  cache, catalog and admission counters.

The wire formats live in :mod:`repro.server.protocol` and are documented
with runnable examples in ``docs/http-api.md``.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import queue
import socket
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..engine import GCoreEngine, PreparedQuery
from ..errors import GCoreError
from .admission import AdmissionController
from .http import Connection, Request, read_request, write_response
from .protocol import (
    ApiError,
    BadRequest,
    MethodNotAllowed,
    NotFound,
    RequestTimeout,
    decode_params,
    delta_from_json,
    encode_chunks,
    error_envelope,
    serialize_result,
)

__all__ = ["GCoreServer", "ServerConfig", "ServerThread", "run_in_thread"]


class ServerConfig:
    """Tunables for one :class:`GCoreServer` instance."""

    __slots__ = (
        "host",
        "port",
        "max_in_flight",
        "max_queue",
        "default_timeout_ms",
        "max_timeout_ms",
        "default_row_limit",
        "max_row_limit",
        "max_body_bytes",
        "max_statements",
    )

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7687,
        max_in_flight: int = 8,
        max_queue: int = 16,
        default_timeout_ms: int = 30_000,
        max_timeout_ms: int = 300_000,
        default_row_limit: int = 10_000,
        max_row_limit: int = 100_000,
        max_body_bytes: int = 8 * 1024 * 1024,
        max_statements: int = 256,
    ) -> None:
        self.host = host
        #: 0 binds an ephemeral port (tests); the bound port is
        #: reported by :attr:`GCoreServer.port` after ``start()``.
        self.port = port
        self.max_in_flight = max_in_flight
        self.max_queue = max_queue
        self.default_timeout_ms = default_timeout_ms
        self.max_timeout_ms = max_timeout_ms
        self.default_row_limit = default_row_limit
        self.max_row_limit = max_row_limit
        self.max_body_bytes = max_body_bytes
        #: size of the /prepare handle registry (oldest evicted first)
        self.max_statements = max_statements


Handler = Callable[[Request], Dict[str, Any]]

#: Worker threads beyond ``max_in_flight + max_queue``: ``/health`` and
#: ``/stats`` find a worker while every query slot and queue place is taken.
RESERVE = 4
#: Seconds a client has to send its whole request (else 408); a send
#: that stalls this long gives up on the client.
READ_TIMEOUT_S = 10.0


class GCoreServer:
    """Serve one engine to many concurrent HTTP clients (one thread each)."""

    def __init__(
        self, engine: GCoreEngine, config: Optional[ServerConfig] = None
    ) -> None:
        self.engine = engine
        config = self.config = config or ServerConfig()
        self.port: Optional[int] = None  # bound port, set by start()
        self._admission = AdmissionController(config.max_in_flight, config.max_queue)
        self._max_workers = config.max_in_flight + config.max_queue + RESERVE
        self._workers: List[threading.Thread] = []
        self._idle = threading.Semaphore(0)  # one permit per idle worker
        self._handoff: queue.SimpleQueue = queue.SimpleQueue()  # sockets
        #: admitted, unanswered requests: connection -> (deadline, timeout_s)
        self._pending: Dict[Connection, Tuple[float, float]] = {}
        self._watch = threading.Condition()  # guards _pending and _wake_at
        self._wake_at = math.inf
        self._threads: List[threading.Thread] = []  # acceptor, watchdog
        self._listener: Optional[socket.socket] = None
        self._stopping = False
        self._lock = threading.Lock()  # the registry and the counters
        self._statements: "OrderedDict[str, PreparedQuery]" = OrderedDict()
        self._statement_seq = itertools.count(1)
        self._started_at = time.monotonic()
        self.requests_total = 0
        self.timeouts_total = 0
        self._routes: Dict[Tuple[str, str], Handler] = {
            ("POST", "/query"): self._post_query,
            ("POST", "/analyze"): self._post_analyze,
            ("POST", "/prepare"): self._post_prepare,
            ("POST", "/execute"): self._post_execute,
            ("POST", "/update"): self._post_update,
            ("GET", "/explain"): self._get_explain,
            ("GET", "/health"): self._get_health,
            ("GET", "/stats"): self._get_stats,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind, then accept connections on a background thread."""
        address = (self.config.host, self.config.port)
        family = socket.getaddrinfo(*address, type=socket.SOCK_STREAM)[0][0]
        self._listener = socket.create_server(address, family=family)
        self.port = self._listener.getsockname()[1]
        self._started_at = time.monotonic()
        self._threads = [_spawn("accept", self._accept), _spawn("watchdog", self._watchdog)]

    @property
    def url(self) -> str:
        """The server's base URL (valid after :meth:`start`)."""
        return f"http://{self.config.host}:{self.port}"

    def stop(self, timeout: Optional[float] = None) -> None:
        """Stop accepting and join every thread once its connection is done."""
        if self._listener is None or self._stopping:
            return
        self._stopping = True
        with contextlib.suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
        self._threads[0].join(timeout)  # the acceptor: no more workers
        self._listener.close()
        for _worker in self._workers:
            self._handoff.put(None)
        with self._watch:
            self._watch.notify()
        for thread in self._workers + self._threads:
            thread.join(timeout)

    def wait_stopped(self) -> None:
        """Block until :meth:`stop` runs."""
        self._threads[0].join()

    # ------------------------------------------------------------------
    # Threads: one acceptor, a bounded worker pool, the 408 watchdog
    # ------------------------------------------------------------------
    def _accept(self) -> None:
        """Hand each connection to an idle worker, or start one, or 503."""
        assert self._listener is not None
        while not self._stopping:
            try:
                sock, _address = self._listener.accept()
            except OSError:  # stop() shut the listener, or no descriptor is left
                time.sleep(0.01)
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._idle.acquire(blocking=False):
                self._handoff.put(sock)
            elif len(self._workers) < self._max_workers:
                name = f"worker-{len(self._workers)}"
                self._workers.append(_spawn(name, self._work, sock))
            else:  # answered unread: the thread count is the config's
                error = self._admission.shed(f"all {self._max_workers} workers busy")
                self._answer(Connection(sock, READ_TIMEOUT_S), *error_envelope(error))

    def _work(self, sock: Optional[socket.socket]) -> None:
        while sock is not None:
            self._serve(sock)
            self._idle.release()
            sock = self._handoff.get()

    def _serve(self, sock: socket.socket) -> None:
        """Carry one connection from its first byte to its close."""
        conn = Connection(sock, READ_TIMEOUT_S)
        try:
            request = read_request(conn, self.config.max_body_bytes)
            if request is not None:
                with self._lock:
                    self.requests_total += 1
                self._answer(conn, *self._dispatch(request))
        except ConnectionError:
            pass  # client went away mid-request
        except Exception as error:  # a 500, or a malformed or late request
            self._answer(conn, *error_envelope(error))
        finally:
            if conn.claim():  # nothing was answered
                sock.close()

    @staticmethod
    def _answer(conn: Connection, status: int, payload: Dict[str, Any]) -> bool:
        """Write the response and close, unless another thread answered."""
        if not conn.claim():
            return False
        with conn.sock, contextlib.suppress(OSError):  # the client may be gone
            write_response(conn, status, encode_chunks(payload))
        return True

    def _watchdog(self) -> None:
        """Answer ``408`` for each admitted request past its deadline."""
        while not self._stopping:
            with self._watch:
                now = time.monotonic()
                expired = [(conn, timeout_s) for conn, (deadline, timeout_s)
                           in self._pending.items() if deadline <= now]
                for conn, _timeout_s in expired:
                    del self._pending[conn]
                deadlines = [deadline for deadline, _ in self._pending.values()]
                self._wake_at = min(deadlines, default=math.inf)
                if not expired and not self._stopping:
                    self._watch.wait(self._wake_at - now if deadlines else None)
            for conn, timeout_s in expired:
                error = RequestTimeout(
                    f"request exceeded its {timeout_s * 1000:.0f} ms budget; "
                    f"the result was discarded"
                )
                if self._answer(conn, *error_envelope(error)):
                    with self._lock:
                        self.timeouts_total += 1

    def _dispatch(self, request: Request) -> Tuple[int, Dict[str, Any]]:
        handler = self._routes.get((request.method, request.path))
        try:
            if handler is None:
                known = {path for _method, path in self._routes}
                if request.path in known:
                    raise MethodNotAllowed(
                        f"{request.method} is not supported on {request.path}"
                    )
                raise NotFound(f"no such endpoint: {request.path}")
            return 200, handler(request)
        except (GCoreError, ApiError) as error:
            return error_envelope(error)

    # ------------------------------------------------------------------
    # Request plumbing: admission and timeout
    # ------------------------------------------------------------------
    def _timeout_seconds(self, body: Dict[str, Any]) -> float:
        raw = body.get("timeout_ms", self.config.default_timeout_ms)
        if (not isinstance(raw, (int, float)) or isinstance(raw, bool)
                or not math.isfinite(raw) or raw <= 0):
            raise BadRequest("'timeout_ms' must be a positive finite number")
        return min(float(raw), float(self.config.max_timeout_ms)) / 1000.0

    def _row_limit(self, body: Dict[str, Any]) -> int:
        raw = body.get("max_rows", self.config.default_row_limit)
        if not isinstance(raw, int) or isinstance(raw, bool) or raw < 1:
            raise BadRequest("'max_rows' must be a positive integer")
        return min(raw, self.config.max_row_limit)

    def _run_admitted(
        self, request: Request, work: Callable[[], Dict[str, Any]], timeout_s: float
    ) -> Dict[str, Any]:
        """Run *work* on this thread under admission + timeout.

        The deadline starts when the slot is granted; past it the watchdog
        answers ``408`` and this thread's result is dropped. The slot is
        held until *work* returns, so a timed-out query keeps it busy until
        the engine actually returns: in-flight counts reflect true load.
        """
        conn = request.connection
        self._admission.acquire()
        try:
            with self._watch:
                deadline = time.monotonic() + timeout_s
                self._pending[conn] = (deadline, timeout_s)
                if deadline < self._wake_at:
                    self._wake_at = deadline
                    self._watch.notify()
            try:
                return work()
            finally:
                with self._watch:
                    self._pending.pop(conn, None)
        finally:
            self._admission.release()

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _post_query(self, request: Request) -> Dict[str, Any]:
        body = request.json_object()
        text = body.get("query")
        if not isinstance(text, str) or not text.strip():
            raise BadRequest("'query' must be a non-empty string")
        params = decode_params(body.get("params"))
        strict = body.get("strict", False)
        if not isinstance(strict, bool):
            raise BadRequest("'strict' must be a boolean")
        timeout_s = self._timeout_seconds(body)
        row_limit = self._row_limit(body)
        engine = self.engine

        def work() -> Dict[str, Any]:
            started = time.monotonic()
            with engine.snapshot() as snapshot:
                result = snapshot.run(text, params, strict=strict)
                payload = serialize_result(result, row_limit)
                epochs = {
                    name: snapshot.epoch(name)
                    for name in snapshot.catalog.graph_names()
                }
            payload["epochs"] = epochs
            payload["elapsed_ms"] = round(
                (time.monotonic() - started) * 1000, 3
            )
            return payload

        return self._run_admitted(request, work, timeout_s)

    def _post_analyze(self, request: Request) -> Dict[str, Any]:
        """Static analysis only: diagnostics in, nothing executed.

        Always answers 200 for analyzable input — a statement that does
        not even parse comes back as a ``GC001`` diagnostic in the same
        envelope, not as an error response (``docs/analysis.md``).
        """
        body = request.json_object()
        text = body.get("query")
        if not isinstance(text, str) or not text.strip():
            raise BadRequest("'query' must be a non-empty string")
        timeout_s = self._timeout_seconds(body)
        engine = self.engine

        def work() -> Dict[str, Any]:
            started = time.monotonic()
            with engine.snapshot() as snapshot:
                payload = snapshot.analyze(text).to_json()
            payload["elapsed_ms"] = round(
                (time.monotonic() - started) * 1000, 3
            )
            return payload

        return self._run_admitted(request, work, timeout_s)

    def _post_prepare(self, request: Request) -> Dict[str, Any]:
        body = request.json_object()
        text = body.get("query")
        if not isinstance(text, str) or not text.strip():
            raise BadRequest("'query' must be a non-empty string")
        prepared = self.engine.prepare(text)  # parses, sort-checks; raises GCoreError
        with self._lock:
            statement_id = f"stmt-{next(self._statement_seq)}"
            self._statements[statement_id] = prepared
            while len(self._statements) > self.config.max_statements:
                self._statements.popitem(last=False)
        return {
            "statement_id": statement_id,
            "params": sorted(prepared.param_names),
        }

    def _post_execute(self, request: Request) -> Dict[str, Any]:
        body = request.json_object()
        statement_id = body.get("statement_id")
        if not isinstance(statement_id, str):
            raise BadRequest("'statement_id' must be a string")
        with self._lock:
            prepared = self._statements.get(statement_id)
        if prepared is None:
            raise NotFound(f"unknown statement_id: {statement_id!r}")
        params = decode_params(body.get("params"))
        timeout_s = self._timeout_seconds(body)
        row_limit = self._row_limit(body)
        engine = self.engine

        def work() -> Dict[str, Any]:
            started = time.monotonic()
            with engine.snapshot() as snapshot:
                result = snapshot.execute_prepared(prepared, params)
                payload = serialize_result(result, row_limit)
            payload["statement_id"] = statement_id
            payload["elapsed_ms"] = round(
                (time.monotonic() - started) * 1000, 3
            )
            return payload

        return self._run_admitted(request, work, timeout_s)

    def _post_update(self, request: Request) -> Dict[str, Any]:
        body = request.json_object()
        graph_name = body.get("graph")
        if not isinstance(graph_name, str) or not graph_name:
            raise BadRequest("'graph' must name a registered base graph")
        delta = delta_from_json(body.get("ops"))
        timeout_s = self._timeout_seconds(body)
        engine = self.engine

        def work() -> Dict[str, Any]:
            started = time.monotonic()
            new_graph = engine.apply_update(graph_name, delta)
            return {
                "graph": graph_name,
                "epoch": engine.catalog.epoch(graph_name),
                "applied_ops": len(delta),
                "node_count": len(new_graph.nodes),
                "edge_count": len(new_graph.edges),
                "elapsed_ms": round((time.monotonic() - started) * 1000, 3),
            }

        return self._run_admitted(request, work, timeout_s)

    def _get_explain(self, request: Request) -> Dict[str, Any]:
        text = request.query.get("query")
        if not text or not text.strip():
            raise BadRequest(
                "pass the statement in the 'query' URL parameter"
            )
        with self.engine.snapshot() as snapshot:  # no admission: no query runs
            return {
                "explain": snapshot.explain(text),
                "plan_cached": self.engine.is_plan_cached(text),
            }

    def _get_health(self, request: Request) -> Dict[str, Any]:
        """Liveness, lock-free: responsive even during a long update."""
        return {
            "status": "ok",
            "uptime_ms": round((time.monotonic() - self._started_at) * 1000),
            "in_flight": self._admission.in_flight,
            "queued": self._admission.queued,
            "requests_total": self.requests_total,
        }

    def _get_stats(self, request: Request) -> Dict[str, Any]:
        return {
            "plan_cache": self.engine.plan_cache_info(),
            "graphs": self.engine.catalog_info(),
            "prepared_statements": len(self._statements),
            "admission": self._admission.info(),
            "timeouts_total": self.timeouts_total,
            "requests_total": self.requests_total,
        }


def _spawn(name: str, target: Callable[..., None], *args: Any) -> threading.Thread:
    thread = threading.Thread(target=target, args=args, name=f"gcore-{name}", daemon=True)
    thread.start()
    return thread


# ---------------------------------------------------------------------------
# Thread harness (tests, docs examples, embedding in sync programs)
# ---------------------------------------------------------------------------

class ServerThread:
    """A started :class:`GCoreServer` with a blocking ``stop()``."""

    def __init__(self, server: GCoreServer) -> None:
        self.server = server
        self.engine = server.engine

    @property
    def url(self) -> str:
        return self.server.url

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the server and join its threads."""
        self.server.stop(timeout)

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def run_in_thread(
    engine: GCoreEngine, config: Optional[ServerConfig] = None
) -> ServerThread:
    """Start a server on background threads once it is bound.

    The returned :class:`ServerThread` exposes the bound ``url`` and a
    blocking ``stop()``; it also works as a context manager. Pass a
    :class:`ServerConfig` with ``port=0`` to bind an ephemeral port —
    what the test suite and the docs example runner do.
    """
    server = GCoreServer(engine, config)
    server.start()
    return ServerThread(server)
