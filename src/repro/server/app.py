"""The concurrent G-CORE query server.

:class:`GCoreServer` exposes one :class:`~repro.engine.GCoreEngine` over
HTTP/asyncio to many concurrent clients:

* ``POST /query`` — one-shot statements; ``POST /prepare`` +
  ``POST /execute`` — the parameterized hot loop; ``GET /explain`` —
  the planner sketch; ``POST /update`` — graph deltas;
* every read runs against an **MVCC snapshot**
  (:meth:`GCoreEngine.snapshot <repro.engine.GCoreEngine.snapshot>`):
  the request pins a consistent catalog version for its lifetime while
  updates land on later epochs, and the pinned graph versions are
  refcount-pruned when the request finishes;
* queries execute on a thread pool of ``max_in_flight`` workers behind
  **admission control** (:mod:`repro.server.admission`): a bounded wait
  queue, 503 load shedding past it, a per-request timeout (408) and a
  row limit with a ``truncated`` response flag;
* ``GET /health`` never touches engine locks — it stays responsive
  while a long update holds the write path — and ``GET /stats`` reports
  cache, MVCC and admission counters.

The wire formats live in :mod:`repro.server.protocol` and are documented
with runnable examples in ``docs/http-api.md``.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

from ..engine import GCoreEngine, PreparedQuery
from ..errors import GCoreError
from .admission import AdmissionController
from .http import Request, read_request, write_response
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


Handler = Callable[[Request], Awaitable[Dict[str, Any]]]


class GCoreServer:
    """Serve one engine to many concurrent HTTP clients (asyncio)."""

    def __init__(
        self, engine: GCoreEngine, config: Optional[ServerConfig] = None
    ) -> None:
        self.engine = engine
        self.config = config or ServerConfig()
        self.port: Optional[int] = None  # bound port, set by start()
        self._admission = AdmissionController(
            self.config.max_in_flight, self.config.max_queue
        )
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.max_in_flight,
            thread_name_prefix="gcore-query",
        )
        self._statements: "OrderedDict[str, PreparedQuery]" = OrderedDict()
        self._statement_seq = itertools.count(1)
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
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
    async def start(self) -> None:
        """Bind and start accepting connections (non-blocking)."""
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()

    @property
    def url(self) -> str:
        """The server's base URL (valid after :meth:`start`)."""
        return f"http://{self.config.host}:{self.port}"

    async def stop(self) -> None:
        """Stop accepting connections and release the worker pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._pool.shutdown(wait=False)
        if self._stopped is not None:
            self._stopped.set()

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` runs (the serve-forever primitive)."""
        assert self._stopped is not None, "server not started"
        await self._stopped.wait()

    async def serve_forever(self) -> None:
        """``start()`` + block until stopped."""
        await self.start()
        await self.wait_stopped()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(
                    reader, self.config.max_body_bytes
                )
            except ApiError as error:
                status, payload = error_envelope(error)
                write_response(writer, status, encode_chunks(payload))
                return
            if request is None:
                return
            self.requests_total += 1
            status, payload = await self._dispatch(request)
            write_response(writer, status, encode_chunks(payload))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        except Exception as error:  # never let a request kill the loop
            try:
                status, payload = error_envelope(error)
                write_response(writer, status, encode_chunks(payload))
            except Exception:
                pass
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _dispatch(self, request: Request) -> Tuple[int, Dict[str, Any]]:
        handler = self._routes.get((request.method, request.path))
        try:
            if handler is None:
                known = {path for _method, path in self._routes}
                if request.path in known:
                    raise MethodNotAllowed(
                        f"{request.method} is not supported on {request.path}"
                    )
                raise NotFound(f"no such endpoint: {request.path}")
            return 200, await handler(request)
        except (GCoreError, ApiError) as error:
            return error_envelope(error)

    # ------------------------------------------------------------------
    # Request plumbing: admission, timeout, executor
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

    def _release_slot(self, future: "asyncio.Future[Any]") -> None:
        self._admission.release()
        if not future.cancelled():
            future.exception()  # consume, silencing the unretrieved warning

    async def _run_admitted(
        self, work: Callable[[], Dict[str, Any]], timeout_s: float
    ) -> Dict[str, Any]:
        """Run *work* on the query pool under admission + timeout.

        The admission slot is released when the worker *finishes*, not
        when the response goes out: a timed-out (408) query keeps its
        slot busy until the engine actually returns, so in-flight counts
        reflect true load and shedding stays honest.
        """
        await self._admission.acquire()
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(self._pool, work)
        future.add_done_callback(self._release_slot)
        try:
            return await asyncio.wait_for(future, timeout_s)
        except asyncio.TimeoutError:
            self.timeouts_total += 1
            raise RequestTimeout(
                f"request exceeded its {timeout_s * 1000:.0f} ms budget; "
                f"the result was discarded"
            ) from None

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    async def _post_query(self, request: Request) -> Dict[str, Any]:
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

        return await self._run_admitted(work, timeout_s)

    async def _post_analyze(self, request: Request) -> Dict[str, Any]:
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

        return await self._run_admitted(work, timeout_s)

    async def _post_prepare(self, request: Request) -> Dict[str, Any]:
        body = request.json_object()
        text = body.get("query")
        if not isinstance(text, str) or not text.strip():
            raise BadRequest("'query' must be a non-empty string")
        prepared = self.engine.prepare(text)  # parses; raises ParseError
        statement_id = f"stmt-{next(self._statement_seq)}"
        self._statements[statement_id] = prepared
        while len(self._statements) > self.config.max_statements:
            self._statements.popitem(last=False)
        return {
            "statement_id": statement_id,
            "params": sorted(prepared.param_names),
        }

    async def _post_execute(self, request: Request) -> Dict[str, Any]:
        body = request.json_object()
        statement_id = body.get("statement_id")
        if not isinstance(statement_id, str):
            raise BadRequest("'statement_id' must be a string")
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

        return await self._run_admitted(work, timeout_s)

    async def _post_update(self, request: Request) -> Dict[str, Any]:
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
                "stale_views": engine.stale_views(),
                "elapsed_ms": round((time.monotonic() - started) * 1000, 3),
            }

        return await self._run_admitted(work, timeout_s)

    async def _get_explain(self, request: Request) -> Dict[str, Any]:
        text = request.query.get("query")
        if not text or not text.strip():
            raise BadRequest(
                "pass the statement in the 'query' URL parameter"
            )
        engine = self.engine

        def work() -> Dict[str, Any]:
            with engine.snapshot() as snapshot:
                return {
                    "explain": snapshot.explain(text),
                    "plan_cached": engine.is_plan_cached(text),
                }

        # EXPLAIN takes the engine lock (plan-cache probe): keep it off
        # the event loop so /health stays responsive, but skip admission
        # — it runs no query.
        return await asyncio.get_running_loop().run_in_executor(None, work)

    async def _get_health(self, request: Request) -> Dict[str, Any]:
        """Liveness, lock-free: responsive even during a long update."""
        return {
            "status": "ok",
            "uptime_ms": round((time.monotonic() - self._started_at) * 1000),
            "in_flight": self._admission.in_flight,
            "queued": self._admission.queued,
            "requests_total": self.requests_total,
        }

    async def _get_stats(self, request: Request) -> Dict[str, Any]:
        engine = self.engine

        def work() -> Dict[str, Any]:
            return {
                "plan_cache": engine.plan_cache_info(),
                "mvcc": engine.mvcc_info(),
                "graphs": engine.catalog_info(),
                "prepared_statements": len(self._statements),
            }

        # catalog_info/plan_cache_info take the engine lock; run off-loop
        # (see _get_explain) and merge the loop-confined counters after.
        payload = await asyncio.get_running_loop().run_in_executor(None, work)
        payload["admission"] = self._admission.info()
        payload["timeouts_total"] = self.timeouts_total
        payload["requests_total"] = self.requests_total
        return payload


# ---------------------------------------------------------------------------
# Thread harness (tests, docs examples, embedding in sync programs)
# ---------------------------------------------------------------------------

class ServerThread:
    """A :class:`GCoreServer` running on a daemon thread's event loop."""

    def __init__(
        self,
        server: GCoreServer,
        thread: threading.Thread,
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        self.server = server
        self.engine = server.engine
        self._thread = thread
        self._loop = loop

    @property
    def url(self) -> str:
        return self.server.url

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the server and join its thread."""
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop
        )
        future.result(timeout=timeout)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def run_in_thread(
    engine: GCoreEngine, config: Optional[ServerConfig] = None
) -> ServerThread:
    """Start a server on a background thread and wait until it is bound.

    The returned :class:`ServerThread` exposes the bound ``url`` and a
    blocking ``stop()``; it also works as a context manager. Pass a
    :class:`ServerConfig` with ``port=0`` to bind an ephemeral port —
    what the test suite and the docs example runner do.
    """
    server = GCoreServer(engine, config)
    started = threading.Event()
    box: Dict[str, Any] = {}

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        box["loop"] = loop
        try:
            try:
                loop.run_until_complete(server.start())
            except Exception as error:
                box["error"] = error
                return
            finally:
                started.set()
            loop.run_until_complete(server.wait_stopped())
            # Let in-flight handler tasks finish writing their responses.
            pending = [
                task
                for task in asyncio.all_tasks(loop)
                if not task.done()
            ]
            if pending:
                loop.run_until_complete(
                    asyncio.wait(pending, timeout=1.0)
                )
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(
        target=runner, name="gcore-server", daemon=True
    )
    thread.start()
    started.wait(timeout=10.0)
    if "error" in box:
        raise box["error"]
    if not started.is_set() or server.port is None:
        raise RuntimeError("server failed to start within 10 s")
    return ServerThread(server, thread, box["loop"])
