"""Morsel-driven parallel execution of a MATCH block's tail.

A columnar block runs its planned atoms serially until the binding
table holds :data:`MIN_PARALLEL_ROWS` rows; the remaining atoms and the
residual WHERE then run over contiguous row-range **morsels** on a
worker pool sized by
:attr:`ExecutionConfig.parallelism <repro.config.ExecutionConfig>`, each
atom against the graph its pattern is ON. Results merge **in morsel
order**, which reproduces the serial engine's emission order (atoms
emit per input row in input order; the only cross-morsel interaction is
row deduplication, which is first-occurrence-wins on both sides). The
serial engine stays the oracle:
``tests/property/test_prop_parallel_oracle.py`` asserts exact
table/graph parity for every lattice point.

Two backends share one dispatch surface:

* ``fork`` (default where available) — a ``ProcessPoolExecutor`` over
  forked workers. Graphs are **not** pickled per task: the parent
  publishes them in the fork-inherited :data:`export registry
  <_EXPORTS>` before the pool forks, so workers read the shared
  copy-on-write adjacency indexes for free (they are immutable between
  epochs). A task naming a token the worker's fork snapshot does not
  know returns a stale marker; the parent then recycles the pool (a
  fresh fork sees the current registry) and retries once. Only small
  per-query state — the morsel's binding vectors, the plan's remaining
  steps (atoms with their pushed WHERE conjuncts) and residual,
  parameters — crosses the pipe.
* ``thread`` — a ``ThreadPoolExecutor`` running the identical worker
  functions in-process. Pure-Python work gains no wall-clock speedup
  under the GIL, but the backend keeps every worker code path
  exercisable (and deterministic to debug) on any platform; it is also
  the automatic fallback when ``fork`` is unavailable.

The dispatch degrades to serial execution — never to an error — when
the table is too small, an atom or the WHERE is not worker-safe (EXISTS
subqueries, pattern predicates and path views need the full evaluation
context), or the pool backend fails (sandboxes without working
``fork``); query-semantics errors raised inside a worker
(:class:`~repro.errors.GCoreError`) propagate to the caller exactly as
the serial engine would raise them.
"""

from __future__ import annotations

import atexit
import itertools
import pickle
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..algebra.binding import ABSENT, BindingTable
from ..config import ExecutionConfig
from ..errors import GCoreError
from ..lang import ast
from ..paths.automaton import regex_view_names

__all__ = [
    "POOL_FALLBACK_EXCEPTIONS",
    "fallback_counts",
    "morsel_ranges",
    "parallel_block_tail",
    "record_fallback",
    "reset_fallback_counts",
    "shutdown_pools",
]

#: The exceptions that legitimately mean "this dispatch cannot run on the
#: pool — degrade to the serial path". Everything else (AssertionError
#: from a worker invariant, KeyboardInterrupt, genuine bugs in worker
#: code) propagates to the caller instead of being silently swallowed;
#: the differential fuzzer depends on that to observe worker failures.
POOL_FALLBACK_EXCEPTIONS = (
    OSError,  # fork/pipe/file-descriptor failures (sandboxed fork)
    RuntimeError,  # BrokenExecutor & pool use during interpreter shutdown
    pickle.PicklingError,  # unpicklable task payload
    TypeError,  # pickle's other "cannot serialize" complaint
    EOFError,  # a worker died mid-result and tore the pipe
)

# ---------------------------------------------------------------------------
# Fallback observability (surfaced by the HTTP server's /stats endpoint)
# ---------------------------------------------------------------------------

_FALLBACK_LOCK = threading.Lock()
_FALLBACK_COUNTS: Dict[str, int] = {}


def record_fallback(site: str) -> None:
    """Count one silent degradation to the serial path at *site*."""
    with _FALLBACK_LOCK:
        _FALLBACK_COUNTS[site] = _FALLBACK_COUNTS.get(site, 0) + 1


def fallback_counts() -> Dict[str, int]:
    """A snapshot of the per-site fallback counters (``site -> count``)."""
    with _FALLBACK_LOCK:
        return dict(sorted(_FALLBACK_COUNTS.items()))


def reset_fallback_counts() -> None:
    """Zero the fallback counters (tests)."""
    with _FALLBACK_LOCK:
        _FALLBACK_COUNTS.clear()

# ---------------------------------------------------------------------------
# Tunables (module-level so tests and benchmarks can pin them)
# ---------------------------------------------------------------------------

#: Minimum binding-table rows before the remaining atoms of a block are
#: dispatched to the pool (below this, fan-out overhead dominates).
MIN_PARALLEL_ROWS = 192
#: Morsels per worker: >1 smooths skew, at the price of more task pickles.
MORSELS_PER_WORKER = 2

_FORK_AVAILABLE = False
try:  # pragma: no cover - platform probe
    import multiprocessing

    _FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()
except (ImportError, OSError):  # pragma: no cover - multiprocessing missing
    multiprocessing = None  # type: ignore[assignment]

#: ``"fork"`` (real multi-core scaling, Linux/macOS) or ``"thread"``
#: (GIL-bound, but portable and in-process). Tests monkeypatch this to
#: pin a backend; ``"fork"`` silently degrades to ``"thread"`` when the
#: platform cannot fork.
DEFAULT_BACKEND = "fork" if _FORK_AVAILABLE else "thread"


def morsel_ranges(nrows: int, workers: int) -> List[Tuple[int, int]]:
    """Split ``range(nrows)`` into at most ``workers * MORSELS_PER_WORKER``
    contiguous, near-equal ``(start, stop)`` ranges, in row order."""
    if nrows <= 0:
        return []
    count = min(max(1, workers) * MORSELS_PER_WORKER, nrows)
    base, extra = divmod(nrows, count)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for index in range(count):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


# ---------------------------------------------------------------------------
# Fork-inherited export registry (big immutable state, e.g. graphs)
# ---------------------------------------------------------------------------

_EXPORT_LIMIT = 32
_EXPORTS: "OrderedDict[int, Any]" = OrderedDict()
_EXPORT_TOKENS: Dict[int, int] = {}  # id(obj) -> token
_export_counter = itertools.count(1)
_MISSING = object()
#: Wire marker a worker returns when a token is not in its fork snapshot.
_STALE = "__gcore_stale_export__"

#: A worker-resolvable graph reference: a registry token, or None.
Token = Optional[int]


def export(obj: Any) -> int:
    """Publish *obj* for worker sharing; returns its token.

    Idempotent per object identity. The registry is a small LRU: graphs
    are long-lived (epoch-immutable), so a handful of entries covers a
    working set; evicting or newly publishing makes existing forked
    pools stale, which the dispatcher repairs by re-forking.
    """
    token = _EXPORT_TOKENS.get(id(obj))
    if token is not None and _EXPORTS.get(token) is obj:
        _EXPORTS.move_to_end(token)
        return token
    token = next(_export_counter)
    _EXPORTS[token] = obj
    _EXPORT_TOKENS[id(obj)] = token
    while len(_EXPORTS) > _EXPORT_LIMIT:
        _evicted, evicted_obj = _EXPORTS.popitem(last=False)
        _EXPORT_TOKENS.pop(id(evicted_obj), None)
    return token


def _resolve(token: Token) -> Any:
    if token is None:
        return None
    return _EXPORTS.get(token, _MISSING)


# ---------------------------------------------------------------------------
# Worker-pool lifecycle
# ---------------------------------------------------------------------------

_POOLS: Dict[Tuple[str, int], Any] = {}
_POOL_LOCK = threading.Lock()


def _make_pool(backend: str, workers: int):
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

    if backend == "fork" and _FORK_AVAILABLE:
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
        )
    return ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="gcore-morsel"
    )


def _get_pool(backend: str, workers: int):
    key = (backend, workers)
    with _POOL_LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            pool = _make_pool(backend, workers)
            _POOLS[key] = pool
        return pool


def _recycle_pool(backend: str, workers: int) -> None:
    """Drop (and shut down) the pool so the next dispatch re-forks."""
    key = (backend, workers)
    with _POOL_LOCK:
        pool = _POOLS.pop(key, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Shut down every cached worker pool (tests; process exit)."""
    with _POOL_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pools)


class _Fallback(Exception):
    """Internal: this dispatch cannot run in parallel — go serial."""

    def __init__(self, reason: str = "pool_error") -> None:
        super().__init__(reason)
        self.reason = reason


def _run_tasks(fn, payloads: List[Any], config: ExecutionConfig) -> List[Any]:
    """Map *fn* over *payloads* on the configured pool, in order.

    Raises :class:`_Fallback` when the pool is unusable (the caller runs
    the serial path); re-raises :class:`~repro.errors.GCoreError` from
    workers (genuine query errors — serial would raise them too). A
    stale export token recycles the pool (re-fork) and retries once.
    Worker exceptions outside :data:`POOL_FALLBACK_EXCEPTIONS` — e.g. an
    ``AssertionError`` tripped inside a kernel — propagate unchanged.
    """
    backend = DEFAULT_BACKEND
    workers = max(1, config.parallelism)
    for attempt in (0, 1):
        pool = _get_pool(backend, workers)
        try:
            results = list(pool.map(fn, payloads))
        except GCoreError:
            # Genuine query-semantics error: serial would raise it too.
            raise
        except POOL_FALLBACK_EXCEPTIONS:
            # Broken pool, unpicklable payload, sandboxed fork — none of
            # these may surface to the query; recycle and (once) retry,
            # then hand control back to the serial path.
            _recycle_pool(backend, workers)
            if attempt:
                raise _Fallback("pool_error") from None
            continue
        if any(result == _STALE for result in results):
            _recycle_pool(backend, workers)
            if attempt:
                raise _Fallback("stale_export")
            continue
        return results
    raise _Fallback  # pragma: no cover - loop always returns or raises


# ---------------------------------------------------------------------------
# Binding-table wire form (explicit vectors; never instance caches)
# ---------------------------------------------------------------------------

def table_payload(table: BindingTable) -> Tuple[Any, ...]:
    """The picklable wire form of a binding table (columns + vectors)."""
    return (
        tuple(table.columns),
        tuple(table.variables),
        {var: table.column_values(var) for var in table.variables},
        len(table),
    )


def table_from_payload(payload: Tuple[Any, ...]) -> BindingTable:
    columns, variables, data, nrows = payload
    return BindingTable.from_columns(
        columns, list(variables), data, nrows, dedup=False
    )


def merge_tables(
    payloads: List[Tuple[Any, ...]], dedup: bool = True
) -> BindingTable:
    """Concatenate morsel outputs in morsel order, deduplicating rows.

    Morsel-local results are already deduplicated (the columnar
    operators dedup as the serial engine does); the only duplicates left
    are cross-morsel ones, and first-occurrence-wins here matches the
    serial engine's dedup of the concatenated stream exactly. Pass
    ``dedup=False`` when no cross-morsel duplicate can exist.
    """
    # A morsel whose intermediate table empties short-circuits the rest
    # of its atom sequence (run_atom_sequence breaks), so its chunk can
    # carry fewer columns than its siblings — zero rows either way. Take
    # the schema from the fullest payload; every non-empty chunk ran the
    # complete sequence and therefore has exactly that variable set.
    columns, variables, _data, _nrows = max(
        payloads, key=lambda payload: len(payload[1])
    )
    data: Dict[str, List[Any]] = {var: [] for var in variables}
    total = 0
    for payload in payloads:
        _columns, _vars, chunk, nrows = payload
        if nrows == 0:
            continue
        total += nrows
        for var in variables:
            data[var].extend(chunk[var])
    return BindingTable.from_columns(
        columns, list(variables), data, total, dedup=dedup
    )


# ---------------------------------------------------------------------------
# Worker-safety analysis
# ---------------------------------------------------------------------------

def _node_safe(node: Any) -> bool:
    """Conservatively: can *node* (an AST subtree) evaluate in a worker?

    EXISTS subqueries and pattern predicates re-enter full block
    evaluation (plan caches, ON resolution, view registries) — they stay
    on the serial path. Everything else an atom or WHERE carries
    (literals, params, property/label reads, arithmetic, CASE, builtins)
    only needs the shipped graphs and parameters.
    """
    if isinstance(node, (ast.ExistsQuery, ast.ExistsPattern)):
        return False
    if hasattr(node, "__dataclass_fields__"):
        return all(
            _node_safe(getattr(node, field))
            for field in node.__dataclass_fields__
        )
    if isinstance(node, (tuple, list, frozenset)):
        return all(_node_safe(item) for item in node)
    return True


def _atom_safe(atom: Any) -> bool:
    pattern = atom.pattern
    if getattr(atom, "kind", None) == "path":
        if pattern.stored:
            return _node_safe(pattern)
        # Path views need ctx.segments_for (a parent-side materializer).
        if regex_view_names(pattern.regex):
            return False
    return _node_safe(pattern)


# ---------------------------------------------------------------------------
# Worker-side evaluation context
# ---------------------------------------------------------------------------

class _WorkerCatalog:
    """The minimal read surface workers need: the default graph."""

    __slots__ = ("_default",)

    def __init__(self, default_graph: Any) -> None:
        self._default = default_graph

    def default_graph(self) -> Any:
        return self._default


def _worker_context(
    config: ExecutionConfig,
    params: Dict[str, Any],
    graphs: List[Any],
    current_graph: Any,
    default_graph: Any,
):
    from .context import EvalContext  # local import: cycle via match

    ctx = EvalContext(
        _WorkerCatalog(default_graph),
        config=config.with_(parallelism=1),  # workers never re-fan-out
    )
    ctx.params = dict(params)
    ctx.active_graphs = list(graphs)
    ctx.current_graph = current_graph
    return ctx


def _resolve_graph_tokens(tokens: Sequence[Token]) -> Optional[list]:
    graphs = []
    for token in tokens:
        graph = _resolve(token)
        if graph is _MISSING:
            return None
        graphs.append(graph)
    return graphs


def _context_tokens(ctx) -> List[Token]:
    """Export the graphs a worker context needs to answer lookups.

    Ships the current graph (None when the evaluation has none), the
    catalog default (the tail of :meth:`EvalContext._lookup_chain`) and
    every active graph of the evaluation (a MATCH may bind objects from
    several graphs), so worker-side label/property resolution walks the
    same chain as the parent.
    """
    current = ctx.current_graph
    try:
        default = ctx.catalog.default_graph()
    except GCoreError:
        # No default graph registered (or a snapshot without one):
        # workers simply run with no implicit ON target.
        default = None
    return [
        export(current) if current is not None else None,
        export(default) if default is not None else None,
        *(export(g) for g in ctx.active_graphs),
    ]


# ---------------------------------------------------------------------------
# Block tail: remaining atoms + residual WHERE over row morsels
# ---------------------------------------------------------------------------

def _block_tail_worker(payload):
    context_tokens, atom_tokens, table_wire, steps, residual, params, config = (
        payload
    )
    graphs = _resolve_graph_tokens([*context_tokens, *atom_tokens])
    if graphs is None:
        return _STALE
    current, default_graph, *active = graphs[: len(context_tokens)]
    from .expressions import ExpressionEvaluator  # local import: cycle
    from .kernels import ExpressionCompiler
    from .match import finish_block_where, run_atom_sequence

    ctx = _worker_context(config, params, active, current, default_graph)
    ev = ExpressionEvaluator(ctx)
    compiler = ExpressionCompiler(ctx)
    table = table_from_payload(table_wire)
    for step, graph in zip(steps, graphs[len(context_tokens) :]):
        if step.atom.graph is None:  # dropped on the wire (_Atom.__getstate__)
            step.atom.graph = graph
    table = run_atom_sequence(steps, table, ctx, ev, compiler)
    table = finish_block_where(table, residual, ctx, compiler)
    return table_payload(table)


def parallel_block_tail(
    plan, start: int, table: BindingTable, ctx
) -> Optional[BindingTable]:
    """Dispatch the steps of *plan* (a
    :class:`~repro.eval.planner.BlockPlan`) from *start* on, plus its
    residual WHERE, over morsels.

    Returns the merged block-final table, or None when this point is not
    worth (or not safe to) parallelizing — the caller continues serially.
    Exactness: each morsel runs the identical steps over a contiguous row
    range, every atom against its own graph; atoms emit per input row in
    input order, so concatenating morsel outputs in morsel order *is* the
    serial emission order, and the final first-occurrence dedup matches
    the serial engine's (see :func:`merge_tables`).
    """
    config = ctx.config
    if config.serial:
        return None
    if len(table) < MIN_PARALLEL_ROWS:
        return None
    steps = plan.steps[start:]
    if not steps:
        return None
    if not all(_atom_safe(step.atom) for step in steps):
        return None
    # Only total conjuncts are pushed, so EXISTS and pattern predicates
    # all sit in the residual.
    if not _node_safe(plan.residual):
        return None
    context_tokens = _context_tokens(ctx)
    atom_tokens = [export(step.atom.graph) for step in steps]
    shipped_config = config.with_(parallelism=1)
    payloads = [
        (
            context_tokens,
            atom_tokens,
            table_payload(table.select_rows(range(start_row, stop_row))),
            steps,
            plan.residual,
            ctx.params,
            shipped_config,
        )
        for start_row, stop_row in morsel_ranges(
            len(table), config.parallelism
        )
    ]
    try:
        results = _run_tasks(_block_tail_worker, payloads, config)
    except _Fallback as fall:  # pool unusable: serial path re-runs the tail
        record_fallback(f"block_tail.{fall.reason}")
        return None
    # Atoms only bind variables the row leaves ABSENT, so an output row
    # keeps its input row's bound values. Input rows are distinct; when
    # none has an ABSENT cell, no two morsels can emit the same row.
    has_absent = any(
        value is ABSENT
        for var in table.variables
        for value in table.column_values(var)
    )
    return merge_tables(results, dedup=has_absent)
