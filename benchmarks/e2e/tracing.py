"""Phase 2: the traced run — the same ops in process, one span per layer call.

The snapshot the server booted from is opened in this process and every
op of one pass is replayed with spans recorded **from here, around calls
into each layer's public functions**; nothing under ``src/`` is touched
(spans inside the program are a later change). A span is ``name, start,
end, parent, request`` — spans of one op share its request id — kept in
memory and written to ``trace-<workload>.json`` when the run ends.

``engine.run`` is timed whole; the layer split comes from a second
execution that mirrors ``repro.eval.query.evaluate_query`` clause by
clause. ``trace.coverage`` (sum of layer time / run time) says whether
the two executions agree well enough for the split to be trusted. The
traced pass runs ``TRACE_REPLAYS`` times and a span counts with the
shortest of its replays; ``*_ms`` metrics are sums over one pass.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro import GCoreEngine
from repro.config import DEFAULT_CONFIG
from repro.eval.analysis import analyze_match
from repro.eval.construct import evaluate_construct
from repro.eval.context import EvalContext, IdFactory
from repro.eval.match import evaluate_match
from repro.eval.select import evaluate_select
from repro.lang import ast
from repro.model.graph import PathPropertyGraph
from repro.model.setops import graph_difference, graph_intersect, graph_union
from repro.paths.automaton import compile_regex
from repro.paths.product import PathFinder
from repro.server.protocol import delta_from_json, dumps, serialize_result

from .digest import ROW_LIMIT
from .loadgen import Plan, SpeedSample, fresh_engine, sample_speed, speed_factor
from .workloads import (
    GRAPH,
    POINT_FRIENDS,
    REACH,
    TWO_HOP,
    WEIGHTED_VIEW,
    Op,
    QueryClass,
    Workload,
    build_ops,
)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span
    request: int  # the op's position in the pass; -1 outside any op


class SpanRecorder:
    """In-memory span log with a parent stack and summable counters."""

    def __init__(self, speed: Optional[List[SpeedSample]] = None) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.request = -1
        #: machine-speed samples taken while recording (see
        #: loadgen.run_kernel); logs that share the list share the factor
        self.speed: List[SpeedSample] = [] if speed is None else speed
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.request))
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def ms_by_request(self, name: str) -> Dict[int, float]:
        """Duration of the spans called *name*, summed per request, in
        reference ms."""
        factor = speed_factor(self.speed) * 1e3
        totals: Dict[int, float] = {}
        for s in self.spans:
            if s.name == name:
                totals[s.request] = totals.get(s.request, 0.0) + (s.end - s.start) * factor
        return totals

    def total_ms(self, name: str) -> float:
        """Summed duration of the spans called *name*, in reference ms."""
        return sum(self.ms_by_request(name).values())

    def to_json(self, base: int = 0) -> List[Dict[str, Any]]:
        """The spans as dicts; *base* is this log's position in the file
        it is appended to (``parent`` is an index into that file)."""
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": None if s.parent is None else s.parent + base,
             "request": s.request}
            for s in self.spans
        ]


# ---------------------------------------------------------------------------
# The clause-by-clause mirror of repro.eval.query
# ---------------------------------------------------------------------------

_SET_OPS = {
    "union": graph_union,
    "intersect": graph_intersect,
    "minus": graph_difference,
}


def traced_query(query: ast.Query, ctx: EvalContext, rec: SpanRecorder):
    """``evaluate_query`` with a span around each layer's entry point."""
    for head in query.heads:
        if isinstance(head, ast.PathClause):
            ctx.local_path_views[head.name] = head
        else:
            graph = traced_query(head.query, ctx.child(), rec)
            ctx.local_graphs[head.name] = graph.with_name(head.name)
    return _traced_body(query.body, ctx, rec)


def _traced_body(body, ctx: EvalContext, rec: SpanRecorder):
    if isinstance(body, ast.GraphRefQuery):
        return ctx.resolve_graph(body.name)
    if isinstance(body, ast.SetOpQuery):
        left = _traced_body(body.left, ctx, rec)
        right = _traced_body(body.right, ctx, rec)
        with rec.span("model.setops"):
            return _SET_OPS[body.op](left, right)
    if body.match is None:
        raise NotImplementedError("benchmark statements all have a MATCH")
    declared = frozenset(analyze_match(body.match))
    with rec.span("eval.match"):
        omega = evaluate_match(body.match, ctx)
    rec.count("eval.match.rows_out", len(omega))
    if isinstance(body.head, ast.SelectClause):
        with rec.span("eval.select"):
            return evaluate_select(body.head, omega, ctx)
    with rec.span("eval.construct"):
        graph = evaluate_construct(body.head, omega, ctx, declared)
    rec.count("eval.construct.objects_out",
              len(graph.nodes) + len(graph.edges) + len(graph.paths))
    return graph


# ---------------------------------------------------------------------------
# Replaying the path searches behind the path classes
# ---------------------------------------------------------------------------

def _persons(graph: PathPropertyGraph, **names: str) -> List[str]:
    return sorted(
        n for n in graph.nodes
        if graph.has_label(n, "Person")
        and all(value in graph.property(n, key) for key, value in names.items())
    )


def _labelled(graph: PathPropertyGraph, label: str) -> List[str]:
    return sorted(n for n in graph.nodes if graph.has_label(n, label))


def _source(graph, p) -> List[str]:
    return _persons(graph, firstName=p["first"], lastName=p["last"])


def _replay_reach(finder, graph, p) -> int:
    return sum(map(len, finder.reachable_multi(_source(graph, p)).values()))


def _replay_shortest(finder, graph, p) -> int:
    return sum(map(len, finder.shortest_multi(_source(graph, p)).values()))


def _replay_k3(finder, graph, p) -> int:
    targets = _persons(graph, firstName=p["first2"])
    return sum(len(finder.k_shortest(s, t, 3))
               for s in _source(graph, p) for t in targets)


def _replay_all(finder, graph, p) -> int:
    targets = _persons(graph, firstName=p["first2"], lastName=p["last2"])
    return sum(bool(finder.all_paths_projection(s, t)[0])
               for s in _source(graph, p) for t in targets)


def _replay_reach_msgs(finder, graph, p) -> int:
    sources = _labelled(graph, "Comment")
    return sum(map(len, finder.reachable_multi(sources).values()))


#: class -> the PathFinder calls its PathAtom makes, replayed on the same
#: sources (``weighted_view`` is left out: its finder needs the
#: materialized view segments, which only the evaluator builds)
PATH_REPLAYS: Dict[str, Callable[[PathFinder, Any, Dict[str, Any]], int]] = {
    "reach": _replay_reach,
    "shortest_cost": _replay_shortest,
    "k3_stored": _replay_k3,
    "all_paths": _replay_all,
    "reach_msgs": _replay_reach_msgs,
}


def _path_regex(statement: ast.Query) -> ast.RegexExpr:
    for location in statement.body.match.block.patterns:
        for element in location.chain.elements:
            if isinstance(element, ast.PathPatternElem):
                return element.regex
    raise ValueError("statement has no path pattern")


# ---------------------------------------------------------------------------
# One traced workload
# ---------------------------------------------------------------------------

def _trace_read(engine: GCoreEngine, op: Op, rec: SpanRecorder) -> None:
    text, params = op.body["query"], op.body["params"]
    with rec.span("engine.run"):
        result = engine.run(text, params)
    with rec.span("server.protocol.encode"):
        rec.count("server.protocol.bytes_out",
                  len(dumps(serialize_result(result, ROW_LIMIT))))

    prepared = engine.prepare(text)
    ctx = EvalContext(engine.catalog, IdFactory(), config=DEFAULT_CONFIG)
    ctx.params = dict(params)
    ctx.plan_cache = prepared.plans
    with rec.span("trace.layers"):
        traced_query(prepared.statement, ctx, rec)

    replay = PATH_REPLAYS.get(op.cls)
    if replay is not None:
        graph = engine.graph(GRAPH)
        finder = PathFinder(graph, compile_regex(_path_regex(prepared.statement)))
        with rec.span("paths.search"):
            rec.count("paths.walks_out", replay(finder, graph, params))


def _trace_cold_statement(engine: GCoreEngine, op: Op, rec: SpanRecorder) -> None:
    """What a statement costs when the prepared cache has lost it."""
    text = op.body["query"]
    with rec.span("lang.parse"):
        engine.parse(text)
    with rec.span("engine.prepare_cold"):
        engine.clear_plan_cache()
        engine.prepare(text)
    with rec.span("eval.planner.explain"):
        engine.explain(text)


def _run_pass(engine: GCoreEngine, ops: Sequence[Op], rec: SpanRecorder,
              traced: bool) -> None:
    for index, op in enumerate(ops):
        rec.request = index
        sample_speed(rec.speed)
        if op.route == "/update":
            delta = delta_from_json(op.body["ops"])
            with rec.span("catalog.apply_update"):
                engine.apply_update(op.body["graph"], delta)
        elif traced:
            _trace_read(engine, op, rec)
        else:
            with rec.span("engine.run"):
                engine.run(op.body["query"], op.body["params"])
    rec.request = -1


#: The traced pass is replayed this often and a span counts with the
#: shortest of its replays: one replay of an allocation-heavy op in three
#: or four catches a collection (+50-100 %), and a single one in
#: model.setops moved trace.coverage on construct_mix from 1.0 to 1.25.
TRACE_REPLAYS = 2


def _best_ms(replays: Sequence[SpanRecorder], name: str) -> float:
    """Sum over the requests of the shortest replay of the *name* spans."""
    by_request = [rec.ms_by_request(name) for rec in replays]
    return sum(min(ms[request] for ms in by_request) for request in by_request[0])


def trace_workload(plan: Plan, scratch_dir: Path) -> Dict[str, Any]:
    """Per-layer metrics of one pass of *plan*, plus the raw spans."""
    # One speed factor for all passes: their differences (first touch)
    # are then differences of what was measured, not of factors.
    cold = SpanRecorder()
    warm, statements = SpanRecorder(cold.speed), SpanRecorder(cold.speed)
    replays = [SpanRecorder(cold.speed) for _ in range(TRACE_REPLAYS)]
    sample_speed(cold.speed)
    with cold.span("storage.open"):
        engine = GCoreEngine.open(str(plan.snapshot))
    objects = sum(
        len(engine.graph(name).nodes) + len(engine.graph(name).edges)
        for name in engine.catalog.graph_names()
    )
    saved = scratch_dir / f"save-{os.getpid()}.gsnap"
    try:
        with cold.span("storage.save"):
            engine.save(str(saved))
    finally:
        saved.unlink(missing_ok=True)

    _run_pass(engine, plan.ops, cold, traced=False)  # pays every first touch
    _run_pass(engine, plan.ops, warm, traced=False)
    for rec in replays:
        _run_pass(engine, plan.ops, rec, traced=True)
    # Cold-statement costs go last: measuring them empties the prepared cache.
    for index, op in enumerate(plan.ops):
        if op.route == "/query":
            statements.request = index
            _trace_cold_statement(engine, op, statements)

    run_ms = _best_ms(replays, "engine.run")
    layer_names = ("eval.match", "eval.select", "eval.construct", "model.setops")
    layer_ms = {name: _best_ms(replays, name) for name in layer_names}
    counts = replays[0].counts  # the same in every replay
    first_updates = [s for s in cold.spans if s.name == "catalog.apply_update"]
    metrics = {
        "lang.parse_ms": statements.total_ms("lang.parse"),
        "engine.prepare_cold_ms": statements.total_ms("engine.prepare_cold"),
        "eval.planner.explain_ms": statements.total_ms("eval.planner.explain"),
        "engine.run_ms": run_ms,
        "engine.other_ms": run_ms - sum(layer_ms.values()),
        "trace.coverage": sum(layer_ms.values()) / run_ms if run_ms else 0.0,
        "eval.match.ms": layer_ms["eval.match"],
        "eval.match.rows_out": counts.get("eval.match.rows_out", 0.0),
        "paths.search_ms": _best_ms(replays, "paths.search"),
        "paths.walks_out": counts.get("paths.walks_out", 0.0),
        "eval.select.ms": layer_ms["eval.select"],
        "eval.construct.ms": layer_ms["eval.construct"],
        "eval.construct.objects_out":
            counts.get("eval.construct.objects_out", 0.0),
        "model.setops.ms": layer_ms["model.setops"],
        "server.protocol.encode_ms": _best_ms(replays, "server.protocol.encode"),
        "server.protocol.bytes_out":
            counts.get("server.protocol.bytes_out", 0.0),
        "catalog.apply_update_ms": _best_ms(replays, "catalog.apply_update"),
        "catalog.first_update_ms":
            (first_updates[0].end - first_updates[0].start) * 1e3
            * speed_factor(cold.speed) if first_updates else 0.0,
        "storage.open_ms": cold.total_ms("storage.open"),
        "storage.first_touch_ms":
            cold.total_ms("engine.run") - warm.total_ms("engine.run"),
        "storage.save_ms": cold.total_ms("storage.save"),
        "storage.bytes_per_object": plan.snapshot.stat().st_size / objects,
    }
    spans: List[Dict[str, Any]] = []
    for recorder in (cold, warm, *replays, statements):
        spans.extend(recorder.to_json(base=len(spans)))
    return {"metrics": metrics, "spans": spans}


# ---------------------------------------------------------------------------
# Scaling exponents
# ---------------------------------------------------------------------------

SCALING_CLASSES = (POINT_FRIENDS, TWO_HOP, REACH, WEIGHTED_VIEW)
SCALING_REPEATS = 3


def _typical_ms(engine: GCoreEngine, cls: QueryClass, params) -> float:
    engine.run(cls.text, params)  # plan, lazy indexes
    samples = []
    for _ in range(SCALING_REPEATS):
        speed: List[SpeedSample] = []
        sample_speed(speed)
        started = time.perf_counter()
        engine.run(cls.text, params)
        elapsed_ms = (time.perf_counter() - started) * 1e3
        sample_speed(speed, after_ms=elapsed_ms)
        samples.append(elapsed_ms * speed_factor(speed))
    return statistics.median(samples)


def scaling_exponents(workload: Workload, seed: int,
                      small: int, large: int) -> Dict[str, float]:
    """log2(t(large) / t(small)) for ``large = 2 * small``, for each of
    SCALING_CLASSES that *workload* has.

    Above 1.5 flags a superlinear class: it decides how far its
    workload's scale can be raised before one op outgrows a round.
    """
    classes = [cls for cls in SCALING_CLASSES if cls in workload.classes]
    times: Dict[int, Dict[str, float]] = {small: {}, large: {}}
    for scale in times if classes else ():
        engine = fresh_engine(scale)
        ops = build_ops(workload, engine.graph(GRAPH), seed)
        for cls in classes:
            op = next(o for o in ops if o.cls == cls.name)
            times[scale][cls.name] = _typical_ms(engine, cls, op.body["params"])
    return {
        f"scaling_exp.{cls.name}":
            math.log2(times[large][cls.name] / times[small][cls.name])
        for cls in classes
    }
