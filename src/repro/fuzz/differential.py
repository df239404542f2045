"""Differential execution: the engine against the oracle.

One statement is executed once on the engine and its outcome is
compared, structurally, against the **oracle**: the definitional
evaluator of :mod:`repro.fuzz.oracle` (what
:data:`~repro.config.NAIVE_CONFIG` names in :func:`run_case`) run in
strict-analysis mode. Anything the two disagree about is a
counterexample:

* different rows, row order, or column headers of a SELECT table;
* a different constructed graph (node/edge/path sets, labels,
  properties — compared through
  :func:`repro.model.io.graph_to_dict`, valid because skolemized ids
  are deterministic across runs of the same statement text);
* a different error *code*, or an error on one side only;
* any non-:class:`~repro.errors.GCoreError` exception ("crash");
* the **error-parity lane**: when the analyzer reports only
  unknown-name diagnostics (GC101/GC102/GC105), every execution must
  raise the matching structured error — an execution that succeeds, or
  fails with a different code, contradicts the static analyzer.

The engine under test is shared across all runs of a session: the
prepared-query cache, catalog and id generator are part of the surface
being fuzzed (a divergence that only appears on a warm cache is still a
divergence).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..config import DEFAULT_CONFIG, NAIVE_CONFIG
from ..datasets.paper import (
    company_graph,
    figure2_graph,
    orders_table,
    social_graph,
)
from ..engine import GCoreEngine
from ..errors import GCoreError
from ..lang import ast
from ..eval.query import ViewResult
from ..model.graph import PathPropertyGraph
from ..model.io import graph_to_dict
from ..table import Table
from . import oracle
from .corpus import Counterexample, encode_value
from .generate import GeneratedCase

__all__ = [
    "DifferentialTester",
    "Outcome",
    "TablePolicy",
    "build_engine",
    "diff_outcomes",
    "rows_sorted",
    "table_policy",
    "replay_counterexample",
    "run_case",
]

#: Analyzer codes whose runtime twins the error-parity lane checks.
_PARITY_CODES = frozenset({"GC101", "GC102", "GC105"})


def build_engine() -> GCoreEngine:
    """The standard fuzzing catalog: paper graphs, a table, a path view."""
    engine = GCoreEngine()
    engine.register_graph("social_graph", social_graph(), default=True)
    engine.register_graph("figure2", figure2_graph())
    engine.register_graph("company", company_graph())
    engine.register_table("orders", orders_table())
    engine.register_path_view("PATH wKnows = (x)-[e:knows]->(y) COST 1")
    return engine


@dataclass(frozen=True)
class Outcome:
    """The encoded result of one statement on the engine or the oracle."""

    kind: str  # table | graph | view | error | crash
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {"kind": self.kind, **self.payload}


_FRESH_ID = re.compile(r"^_([a-z]+)(\d+)$")


def _canonical_graph(data: Dict[str, Any]) -> Dict[str, Any]:
    """Rename engine-fresh ids so graphs compare across runs and plans.

    Ungrouped CONSTRUCT variables draw ids from the engine's shared
    atomic counter (``IdFactory.fresh`` → ``_n17``), so the *same*
    statement allocates different raw ids on every execution, in an
    order that follows binding enumeration — which differs between the
    cost plan and the syntax-order oracle. A fresh id is therefore
    replaced by a structural signature that no enumeration order can
    move: its labels and properties, refined twice through what it
    touches (a node by its incident edges and their far ends, an edge
    by its endpoints, a path by its sequence). Entries are then sorted,
    so structurally identical fresh objects compare as a multiset.
    Base-graph ids pass through untouched.
    """
    entries = [e for s in ("nodes", "edges", "paths") for e in data[s]]
    signature: Dict[Any, str] = {}
    for entry in entries:
        fresh = _FRESH_ID.match(str(entry["id"]))
        if fresh:
            signature[entry["id"]] = _digest(
                fresh.group(1), entry.get("labels"), entry.get("properties")
            )
    if not signature:
        return data

    def name(object_id: Any) -> Any:
        return signature.get(object_id, object_id)

    for _ in range(2):
        incident: Dict[Any, List[str]] = {}
        for edge in data["edges"]:
            for here, there, side in (
                (edge["source"], edge["target"], "out"),
                (edge["target"], edge["source"], "in"),
            ):
                incident.setdefault(here, []).append(
                    _digest(side, name(edge["id"]), name(there))
                )
        signature = {
            entry["id"]: _digest(
                signature[entry["id"]],
                sorted(incident.get(entry["id"], ())),
                name(entry.get("source")),
                name(entry.get("target")),
                [name(obj) for obj in entry.get("sequence", ())],
            )
            for entry in entries
            if entry["id"] in signature
        }

    def renamed(entry: Dict[str, Any]) -> Dict[str, Any]:
        out = dict(entry, id=name(entry["id"]))
        for end in ("source", "target"):
            if end in entry:
                out[end] = name(entry[end])
        if "sequence" in entry:
            out["sequence"] = [name(obj) for obj in entry["sequence"]]
        return out

    out = dict(data)
    for section in ("nodes", "edges", "paths"):
        out[section] = sorted(
            (renamed(entry) for entry in data[section]),
            key=lambda entry: json.dumps(entry, sort_keys=True, default=str),
        )
    return out


def _digest(*parts: Any) -> str:
    blob = json.dumps(parts, sort_keys=True, default=str)
    return "_#" + hashlib.sha1(blob.encode("utf-8")).hexdigest()[:16]


def _encode_result(result: Any) -> Outcome:
    if isinstance(result, Table):
        return Outcome(
            "table",
            {
                "columns": list(result.columns),
                "rows": [
                    [encode_value(cell) for cell in row]
                    for row in result.rows
                ],
            },
        )
    if isinstance(result, ViewResult):
        return Outcome(
            "view",
            {"name": result.name, "graph": _canonical_graph(graph_to_dict(result.graph))},
        )
    if isinstance(result, PathPropertyGraph):
        return Outcome("graph", {"graph": _canonical_graph(graph_to_dict(result))})
    return Outcome("crash", {"error": f"unexpected result {type(result).__name__}"})


def run_case(
    engine: GCoreEngine,
    text: str,
    params: Optional[Dict[str, Any]] = None,
    config: str = DEFAULT_CONFIG,
    strict: bool = False,
) -> Outcome:
    """Execute one statement on the engine — or, for
    :data:`~repro.config.NAIVE_CONFIG`, on the oracle; never raises."""
    try:
        if config == NAIVE_CONFIG:
            result = oracle.run(engine, text, params, strict=strict)
        else:
            result = engine.run(text, params=params, strict=strict)
    except GCoreError as exc:
        diagnostic = None
        to_diag = getattr(exc, "to_diagnostic", None)
        if callable(to_diag):
            diagnostic = to_diag().code
        return Outcome(
            "error", {"code": exc.code, "diagnostic": diagnostic}
        )
    except Exception as exc:  # noqa: BLE001 - crashes are a finding, not a bug here
        return Outcome(
            "crash",
            {"error": type(exc).__name__, "message": str(exc)[:300]},
        )
    return _encode_result(result)


def _row_key(row: List[Any]) -> str:
    return json.dumps(row, sort_keys=True)


@dataclass(frozen=True)
class TablePolicy:
    """How strictly two table outcomes are compared.

    Row *order* without ORDER BY — and row *content* under LIMIT/OFFSET
    without a total ORDER BY — follow the binding-enumeration order,
    which the planner and the oracle choose differently. The policy
    encodes what the statement actually pins: full multisets by default,
    only the cardinality when LIMIT/OFFSET may cut an unpinned order,
    and per-side sortedness for ORDER BY keys that are projected
    columns (``order_spec`` maps key → (column index, ascending)).
    """

    count_only: bool = False
    order_spec: Tuple[Tuple[int, bool], ...] = ()


def table_policy(statement: ast.Statement) -> TablePolicy:
    """Derive the comparison policy from the statement's SELECT head."""
    if not isinstance(statement, ast.Query):
        return TablePolicy()
    body = statement.body
    if not isinstance(body, ast.BasicQuery) or not isinstance(
        body.head, ast.SelectClause
    ):
        return TablePolicy()
    head = body.head
    count_only = head.limit is not None or bool(head.offset)
    spec: List[Tuple[int, bool]] = []
    for expr, ascending in head.order_by:
        index = None
        for position, item in enumerate(head.items):
            if item.expr == expr or (
                isinstance(expr, ast.Var) and expr.name == item.alias
            ):
                index = position
                break
        if index is None:
            # A key that is not a projected column: sortedness is not
            # checkable from the encoded rows alone.
            spec = []
            break
        spec.append((index, ascending))
    return TablePolicy(count_only=count_only, order_spec=tuple(spec))


def _cell_token(cell: Any) -> Optional[Tuple[str, str]]:
    """Mirror ``eval.select._sort_token`` on an *encoded* cell.

    Returns None for cells whose engine-side token is not recoverable
    from the encoding (value sets: the engine stringifies the raw
    frozenset, whose member order is unknowable here).
    """
    if isinstance(cell, dict):
        if "$bool" in cell:
            return ("bool", str(bool(cell["$bool"])))
        if "$date" in cell:
            return ("Date", cell["$date"])
        return None
    if cell is None:
        return ("NoneType", "None")
    return (type(cell).__name__, str(cell))


def rows_sorted(
    rows: List[List[Any]], order_spec: Tuple[Tuple[int, bool], ...]
) -> bool:
    """True when *rows* respects the ORDER BY key columns (ties free)."""
    for previous, current in zip(rows, rows[1:]):
        for index, ascending in order_spec:
            left = _cell_token(previous[index])
            right = _cell_token(current[index])
            if left is None or right is None:
                break  # unorderable cell: give this pair up, not the run
            if left == right:
                continue
            if (left < right) != ascending:
                return False
            break
    return True


def diff_outcomes(
    expected: Outcome,
    actual: Outcome,
    policy: Optional[TablePolicy] = None,
) -> Optional[str]:
    """The divergence class between two outcomes, or None if equal."""
    if actual.kind == "crash" or expected.kind == "crash":
        return None if expected.to_json() == actual.to_json() else "crash"
    if expected.kind != actual.kind:
        return "error" if "error" in (expected.kind, actual.kind) else "kind"
    if expected.kind == "error":
        if expected.payload.get("code") != actual.payload.get("code"):
            return "error"
        return None
    if expected.kind == "table":
        policy = policy or TablePolicy()
        if expected.payload["columns"] != actual.payload["columns"]:
            return "columns"
        left = expected.payload["rows"]
        right = actual.payload["rows"]
        if policy.order_spec and not rows_sorted(right, policy.order_spec):
            return "order"
        if policy.count_only:
            return "rows" if len(left) != len(right) else None
        if sorted(map(_row_key, left)) != sorted(map(_row_key, right)):
            return "rows"
        return None
    # graph / view: structural equality of the canonical dict form
    if expected.payload != actual.payload:
        return "graph"
    return None


class DifferentialTester:
    """Runs statements on the engine and the oracle, reports divergences."""

    def __init__(self, engine: Optional[GCoreEngine] = None) -> None:
        self.engine = engine if engine is not None else build_engine()
        self.stats: Dict[str, int] = {
            "analyzed": 0,
            "skipped": 0,
            "executed": 0,
            "parity_checked": 0,
            "divergences": 0,
        }

    # ------------------------------------------------------------------
    def check_case(self, case: GeneratedCase) -> Optional[Counterexample]:
        return self.check_text(case.text, case.params, case.seed)

    def check_text(
        self,
        text: str,
        params: Optional[Dict[str, Any]] = None,
        seed: int = -1,
    ) -> Optional[Counterexample]:
        """Differentially execute one statement; None means no divergence."""
        params = params or {}
        self.stats["analyzed"] += 1
        analysis = self.engine.analyze(text)
        error_codes = sorted({d.code for d in analysis.errors})
        if error_codes:
            if not set(error_codes) <= _PARITY_CODES:
                # Outside the fuzzer's surface: the generate-time filter
                # would have discarded this statement.
                self.stats["skipped"] += 1
                return None
            return self._check_error_parity(text, params, seed, error_codes)
        self.stats["executed"] += 1
        try:
            policy = table_policy(self.engine.parse(text))
        except GCoreError:
            policy = TablePolicy()
        expected = run_case(self.engine, text, params, NAIVE_CONFIG, strict=True)
        if expected.kind == "crash":
            return self._report(
                seed, text, params, "oracle", Outcome("no-crash"), expected, "crash"
            )
        if expected.kind == "error" and expected.payload.get("code") == (
            "analysis_error"
        ):
            # The analyzer passed the statement above but strict mode
            # rejected it here: analyzer/runtime disagreement.
            return self._report(
                seed, text, params, "oracle", Outcome("analyzer-clean"), expected, "error"
            )
        if (
            expected.kind == "table"
            and policy.order_spec
            and not rows_sorted(expected.payload["rows"], policy.order_spec)
        ):
            return self._report(
                seed, text, params, "oracle", Outcome("sorted"), expected, "order"
            )
        actual = run_case(self.engine, text, params)
        kind = diff_outcomes(expected, actual, policy)
        if kind is not None:
            return self._report(seed, text, params, "engine", expected, actual, kind)
        return None

    # ------------------------------------------------------------------
    def _check_error_parity(
        self,
        text: str,
        params: Dict[str, Any],
        seed: int,
        codes: List[str],
    ) -> Optional[Counterexample]:
        """Unknown-name diagnostics must match the runtime error, on the
        oracle and on the engine."""
        self.stats["parity_checked"] += 1
        expected = Outcome("error", {"analyzer_codes": codes})
        for label, config in (("oracle", NAIVE_CONFIG), ("engine", DEFAULT_CONFIG)):
            actual = run_case(self.engine, text, params, config)
            ok = (
                actual.kind == "error"
                and actual.payload.get("diagnostic") in codes
            )
            if not ok:
                return self._report(
                    seed, text, params, label, expected, actual, "error-parity"
                )
        return None

    def _report(
        self,
        seed: int,
        text: str,
        params: Dict[str, Any],
        label: str,
        expected: Outcome,
        actual: Outcome,
        kind: str,
    ) -> Counterexample:
        """*label* names where *actual* came from (oracle or engine)."""
        self.stats["divergences"] += 1
        return Counterexample(
            seed=seed,
            query=text,
            params=dict(params),
            expected={"config": "oracle", "outcome": expected.to_json()},
            actual={"config": label, "outcome": actual.to_json()},
            kind=kind,
        )


def replay_counterexample(
    counterexample: Counterexample,
    engine: Optional[GCoreEngine] = None,
) -> Optional[Counterexample]:
    """Re-run a corpus entry on the standard engine.

    Returns None when the divergence no longer reproduces (the committed
    state of the corpus: every entry records a *fixed* bug) and the
    fresh counterexample when it still does.
    """
    return DifferentialTester(engine).check_text(
        counterexample.query,
        counterexample.decoded_params(),
        counterexample.seed,
    )
