"""The correctness gate: id-insensitive digests of wire payloads.

Every response is reduced to a short digest that ignores object
identifiers (fresh ``_n17`` ids and skolem ids differ between
processes) but pins everything a client can rely on: a table's columns
and multiset of rows; a graph's node/edge/path counts and the sorted
multiset of ``(labels, properties)`` of each; an update's applied-op and
object counts.

Expected digests come from replaying the same op sequence **in process
on the freshly generated dict-backed graph** — a different store than
the flat snapshot the server boots from. Seed 42's are also committed
under ``golden/`` so that a semantic drift of the engine itself (both
stores wrong in the same way) still fails.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.server.protocol import delta_from_json, dumps, serialize_result

from .workloads import Op

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_SEED = 42
ROW_LIMIT = 10_000  # ServerConfig.default_row_limit


def _canon(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest_payload(payload: Dict[str, Any]) -> str:
    """Digest one decoded /query or /update response body."""
    if "error" in payload:
        shape: Any = ["error", payload["error"].get("code")]
    elif payload.get("kind") == "table":
        shape = ["table", payload["columns"], payload["row_count"],
                 sorted(_canon(row) for row in payload["rows"])]
    elif payload.get("kind") == "graph":
        graph = payload["graph"]
        shape = ["graph"]
        for section in ("nodes", "edges", "paths"):
            entries = graph[section]
            shape.append(len(entries))
            shape.append(sorted(
                _canon([entry.get("labels"), entry.get("properties"),
                        len(entry.get("sequence", ()))])
                for entry in entries
            ))
    else:  # /update
        shape = ["update", payload["applied_ops"], payload["node_count"],
                 payload["edge_count"]]
    return hashlib.sha256(_canon(shape).encode("utf-8")).hexdigest()[:16]


def run_in_process(engine, op: Op) -> Dict[str, Any]:
    """Execute *op* on *engine* and return the payload a server would send."""
    if op.route == "/update":
        delta = delta_from_json(op.body["ops"])
        graph = engine.apply_update(op.body["graph"], delta)
        return {"applied_ops": len(delta), "node_count": len(graph.nodes),
                "edge_count": len(graph.edges)}
    result = engine.run(op.body["query"], op.body["params"])
    # Round-trip through the wire encoding so sets, dates and tuples
    # normalize exactly as they do for a real response.
    return json.loads(dumps(serialize_result(result, ROW_LIMIT)))


def compute_expected(engine, ops: Sequence[Op]) -> List[str]:
    """Digest of every op of one pass, replayed in order on *engine*."""
    return [digest_payload(run_in_process(engine, op)) for op in ops]


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str, ops_fingerprint: str) -> Optional[List[str]]:
    """Seed 42's committed digests, or None when absent or out of date."""
    path = golden_path(workload)
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    if data.get("ops_sha256") != ops_fingerprint:
        return None
    return list(data["digests"])


def save_golden(workload: str, ops_fingerprint: str, ops: Sequence[Op],
                digests: Sequence[str]) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    golden_path(workload).write_text(json.dumps({
        "seed": GOLDEN_SEED,
        "ops_sha256": ops_fingerprint,
        "classes": [op.cls for op in ops],
        "digests": list(digests),
    }, indent=1) + "\n")
