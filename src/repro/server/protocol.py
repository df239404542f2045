"""The wire protocol: JSON envelopes, result encoding, the delta format.

Everything the HTTP server puts on (or accepts from) the wire is defined
here, so ``docs/http-api.md`` has a single module to stay in sync with:

* **error envelopes** — every failure is
  ``{"error": {"code", "message", "status"}}``; the ``code`` values come
  from the :class:`~repro.errors.GCoreError` hierarchy (each class
  carries a stable ``code``/``http_status``) plus the server-level
  :class:`ApiError` codes (``bad_request``, ``overloaded``, ``timeout``,
  ``not_found``, ``payload_too_large``);
* **result encoding** — SELECT tables become
  ``{"kind": "table", "columns", "rows", "row_count", "truncated"}``
  with cells encoded like the graph JSON format (:mod:`repro.model.io`:
  dates as ``{"$date": "YYYY-MM-DD"}``, multi-valued properties as
  sorted lists); CONSTRUCT graphs become ``{"kind": "graph", ...}``
  embedding :func:`~repro.model.io.graph_to_dict`'s JSON, which
  :func:`~repro.model.io.encode_graph` splices from per-object fragments
  cached on each catalog graph (the same bytes, encoded once per epoch);
* **the delta format** — ``POST /update`` carries a JSON array of
  operations mirroring the :class:`~repro.model.delta.GraphDelta`
  builder API (``{"op": "add_node", "id": ..., "labels": [...],
  "properties": {...}}`` and friends), decoded by :func:`delta_from_json`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from ..errors import GCoreError
from ..model.graph import PathPropertyGraph
from ..model.io import encode_graph
from ..model.values import Date, is_scalar
from ..model.delta import GraphDelta
from ..table import Table

__all__ = [
    "ApiError",
    "BadRequest",
    "MethodNotAllowed",
    "NotFound",
    "OverloadedError",
    "PayloadTooLarge",
    "RequestTimeout",
    "decode_params",
    "delta_from_json",
    "dumps",
    "encode_chunks",
    "error_envelope",
    "serialize_result",
]


# ---------------------------------------------------------------------------
# Server-level errors (transport/admission failures, not query errors)
# ---------------------------------------------------------------------------

class ApiError(Exception):
    """A server-level failure with a stable wire code and HTTP status."""

    code = "internal_error"
    http_status = 500

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message


class BadRequest(ApiError):
    """Malformed request: invalid JSON, missing/mistyped fields."""

    code = "bad_request"
    http_status = 400


class NotFound(ApiError):
    """Unknown route or unknown prepared-statement handle."""

    code = "not_found"
    http_status = 404


class MethodNotAllowed(ApiError):
    """The route exists but not for this HTTP method."""

    code = "method_not_allowed"
    http_status = 405


class OverloadedError(ApiError):
    """Admission control shed this request (in-flight + queue full)."""

    code = "overloaded"
    http_status = 503


class RequestTimeout(ApiError):
    """The per-request timeout expired before the query finished."""

    code = "timeout"
    http_status = 408


class PayloadTooLarge(ApiError):
    """The request body exceeded the configured size limit."""

    code = "payload_too_large"
    http_status = 413


def error_envelope(error: Exception) -> Tuple[int, Dict[str, Any]]:
    """Map any exception to ``(http_status, envelope_dict)``.

    :class:`~repro.errors.GCoreError` and :class:`ApiError` instances
    carry their own stable code and status; anything else is a 500
    ``internal_error`` (the message is included — this is a debugging
    server, not a hardened public endpoint).
    """
    if isinstance(error, (GCoreError, ApiError)):
        status = error.http_status
        code = error.code
    else:
        status = 500
        code = "internal_error"
    return status, {
        "error": {"code": code, "message": str(error), "status": status}
    }


# ---------------------------------------------------------------------------
# Value encoding (mirrors repro.model.io)
# ---------------------------------------------------------------------------

def _encode_value(value: Any) -> Any:
    if isinstance(value, Date):
        return {"$date": str(value)}
    if isinstance(value, (frozenset, set)):
        return sorted(
            (_encode_value(v) for v in value),
            key=lambda v: (str(type(v)), str(v)),
        )
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)  # walks, bindings: debug-printable, not round-trippable


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {"$date"}:
            text = value["$date"]
            if not isinstance(text, str):
                raise BadRequest(f"'$date' must be a string, got {text!r}")
            try:
                return Date.parse(text)
            except ValueError as exc:
                raise BadRequest(str(exc)) from None
        raise BadRequest(f"unrecognized value encoding: {value!r}")
    if isinstance(value, list):
        items = [_decode_value(v) for v in value]
        if not all(map(is_scalar, items)):
            raise BadRequest(f'list items must be scalars or {{"$date": ...}}: {value!r}')
        return items
    return value


def decode_params(raw: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """Decode the ``params`` object of /query and /execute bodies."""
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise BadRequest("'params' must be a JSON object")
    return {name: _decode_value(value) for name, value in raw.items()}


# ---------------------------------------------------------------------------
# Result encoding
# ---------------------------------------------------------------------------

def serialize_result(result: Any, row_limit: Optional[int]) -> Dict[str, Any]:
    """Encode a query result for the wire, honoring the row limit.

    Tables are truncated to *row_limit* rows with ``"truncated": true``
    flagging the cut (``row_count`` still reports the full size). Graphs
    are returned whole — a CONSTRUCT's graph is one value, not a row
    stream — with node/edge/path counts alongside; ``"graph"`` holds its
    :func:`~repro.model.io.encode_graph` bytes, spliced in by :func:`dumps`.
    """
    if isinstance(result, Table):
        rows = result.rows
        truncated = row_limit is not None and len(rows) > row_limit
        if truncated:
            rows = rows[:row_limit]
        return {
            "kind": "table",
            "columns": list(result.columns),
            "rows": [[_encode_value(cell) for cell in row] for row in rows],
            "row_count": len(result.rows),
            "truncated": truncated,
        }
    if isinstance(result, PathPropertyGraph):
        return {
            "kind": "graph",
            "graph": encode_graph(result),
            "node_count": len(result.nodes),
            "edge_count": len(result.edges),
            "path_count": len(result.paths),
            "truncated": False,
        }
    raise BadRequest(f"result type {type(result).__name__} is not servable")


# ---------------------------------------------------------------------------
# The delta wire format
# ---------------------------------------------------------------------------

#: The typed update-op fields: the JSON types each accepts (never a
#: boolean, which Python counts as an int), and how to say so.
_FIELD_TYPES: Dict[str, Tuple[Any, str]] = {
    "id": ((str, int), "a string or integer"),
    "source": ((str, int), "a string or integer"),
    "target": ((str, int), "a string or integer"),
    "label": (str, "a string"),
    "key": (str, "a string"),
}


def _field(op: Dict[str, Any], name: str, index: int) -> Any:
    try:
        value = op[name]
    except KeyError:
        raise BadRequest(
            f"update op #{index} ({op.get('op', '?')}) is missing "
            f"field {name!r}"
        ) from None
    if name in _FIELD_TYPES:
        types, expected = _FIELD_TYPES[name]
        if isinstance(value, bool) or not isinstance(value, types):
            raise BadRequest(
                f"update op #{index} ({op['op']}): {name!r} must be "
                f"{expected}, got {value!r}"
            )
    return value


def _labels(op: Dict[str, Any], index: int) -> List[str]:
    raw = op.get("labels")
    if raw is None:
        return []
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        raise BadRequest(
            f"update op #{index} ({op['op']}): 'labels' must be an array "
            f"of strings, got {raw!r}"
        )
    return raw


def _decode_properties(raw: Any, index: int) -> Dict[str, Any]:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise BadRequest(f"update op #{index}: 'properties' must be an object")
    return {key: _decode_value(value) for key, value in raw.items()}


def delta_from_json(ops: Any) -> GraphDelta:
    """Decode the ``ops`` array of a ``POST /update`` body to a delta.

    Each element names one :class:`~repro.model.delta.GraphDelta` builder
    call; unknown or malformed operations raise :class:`BadRequest`
    before anything touches the graph (deltas are all-or-nothing).
    """
    if not isinstance(ops, list) or not ops:
        raise BadRequest("'ops' must be a non-empty JSON array")
    delta = GraphDelta()
    for index, op in enumerate(ops):
        if not isinstance(op, dict):
            raise BadRequest(f"update op #{index} must be a JSON object")
        kind = op.get("op")
        if kind == "add_node":
            delta.add_node(
                _field(op, "id", index),
                labels=_labels(op, index),
                properties=_decode_properties(op.get("properties"), index),
            )
        elif kind == "remove_node":
            delta.remove_node(_field(op, "id", index))
        elif kind == "add_edge":
            delta.add_edge(
                _field(op, "id", index),
                _field(op, "source", index),
                _field(op, "target", index),
                labels=_labels(op, index),
                properties=_decode_properties(op.get("properties"), index),
            )
        elif kind == "remove_edge":
            delta.remove_edge(_field(op, "id", index))
        elif kind == "add_label":
            delta.add_label(_field(op, "id", index), _field(op, "label", index))
        elif kind == "remove_label":
            delta.remove_label(
                _field(op, "id", index), _field(op, "label", index)
            )
        elif kind == "set_property":
            delta.set_property(
                _field(op, "id", index),
                _field(op, "key", index),
                _decode_value(_field(op, "value", index)),
            )
        elif kind == "remove_property":
            delta.remove_property(
                _field(op, "id", index), _field(op, "key", index)
            )
        else:
            raise BadRequest(f"update op #{index}: unknown op {kind!r}")
    return delta


def encode_chunks(payload: Dict[str, Any]) -> List[bytes]:
    """The response body as chunks, in order; :func:`dumps` joins them.

    A pre-encoded ``"graph"`` (bytes, the key after ``"kind"``) is its own
    chunk where a placeholder encodes: the body is never copied whole.
    """
    graph = payload.get("graph")
    if not isinstance(graph, bytes):
        return [_dumps(payload)]
    head, _, tail = _dumps({**payload, "graph": 0}).partition(b'"graph": 0')
    return [head + b'"graph": ', graph, tail]


def dumps(payload: Dict[str, Any]) -> bytes:
    """Stable JSON encoding for response bodies."""
    return b"".join(encode_chunks(payload))


def _dumps(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, separators=(", ", ": ")).encode("utf-8")
