"""The deterministic JSON counterexample format and corpus helpers.

A counterexample is everything needed to replay one divergence byte-for-
byte: the generator seed, the statement text, its parameter bindings
and the encoded expected/actual outcomes. Files are written with sorted keys
and a trailing newline so reruns produce identical bytes — the corpus in
``tests/fuzz/corpus/`` is diffable and its replay (tier-1 test +
``tools/lint_repo.py``) is deterministic.

Value encoding is shape-preserving where JSON is lossy:

* ``bool`` → ``{"$bool": ...}`` — Python's ``1 == True`` would otherwise
  let an ``INTEGER``/``BOOLEAN`` divergence slip through an encoded
  comparison (G-CORE's ``TRUE`` is *not* ``1``);
* ``Date`` → ``{"$date": "YYYY-MM-DD"}`` (no date literal syntax: dates
  travel through ``$params``);
* value sets → ``{"$set": [...]}``, members sorted by a total
  type-then-repr order so encoding is canonical;
* everything else JSON represents faithfully (``int`` vs ``float`` stay
  distinct in the source text of the file);
* unknown objects fall back to ``{"$repr": ...}`` — comparable, not
  reconstructable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Union

from ..model.values import Date
from .grammar import scalar_sort_key

__all__ = [
    "Counterexample",
    "decode_value",
    "encode_value",
    "load_counterexample",
]


def encode_value(value: Any) -> Any:
    """Encode one scalar/set value into canonical JSON form."""
    if isinstance(value, bool):
        return {"$bool": value}
    if value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, Date):
        return {"$date": str(value)}
    if isinstance(value, (set, frozenset)):
        members = sorted(value, key=scalar_sort_key)
        return {"$set": [encode_value(member) for member in members]}
    if isinstance(value, (list, tuple)):
        return [encode_value(member) for member in value]
    if isinstance(value, dict):
        # Already-encoded payloads pass through (encode is idempotent).
        return value
    return {"$repr": repr(value)}


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value` (``$repr`` stays opaque)."""
    if isinstance(value, dict):
        if "$bool" in value:
            return bool(value["$bool"])
        if "$date" in value:
            return Date.parse(value["$date"])
        if "$set" in value:
            return frozenset(decode_value(member) for member in value["$set"])
        return value
    if isinstance(value, list):
        return [decode_value(member) for member in value]
    return value


@dataclass(frozen=True)
class Counterexample:
    """One shrunk divergence, replayable from its JSON file alone."""

    seed: int
    query: str
    params: Dict[str, Any] = field(default_factory=dict)
    #: encoded outcome of the oracle (``expected["config"]``)
    expected: Dict[str, Any] = field(default_factory=dict)
    #: encoded outcome of the diverging side (``actual["config"]``)
    actual: Dict[str, Any] = field(default_factory=dict)
    #: divergence class: rows / columns / order / graph / error / crash
    kind: str = ""
    #: free-form provenance: what was broken, which module fixed it
    note: str = ""

    def to_json(self) -> str:
        payload = {
            "seed": self.seed,
            "query": self.query,
            "params": {
                name: encode_value(value)
                for name, value in sorted(self.params.items())
            },
            "expected": self.expected,
            "actual": self.actual,
            "kind": self.kind,
            "note": self.note,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    def decoded_params(self) -> Dict[str, Any]:
        """Parameter bindings with Dates/sets/bools reconstructed."""
        return {
            name: decode_value(value) for name, value in self.params.items()
        }


def load_counterexample(path: Union[str, Path]) -> Counterexample:
    """Load a corpus file back into a :class:`Counterexample`."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return Counterexample(
        seed=int(data["seed"]),
        query=data["query"],
        params=dict(data.get("params", {})),
        expected=dict(data.get("expected", {})),
        actual=dict(data.get("actual", {})),
        kind=data.get("kind", ""),
        note=data.get("note", ""),
    )
