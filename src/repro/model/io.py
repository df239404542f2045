"""JSON (de)serialization of Path Property Graphs.

The on-disk format is a stable, human-readable JSON document:

.. code-block:: json

    {
      "name": "social_graph",
      "nodes": [{"id": "john", "labels": ["Person"],
                 "properties": {"employer": ["Acme"]}}],
      "edges": [{"id": "e1", "source": "john", "target": "peter",
                 "labels": ["knows"], "properties": {}}],
      "paths": [{"id": "p1", "sequence": ["john", "e1", "peter"],
                 "labels": ["toWagner"], "properties": {"trust": [0.95]}}]
    }

Scalars serialize natively except :class:`~repro.model.values.Date`,
which is tagged as ``{"$date": "YYYY-MM-DD"}``. Round-tripping preserves
graphs exactly (structural equality). :func:`encode_graph` writes the
same document as ``json.dumps`` bytes, reusing each catalog graph's
cached per-object entries (one store per graph epoch, valid by object
identity, never larger than its graph) in the results derived from it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, List, Union

from ..errors import GraphModelError
from .graph import ObjectId, PathPropertyGraph
from .values import Date, Scalar

__all__ = ["graph_to_dict", "graph_from_dict", "encode_graph", "dump_graph",
           "load_graph", "dumps_graph", "loads_graph"]


def _encode_scalar(value: Scalar) -> Any:
    if isinstance(value, Date):
        return {"$date": str(value)}
    return value


def _decode_scalar(value: Any) -> Scalar:
    if isinstance(value, dict):
        if set(value) == {"$date"}:
            return Date.parse(value["$date"])
        raise GraphModelError(f"unrecognized scalar encoding: {value!r}")
    return value


def _sorted_scalars(values) -> List[Any]:
    if len(values) == 1:  # most property values: nothing to sort
        (value,) = values
        return [_encode_scalar(value)]
    return sorted(
        (_encode_scalar(v) for v in values), key=lambda v: (str(type(v)), str(v))
    )


def _entry(graph: PathPropertyGraph, obj: ObjectId) -> Dict[str, Any]:
    entry: Dict[str, Any] = {"id": obj}
    if obj in graph._rho:
        entry["source"], entry["target"] = graph._rho[obj]
    elif obj in graph._delta:
        entry["sequence"] = list(graph._delta[obj])
    entry["labels"] = sorted(graph.labels(obj))
    entry["properties"] = {
        key: _sorted_scalars(values)
        for key, values in sorted(graph._props.get(obj, {}).items())
    }
    return entry


_SECTIONS = ("nodes", "edges", "paths")


def graph_to_dict(graph: PathPropertyGraph) -> Dict[str, Any]:
    """Convert *graph* to a JSON-serializable dictionary."""
    result: Dict[str, Any] = {"name": graph.name}
    for key in _SECTIONS:
        ids = sorted(getattr(graph, key), key=str)
        result[key] = [_entry(graph, obj) for obj in ids]
    return result


def encode_graph(graph: PathPropertyGraph) -> bytes:
    """``json.dumps(graph_to_dict(graph))`` as UTF-8, byte for byte.

    A graph with a :meth:`~PathPropertyGraph.fragment_owner` splices an
    object's entry from the owner's ``{id: bytes}`` store when its id is
    a ``str`` or ``int`` (``1``, ``1.0`` and ``True`` hash alike, spell
    differently) of the same kind in the owner, and its label set,
    property dict and endpoint or sequence tuple are the owner's very
    objects (``is``); any other entry is encoded fresh and never stored.
    """
    owner = graph.fragment_owner()
    if owner is None:
        return json.dumps(graph_to_dict(graph)).encode("utf-8")
    store = owner._fragments
    labels, props, rho, delta = (
        graph._labels, graph._props, graph._rho, graph._delta)
    own_labels, own_props, own_rho, own_delta = (
        owner._labels, owner._props, owner._rho, owner._delta)
    chunks = [b'{"name": ' + json.dumps(graph.name).encode("utf-8")]
    for key in _SECTIONS:
        own_ids, fragments = getattr(owner, key), []
        for obj in sorted(getattr(graph, key), key=str):
            reusable = (
                type(obj) in (str, int) and obj in own_ids
                and labels.get(obj) is own_labels.get(obj)
                and props.get(obj) is own_props.get(obj)
                and rho.get(obj) is own_rho.get(obj)
                and delta.get(obj) is own_delta.get(obj)
            )
            fragment = store.get(obj) if reusable else None
            if fragment is None:
                fragment = json.dumps(_entry(graph, obj)).encode("utf-8")
                if reusable:
                    store[obj] = fragment
            fragments.append(fragment)
        chunks.append(b'"%s": [%s]' % (key.encode(), b", ".join(fragments)))
    return b", ".join(chunks) + b"}"


def graph_from_dict(data: Dict[str, Any]) -> PathPropertyGraph:
    """Reconstruct a PPG from the dictionary produced by :func:`graph_to_dict`."""
    labels: Dict[ObjectId, List[str]] = {}
    props: Dict[ObjectId, Dict[str, frozenset]] = {}

    def register(entry: Dict[str, Any]) -> None:
        obj = entry["id"]
        if entry.get("labels"):
            labels[obj] = list(entry["labels"])
        if entry.get("properties"):
            props[obj] = {
                key: frozenset(_decode_scalar(v) for v in values)
                for key, values in entry["properties"].items()
            }

    nodes = []
    for entry in data.get("nodes", []):
        nodes.append(entry["id"])
        register(entry)
    edges = {}
    for entry in data.get("edges", []):
        edges[entry["id"]] = (entry["source"], entry["target"])
        register(entry)
    paths = {}
    for entry in data.get("paths", []):
        paths[entry["id"]] = tuple(entry["sequence"])
        register(entry)
    return PathPropertyGraph(
        nodes=nodes,
        edges=edges,
        paths=paths,
        labels=labels,
        properties=props,
        name=data.get("name", ""),
    )


def dumps_graph(graph: PathPropertyGraph, indent: int = 2) -> str:
    """Serialize *graph* to a JSON string."""
    return json.dumps(graph_to_dict(graph), indent=indent, sort_keys=False)


def loads_graph(text: str) -> PathPropertyGraph:
    """Deserialize a graph from a JSON string."""
    return graph_from_dict(json.loads(text))


def dump_graph(graph: PathPropertyGraph, fp: Union[str, IO[str]]) -> None:
    """Write *graph* as JSON to a path or file object."""
    if isinstance(fp, str):
        with open(fp, "w", encoding="utf-8") as handle:
            handle.write(dumps_graph(graph))
    else:
        fp.write(dumps_graph(graph))


def load_graph(fp: Union[str, IO[str]]) -> PathPropertyGraph:
    """Read a graph from a JSON path or file object."""
    if isinstance(fp, str):
        with open(fp, "r", encoding="utf-8") as handle:
            return loads_graph(handle.read())
    return loads_graph(fp.read())
