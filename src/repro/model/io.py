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
bytes of ``json.dumps(graph_to_dict(g))``, joining each entry's JSON text
from parts (:func:`_encoded`) and reusing each catalog graph's cached
per-object entries (one store per graph epoch, valid by object identity,
never larger than its graph) in the results derived from it, encoding
only what a big set-operation result records as changed.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from itertools import compress
from json.encoder import encode_basestring_ascii as _string
from typing import AbstractSet, Any, Dict, FrozenSet, IO, List, Optional, Tuple, Union

from ..errors import GraphModelError
from .graph import PLAIN_ID_TYPES, ObjectId, PathPropertyGraph
from .values import Date, Scalar

__all__ = ["graph_to_dict", "graph_from_dict", "encode_graph", "encode_graph_chunks",
           "dump_graph", "load_graph", "dumps_graph", "loads_graph"]


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


def _sorted_scalars(values: AbstractSet[Scalar]) -> List[Any]:
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


#: One ``encode_graph`` call's JSON text of each label set it met.
LabelTexts = Dict[Optional[FrozenSet[str]], str]


def _id_text(obj: ObjectId) -> str:
    if type(obj) is str:
        return _string(obj)
    return int.__repr__(obj) if type(obj) is int else json.dumps(obj)


def _encoded(graph: PathPropertyGraph, obj: ObjectId, label_texts: LabelTexts) -> bytes:
    """``json.dumps(_entry(graph, obj))``, written part by part."""
    parts = ['{"id": ', _id_text(obj)]
    ends = graph._rho.get(obj)
    if ends is not None:
        parts += (', "source": ', _id_text(ends[0]), ', "target": ', _id_text(ends[1]))
    elif obj in graph._delta:
        parts += (', "sequence": [', ", ".join(map(_id_text, graph._delta[obj])), "]")
    labels = graph._labels.get(obj)
    text = label_texts.get(labels)
    if text is None:
        text = label_texts[labels] = json.dumps(sorted(labels or ()))
    props = graph._props.get(obj)
    parts += (', "labels": ', text, ', "properties": ', json.dumps(
        {key: _sorted_scalars(values) for key, values in sorted(props.items())})
        if props else "{}", "}")
    return "".join(parts).encode("ascii")


_SECTIONS = ("nodes", "edges", "paths")

#: The owner branch of :func:`encode_graph` filters every owner object
#: (~0.05 µs each), the per-object path visits the graph's (~1.2 µs each):
#: they break even near 8 % of the owner (snb1000, 2-core VM).
_OWNER_SHARE = 0.1

#: One owner section sorted by ``str``: spellings, ids, entries, and the
#: entries joined (the section's body when no object is left out).
Section = Tuple[List[str], List[ObjectId], List[bytes], bytes]


def graph_to_dict(graph: PathPropertyGraph) -> Dict[str, Any]:
    """Convert *graph* to a JSON-serializable dictionary."""
    result: Dict[str, Any] = {"name": graph.name}
    for key in _SECTIONS:
        ids = sorted(getattr(graph, key), key=str)
        result[key] = [_entry(graph, obj) for obj in ids]
    return result


def encode_graph(graph: PathPropertyGraph) -> bytes:
    """``json.dumps(graph_to_dict(graph))`` as UTF-8, byte for byte: the
    join of :func:`encode_graph_chunks`."""
    return b"".join(encode_graph_chunks(graph))


def encode_graph_chunks(graph: PathPropertyGraph) -> List[bytes]:
    """:func:`encode_graph`'s bytes as a few chunks, one body per section.

    A graph with a :meth:`~PathPropertyGraph.fragment_owner` splices the
    owner's stored entries. One that also knows which of its objects may
    differ from the owner's (:meth:`~PathPropertyGraph.changed_objects`)
    and holds at least ``_OWNER_SHARE`` of the owner's objects filters
    the owner's sorted entries and encodes only the rest
    (:func:`_owner_sections`); a section wholly the owner's is the
    owner's joined body, one cached chunk. Otherwise an entry is spliced
    when its id is a ``str`` or ``int`` of the same kind in the owner and
    its label set, property dict and endpoint or sequence tuple are the
    owner's very objects (``is``). Any other entry is encoded fresh,
    never stored.
    """
    owner = graph.fragment_owner()
    labels: LabelTexts = {}
    if owner is None:
        bodies = [b", ".join([_encoded(graph, obj, labels)
                              for obj in sorted(getattr(graph, key), key=str)])
                  for key in _SECTIONS]
        return _document(graph, bodies)
    store = owner._fragments
    assert store is not None, "an owner is a named graph"
    changed = graph.changed_objects()
    owned = None
    if changed is not None and _object_count(graph) >= _OWNER_SHARE * _object_count(owner):
        owned = _owner_sections(graph, owner, store, labels, changed)
    if owned is None:
        owned = [b", ".join(_spliced_section(graph, owner, store, labels, key))
                 for key in _SECTIONS]
    return _document(graph, owned)


def _document(graph: PathPropertyGraph, bodies: List[bytes]) -> List[bytes]:
    nodes, edges, paths = bodies
    return [b'{"name": %s, "nodes": [' % json.dumps(graph.name).encode("utf-8"),
            nodes, b'], "edges": [', edges, b'], "paths": [', paths, b"]}"]


def _object_count(graph: PathPropertyGraph) -> int:
    return len(graph.nodes) + len(graph.edges) + len(graph.paths)


def _spliced_section(graph: PathPropertyGraph, owner: PathPropertyGraph,
                     store: Dict[ObjectId, bytes], label_texts: LabelTexts,
                     key: str) -> List[bytes]:
    """One section's entries, object by object."""
    labels, props, rho, delta = (
        graph._labels, graph._props, graph._rho, graph._delta)
    own_labels, own_props, own_rho, own_delta = (
        owner._labels, owner._props, owner._rho, owner._delta)
    own_ids: FrozenSet[ObjectId] = getattr(owner, key)
    entries = []
    for obj in sorted(getattr(graph, key), key=str):
        reusable = (
            type(obj) in PLAIN_ID_TYPES and obj in own_ids
            and labels.get(obj) is own_labels.get(obj)
            and props.get(obj) is own_props.get(obj)
            and rho.get(obj) is own_rho.get(obj)
            and delta.get(obj) is own_delta.get(obj)
        )
        entry = store.get(obj) if reusable else None
        if entry is None:
            entry = _encoded(graph, obj, label_texts)
            if reusable:
                store[obj] = entry
        entries.append(entry)
    return entries


def _owner_sections(graph: PathPropertyGraph, owner: PathPropertyGraph,
                    store: Dict[ObjectId, bytes], label_texts: LabelTexts,
                    changed: AbstractSet[ObjectId]) -> Optional[List[bytes]]:
    """Each section's body: the owner's entries of unchanged objects,
    fresh ones bisected in by ``str``; None if an id is not a
    ``str``/``int`` or two spell alike (``1``, ``"1"``: their order would
    be the set's)."""
    if owner._wire_sections is None:  # once per owner; racing builds agree
        owner._wire_sections = _build_sections(owner, store, label_texts)
    if (not owner._wire_sections or not graph.plain_ids()
            or not PLAIN_ID_TYPES.issuperset(map(type, changed))):
        return None
    sections = []
    for key, (spelled, ids, entries, body) in zip(_SECTIONS, owner._wire_sections):
        objs: FrozenSet[ObjectId] = getattr(graph, key)
        # every id is a uniquely spelled str/int: set algebra is exact
        fresh = (objs - getattr(owner, key)) | (objs & changed)
        if not fresh and len(objs) == len(ids):  # the owner's own section
            sections.append(body)
            continue
        mask = list(map((objs - fresh if fresh else objs).__contains__, ids))
        kept = list(compress(entries, mask))
        keys = list(compress(spelled, mask)) if fresh else []
        out: List[bytes] = []
        start, last = 0, None
        for obj in sorted(fresh, key=str):
            spelling = str(obj)
            at = bisect_left(keys, spelling, start)
            if spelling == last or at < len(keys) and keys[at] == spelling:
                return None
            out += kept[start:at]
            out.append(_encoded(graph, obj, label_texts))
            start, last = at, spelling
        sections.append(b", ".join(out + kept[start:]))
    return sections


def _build_sections(owner: PathPropertyGraph, store: Dict[ObjectId, bytes],
                    label_texts: LabelTexts) -> Tuple[Section, ...]:
    """The owner's sections, every entry stored; () as in the above."""
    sections = []
    for key in _SECTIONS:
        ids = sorted(getattr(owner, key), key=str)
        spelled = list(map(str, ids))
        if not owner.plain_ids() or len(set(spelled)) < len(spelled):
            return ()
        entries = [store.get(obj) or store.setdefault(obj, _encoded(owner, obj, label_texts))
                   for obj in ids]
        sections.append((spelled, ids, entries, b", ".join(entries)))
    return tuple(sections)


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


def dumps_graph(graph: PathPropertyGraph) -> str:
    """Serialize *graph* to a JSON string (indent 2)."""
    return json.dumps(graph_to_dict(graph), indent=2, sort_keys=False)


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
