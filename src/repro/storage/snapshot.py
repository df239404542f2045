"""Saving and opening catalog snapshots: the Storage API entry points.

:func:`save_snapshot` serializes a catalog's **base graphs** and tables
into one binary container (see :mod:`repro.storage.format` for the
layout); :func:`open_snapshot` reads a file once, checks every section
checksum and decodes each graph into an ordinary
:class:`~repro.model.graph.PathPropertyGraph` (:func:`_decode_graph`
mirrors :func:`_serialize_graph`, so this module alone knows the graph
sections in both directions). Materialized views and path views are
*not* serialized — they are derived state, re-registered by re-running
their definitions against the reopened base graphs.

What one graph serializes to:

* an identifier table (nodes sorted by identifier, then edges in
  ``rho`` insertion order — so the reopened graph's ``rho`` iterates as
  the saved one did — then paths in ``delta`` order),
* ``u32`` source/target arrays and a path-sequence CSR over table
  positions,
* a label dictionary plus one bitset per label over table positions,
* property columns: a key dictionary, a value dictionary (tag-encoded
  scalars, keyed by *type-aware* identity so ``1`` and ``1.0`` survive
  as themselves), and per-key ascending ``(object, values)`` runs,
* the graph's :class:`~repro.model.statistics.GraphStatistics` as JSON.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..errors import (
    GraphModelError,
    SnapshotFormatError,
    UnknownGraphError,
    UnknownTableError,
)
from ..model.graph import ObjectId, PathPropertyGraph
from ..model.statistics import GraphStatistics
from ..model.values import Date
from ..table import Table
if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..catalog import Catalog

from .format import (
    SnapshotReader,
    SnapshotWriter,
    decode_entry_table,
    decode_id,
    decode_scalar,
    encode_entry_table,
    encode_id,
    encode_scalar,
    pack_u32,
    read_u32,
)

__all__ = ["Snapshot", "open_snapshot", "save_snapshot"]

#: ``stats`` section key -> :class:`GraphStatistics` attribute.
_STATISTICS_FIELDS = (
    ("node_count", "node_count"),
    ("edge_count", "edge_count"),
    ("path_count", "path_count"),
    ("node_label_counts", "node_label_counts"),
    ("edge_label_counts", "edge_label_counts"),
    ("path_label_counts", "path_label_counts"),
    ("edge_label_sources", "edge_label_sources"),
    ("edge_label_targets", "edge_label_targets"),
    ("node_prop_sel", "_node_prop_sel"),
    ("edge_prop_sel", "_edge_prop_sel"),
    ("path_prop_sel", "_path_prop_sel"),
)


def _id_sort_key(obj: ObjectId) -> Tuple[str, str]:
    return (type(obj).__name__, str(obj))


def _value_key(value: Any) -> Tuple[str, Any]:
    """Dictionary identity of a scalar: type-aware, so ``1`` != ``1.0``.

    Python's ``==``/``hash`` conflate ``1``, ``1.0`` and ``True``; a
    value dictionary keyed on the raw scalar would silently rewrite one
    spelling into another across objects. Tagging with the concrete type
    name keeps every spelling distinct through the round trip.
    """
    return (type(value).__name__, value)


# ---------------------------------------------------------------------------
# Table (de)serialization — JSON cells with the io.py value tagging
# ---------------------------------------------------------------------------

def _cell_to_json(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Date):
        return {"$date": str(value)}
    if isinstance(value, frozenset):
        return {"$set": [_cell_to_json(item) for item in sorted(
            value, key=_value_key
        )]}
    raise SnapshotFormatError(
        f"cannot snapshot table cell {value!r}: not a literal"
    )


def _cell_from_json(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {"$date"}:
            return Date.parse(value["$date"])
        if set(value) == {"$set"}:
            return frozenset(_cell_from_json(item) for item in value["$set"])
        raise SnapshotFormatError(f"unknown table cell tag {value!r}")
    return value


# ---------------------------------------------------------------------------
# Saving
# ---------------------------------------------------------------------------

def _serialize_graph(
    writer: SnapshotWriter, prefix: str, name: str, graph: PathPropertyGraph
) -> Dict[str, Any]:
    """Append one graph's sections; returns its manifest entry."""
    nodes = sorted(graph.nodes, key=_id_sort_key)
    rho = graph.rho
    delta = graph.delta
    edges = list(rho)
    paths = list(delta)
    ids: List[ObjectId] = [*nodes, *edges, *paths]
    index = {obj: position for position, obj in enumerate(ids)}
    if len(index) != len(ids):
        raise SnapshotFormatError(
            f"graph {name!r} has overlapping identifier sets"
        )
    writer.add(
        prefix + "ids", encode_entry_table([encode_id(obj) for obj in ids])
    )

    src = [index[rho[edge][0]] for edge in edges]
    dst = [index[rho[edge][1]] for edge in edges]
    writer.add(prefix + "rho", pack_u32(src) + pack_u32(dst))

    starts = [0]
    sequence: List[int] = []
    for path in paths:
        sequence.extend(index[obj] for obj in delta[path])
        starts.append(len(sequence))
    writer.add(prefix + "paths", pack_u32(starts) + pack_u32(sequence))

    label_map = graph.label_map()
    label_names = sorted({l for lbls in label_map.values() for l in lbls})
    label_positions = {l: i for i, l in enumerate(label_names)}
    writer.add(
        prefix + "labelnames",
        encode_entry_table([l.encode("utf-8") for l in label_names]),
    )
    stride = (len(ids) + 7) >> 3
    bitsets = bytearray(stride * len(label_names))
    for obj, labels in label_map.items():
        position = index[obj]
        byte_index, bit = position >> 3, 1 << (position & 7)
        for label in labels:
            bitsets[label_positions[label] * stride + byte_index] |= bit
    writer.add(prefix + "labelbits", bytes(bitsets))

    property_map = graph.property_map()
    prop_keys = sorted({k for props in property_map.values() for k in props})
    key_positions = {k: i for i, k in enumerate(prop_keys)}
    writer.add(
        prefix + "propkeys",
        encode_entry_table([k.encode("utf-8") for k in prop_keys]),
    )
    value_slots: Dict[Tuple[str, Any], int] = {}
    values: List[Any] = []
    columns: List[List[Tuple[int, List[int]]]] = [[] for _ in prop_keys]
    for position, obj in enumerate(ids):
        props = property_map.get(obj)
        if not props:
            continue
        for key in sorted(props):
            run: List[int] = []
            for value in sorted(props[key], key=_value_key):
                slot = value_slots.get(_value_key(value))
                if slot is None:
                    slot = len(values)
                    value_slots[_value_key(value)] = slot
                    values.append(value)
                run.append(slot)
            columns[key_positions[key]].append((position, run))
    writer.add(
        prefix + "propvals",
        encode_entry_table([encode_scalar(value) for value in values]),
    )
    column_words: List[List[int]] = []
    for column in columns:
        starts = [0]
        value_refs: List[int] = []
        for _position, run in column:
            value_refs.extend(run)
            starts.append(len(value_refs))
        column_words.append(
            [len(column)]
            + [position for position, _run in column]
            + starts
            + value_refs
        )
    offsets = [len(prop_keys) + 1]
    for words in column_words:
        offsets.append(offsets[-1] + len(words))
    relative = [offset - offsets[0] for offset in offsets]
    writer.add(
        prefix + "propcols",
        pack_u32(relative) + b"".join(pack_u32(w) for w in column_words),
    )

    stats = graph.statistics()
    writer.add(
        prefix + "stats",
        json.dumps(
            {key: getattr(stats, attr) for key, attr in _STATISTICS_FIELDS},
            separators=(",", ":"),
            sort_keys=True,
        ).encode("utf-8"),
    )

    return {
        "name": name,
        "prefix": prefix,
        "nodes": len(nodes),
        "edges": len(edges),
        "paths": len(paths),
    }


def save_snapshot(catalog: "Catalog", path: str) -> None:
    """Serialize *catalog*'s base graphs and tables into one file.

    *catalog* is one catalog version, e.g. ``engine.catalog``: published
    versions are never written, so concurrent writers cannot tear the
    file (:meth:`GCoreEngine.save <repro.engine.GCoreEngine.save>`
    passes the current one). Views are not serialized;
    identifiers must be ``str`` or ``int`` and property values PPG
    literals, else :class:`~repro.errors.SnapshotFormatError`.
    """
    writer = SnapshotWriter()
    graphs: List[Dict[str, Any]] = []
    names = [
        name for name in catalog.graph_names() if catalog.is_base_graph(name)
    ]
    for position, name in enumerate(names):
        graphs.append(
            _serialize_graph(
                writer, f"g{position}:", name, catalog.graph(name)
            )
        )
    tables = {}
    for name in catalog.table_names():
        table = catalog.table(name)
        tables[name] = {
            "columns": list(table.columns),
            "rows": [
                [_cell_to_json(cell) for cell in row] for row in table.rows
            ],
        }
    writer.add(
        "tables",
        json.dumps(tables, separators=(",", ":"), sort_keys=True).encode(
            "utf-8"
        ),
    )
    default = catalog.default_graph_name
    manifest = {
        "graphs": graphs,
        "tables": sorted(tables),
        "default": default if default in names else None,
    }
    writer.write(path, manifest)


# ---------------------------------------------------------------------------
# Opening
# ---------------------------------------------------------------------------

def _decode_text(entry: memoryview) -> str:
    return str(entry, "utf-8")


def _check_positions(
    positions: Sequence[int], limit: int, what: str, where: str
) -> None:
    """Reject stored table positions at or past *limit*.

    A checksum only proves the bytes are the ones written; a file built
    by another writer can still point anywhere.
    """
    if len(positions) and max(positions) >= limit:
        raise SnapshotFormatError(
            f"{where}: {what} position {max(positions)} is out of range "
            f"(limit {limit})"
        )


def _decode_statistics(payload: memoryview, where: str) -> GraphStatistics:
    statistics = GraphStatistics.__new__(GraphStatistics)
    try:
        fields = json.loads(bytes(payload))
        for key, attr in _STATISTICS_FIELDS:
            setattr(statistics, attr, fields[key])
    except (ValueError, KeyError, TypeError) as exc:
        raise SnapshotFormatError(
            f"{where}: undecodable statistics ({exc})"
        ) from None
    return statistics


def _decode_graph(
    reader: SnapshotReader, entry: Dict[str, Any]
) -> PathPropertyGraph:
    """Decode one graph's sections into an ordinary graph.

    The inverse of :func:`_serialize_graph`. Label sets and property
    value sets are interned: one ``frozenset`` per distinct label
    combination and per distinct run of value codes, shared by every
    object carrying it, as the dictionary-coded file shares them. The
    stored statistics are adopted, so opening skips their O(N + E)
    build; adjacency, label and value indexes build lazily on first use.
    """
    try:
        name, prefix = entry["name"], entry["prefix"]
        node_count = int(entry["nodes"])
        edge_count = int(entry["edges"])
        path_count = int(entry["paths"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotFormatError(
            f"{reader.path}: malformed graph entry in the manifest ({exc})"
        ) from None
    where = f"{reader.path}: graph {name!r}"

    def section(suffix: str) -> memoryview:
        return reader.section(prefix + suffix)

    ids = decode_entry_table(section("ids"), decode_id)
    object_count = node_count + edge_count + path_count
    if len(ids) != object_count:
        raise SnapshotFormatError(
            f"{where}: identifier table has {len(ids)} entries, manifest "
            f"says {object_count}"
        )
    edge_end = node_count + edge_count

    ends = read_u32(section("rho"))
    if len(ends) != 2 * edge_count:
        raise SnapshotFormatError(
            f"{where}: endpoint array has {len(ends)} entries for "
            f"{edge_count} edges"
        )
    _check_positions(ends, node_count, "edge endpoint", where)
    rho = {
        edge: (ids[src], ids[dst])
        for edge, src, dst in zip(
            ids[node_count:edge_end], ends[:edge_count], ends[edge_count:]
        )
    }

    words = read_u32(section("paths"))
    starts, steps = words[: path_count + 1], words[path_count + 1 :]
    if len(starts) != path_count + 1 or starts[-1] != len(steps):
        raise SnapshotFormatError(f"{where}: malformed path sequence table")
    _check_positions(steps, edge_end, "path step", where)
    delta = {
        path: tuple(ids[step] for step in steps[starts[slot] : starts[slot + 1]])
        for slot, path in enumerate(ids[edge_end:])
    }

    label_names = decode_entry_table(section("labelnames"), _decode_text)
    bits = section("labelbits")
    stride = (object_count + 7) >> 3
    if len(bits) != stride * len(label_names):
        raise SnapshotFormatError(
            f"{where}: label bitsets do not match the label table"
        )
    masks = [0] * (stride << 3)  # table position -> bitmask of label positions
    for label_pos in range(len(label_names)):
        flag = 1 << label_pos
        base = label_pos * stride
        for byte_index, byte in enumerate(bits[base : base + stride]):
            while byte:
                low = byte & -byte
                masks[(byte_index << 3) + low.bit_length() - 1] |= flag
                byte ^= low
    if any(masks[object_count:]):
        raise SnapshotFormatError(
            f"{where}: a label bit is set past the identifier table"
        )
    label_sets: Dict[int, FrozenSet[str]] = {}
    labels: Dict[ObjectId, FrozenSet[str]] = {}
    for obj, mask in zip(ids, masks):
        if mask:
            label_set = label_sets.get(mask)
            if label_set is None:
                label_set = label_sets[mask] = frozenset(
                    label
                    for label_pos, label in enumerate(label_names)
                    if mask >> label_pos & 1
                )
            labels[obj] = label_set

    keys = decode_entry_table(section("propkeys"), _decode_text)
    values = decode_entry_table(section("propvals"), decode_scalar)
    words = read_u32(section("propcols"))
    offsets, body = words[: len(keys) + 1], words[len(keys) + 1 :]
    if len(offsets) != len(keys) + 1:
        raise SnapshotFormatError(f"{where}: malformed property columns")
    carried: List[Optional[Dict[str, FrozenSet[Any]]]] = [None] * object_count
    value_sets: Dict[Tuple[int, ...], FrozenSet[Any]] = {}
    for key_pos, key in enumerate(keys):
        start, stop = offsets[key_pos], offsets[key_pos + 1]
        if not start < stop <= len(body) or 2 + 2 * body[start] > stop - start:
            raise SnapshotFormatError(
                f"{where}: malformed property column {key!r}"
            )
        count = body[start]
        objects = body[start + 1 : start + 1 + count]
        runs = body[start + 1 + count : start + 2 + 2 * count]
        codes = body[start + 2 + 2 * count : stop]
        if runs[-1] != len(codes):
            raise SnapshotFormatError(
                f"{where}: malformed property column {key!r}"
            )
        _check_positions(objects, object_count, "property carrier", where)
        _check_positions(codes, len(values), "property value", where)
        for slot, position in enumerate(objects):
            run = tuple(codes[runs[slot] : runs[slot + 1]])
            value_set = value_sets.get(run)
            if value_set is None:
                value_set = value_sets[run] = frozenset(
                    values[code] for code in run
                )
            props = carried[position]
            if props is None:
                props = carried[position] = {}
            props[key] = value_set
    properties = {obj: props for obj, props in zip(ids, carried) if props}

    graph = PathPropertyGraph._assemble_normalized(
        frozenset(ids[:node_count]), rho, delta, labels, properties, name
    )
    try:
        for path, sequence in delta.items():
            graph._check_path_sequence(path, sequence)
    except GraphModelError as exc:
        raise SnapshotFormatError(f"{where}: {exc}") from None
    if reader.has_section(prefix + "stats"):
        graph.adopt_statistics(_decode_statistics(section("stats"), where))
    return graph


def _decode_tables(reader: SnapshotReader) -> Dict[str, Table]:
    try:
        payload = json.loads(bytes(reader.section("tables")))
        return {
            name: Table(
                spec["columns"],
                [[_cell_from_json(cell) for cell in row] for row in spec["rows"]],
                name=name,
            )
            for name, spec in payload.items()
        }
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise SnapshotFormatError(
            f"{reader.path}: undecodable tables section ({exc})"
        ) from None


class Snapshot:
    """A decoded snapshot file: named graphs, tables, the default graph.

    Holds ordinary in-memory objects only; the file was read, checked
    and closed before :func:`open_snapshot` returned.
    """

    def __init__(
        self,
        path: str,
        graphs: Dict[str, PathPropertyGraph],
        tables: Dict[str, Table],
        default: Optional[str],
    ) -> None:
        self.path = path
        self.default_graph_name = default
        self._graphs = graphs
        self._tables = tables

    def graph_names(self) -> List[str]:
        return sorted(self._graphs)

    def graph(self, name: str) -> PathPropertyGraph:
        if name not in self._graphs:
            raise UnknownGraphError(name, candidates=self._graphs)
        return self._graphs[name]

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def table(self, name: str) -> Table:
        if name not in self._tables:
            raise UnknownTableError(name, candidates=self._tables)
        return self._tables[name]

    def __repr__(self) -> str:
        return (
            f"<Snapshot {self.path!r}: {len(self._graphs)} graphs, "
            f"{len(self._tables)} tables>"
        )


def open_snapshot(path: str) -> Snapshot:
    """Read *path* once and decode it into a :class:`Snapshot`.

    Every check happens here: bad magic, a truncated file, a corrupt
    directory, any section failing its checksum or a position pointing
    out of range raise :class:`~repro.errors.SnapshotFormatError`, and an
    unsupported format version
    :class:`~repro.errors.SnapshotVersionError`. A file that opens is
    never read again, so overwriting it cannot disturb the result.
    """
    reader = SnapshotReader(path)
    manifest = reader.manifest
    try:
        entries = list(manifest["graphs"])
        default = manifest["default"]
    except (KeyError, TypeError) as exc:
        raise SnapshotFormatError(
            f"{path}: malformed snapshot manifest ({exc})"
        ) from None
    graphs: Dict[str, PathPropertyGraph] = {}
    for entry in entries:
        graph = _decode_graph(reader, entry)
        graphs[graph.name] = graph
    return Snapshot(path, graphs, _decode_tables(reader), default)
