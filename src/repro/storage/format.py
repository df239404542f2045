"""The binary snapshot container: header, section table, primitives.

A snapshot file is a single self-describing container::

    +--------------------------------------------------------------+
    | header (28 bytes):                                           |
    |   magic "GCORSNAP" | u16 version | u16 flags                 |
    |   u64 directory offset | u32 directory length | u32 dir CRC  |
    +--------------------------------------------------------------+
    | section payloads, back to back (arbitrary binary)            |
    +--------------------------------------------------------------+
    | directory: JSON {"sections": {name: [offset, length, crc]},  |
    |                  "manifest": {...}}                          |
    +--------------------------------------------------------------+

All integers are little-endian. The directory lives at the *end* of the
file so section offsets never depend on the directory's own size; the
fixed-size header points at it. Every section (and the directory
itself) carries a CRC-32, and the reader verifies all of them when it
opens the file, so corruption is caught before any value is decoded.

:class:`SnapshotWriter` accumulates named sections and writes the
container; :class:`SnapshotReader` reads a file and serves
``memoryview`` windows over it. The value/identifier entry encodings
shared by the graph sections live here too, for
:mod:`repro.storage.snapshot` to encode and decode them.
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
from array import array
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from ..errors import SnapshotFormatError, SnapshotVersionError
from ..model.values import Date

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "SnapshotReader",
    "SnapshotWriter",
    "decode_entry_table",
    "decode_id",
    "decode_scalar",
    "encode_entry_table",
    "encode_id",
    "encode_scalar",
    "pack_u32",
    "read_u32",
]

MAGIC = b"GCORSNAP"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<8sHHQII")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_DATE = struct.Struct("<qqq")
_U32_MAX = 0xFFFFFFFF


# ---------------------------------------------------------------------------
# Integer-array primitives
# ---------------------------------------------------------------------------

def pack_u32(values: Iterable[int]) -> bytes:
    """Little-endian ``u32`` array bytes for *values*."""
    arr = array("I", values)
    if arr.itemsize != 4:  # pragma: no cover - no 4-byte "I" on this host
        arr = array("L", values)
    if sys.byteorder == "big":  # pragma: no cover - LE hosts everywhere
        arr = array(arr.typecode, arr)
        arr.byteswap()
    return arr.tobytes()


def read_u32(buffer: memoryview) -> Sequence[int]:
    """An indexable ``u32`` view over little-endian *buffer*.

    On little-endian hosts this is a zero-copy ``memoryview.cast``
    over the section; big-endian hosts fall back to a byte-swapped
    ``array`` copy.
    """
    if len(buffer) % 4:
        raise SnapshotFormatError(
            f"u32 section length {len(buffer)} is not a multiple of 4"
        )
    if sys.byteorder == "big":  # pragma: no cover - LE hosts everywhere
        arr = array("I")
        arr.frombytes(bytes(buffer))
        arr.byteswap()
        return arr
    return buffer.cast("I")


# ---------------------------------------------------------------------------
# Tagged entries: identifiers and literal scalars
# ---------------------------------------------------------------------------

def encode_id(value: Any) -> bytes:
    """One tagged identifier entry (``str`` or ``int``)."""
    if isinstance(value, bool):
        raise SnapshotFormatError(
            f"cannot snapshot identifier {value!r}: booleans are not "
            f"supported identifier types"
        )
    if isinstance(value, str):
        return b"s" + value.encode("utf-8")
    if isinstance(value, int):
        if -(2**63) <= value < 2**63:
            return b"i" + _I64.pack(value)
        return b"I" + str(value).encode("ascii")
    raise SnapshotFormatError(
        f"cannot snapshot identifier {value!r}: only str and int "
        f"identifiers are supported"
    )


def decode_id(entry: memoryview) -> Any:
    tag = bytes(entry[:1])
    if tag == b"s":
        return str(entry[1:], "utf-8")
    if tag == b"i":
        return _I64.unpack(entry[1:9])[0]
    if tag == b"I":
        return int(bytes(entry[1:]))
    raise SnapshotFormatError(f"unknown identifier tag {tag!r}")


def encode_scalar(value: Any) -> bytes:
    """One tagged literal entry (the 5 PPG scalar types)."""
    if isinstance(value, bool):
        return b"b" + (b"\x01" if value else b"\x00")
    if isinstance(value, str):
        return b"s" + value.encode("utf-8")
    if isinstance(value, int):
        if -(2**63) <= value < 2**63:
            return b"i" + _I64.pack(value)
        return b"I" + str(value).encode("ascii")
    if isinstance(value, float):
        return b"f" + _F64.pack(value)
    if isinstance(value, Date):
        return b"d" + _DATE.pack(value.year, value.month, value.day)
    raise SnapshotFormatError(
        f"cannot snapshot property value {value!r}: not a PPG literal"
    )


def decode_scalar(entry: memoryview) -> Any:
    tag = bytes(entry[:1])
    if tag == b"b":
        return entry[1] != 0
    if tag == b"s":
        return str(entry[1:], "utf-8")
    if tag == b"i":
        return _I64.unpack(entry[1:9])[0]
    if tag == b"I":
        return int(bytes(entry[1:]))
    if tag == b"f":
        return _F64.unpack(entry[1:9])[0]
    if tag == b"d":
        year, month, day = _DATE.unpack(entry[1:25])
        return Date(year, month, day)
    raise SnapshotFormatError(f"unknown scalar tag {tag!r}")


def encode_entry_table(entries: Sequence[bytes]) -> bytes:
    """``u32 count | u32 offsets[count+1] | blob`` of variable entries."""
    offsets = [0]
    for entry in entries:
        offsets.append(offsets[-1] + len(entry))
    return b"".join(
        (pack_u32([len(entries)]), pack_u32(offsets), *entries)
    )


def decode_entry_table(buffer: memoryview, decode_one) -> List[Any]:
    """Decode every entry of an :func:`encode_entry_table` section."""
    if len(buffer) < 4:
        raise SnapshotFormatError("entry table shorter than its count field")
    count = read_u32(buffer[:4])[0]
    table_end = 4 + 4 * (count + 1)
    if len(buffer) < table_end:
        raise SnapshotFormatError("entry table shorter than its offsets")
    offsets = read_u32(buffer[4:table_end])
    blob = buffer[table_end:]
    if count and offsets[count] > len(blob):
        raise SnapshotFormatError("entry table offsets exceed the blob")
    try:
        return [
            decode_one(blob[offsets[index]:offsets[index + 1]])
            for index in range(count)
        ]
    except (ValueError, struct.error) as exc:  # bad UTF-8/digits, short entry
        raise SnapshotFormatError(f"undecodable entry ({exc})") from None


# ---------------------------------------------------------------------------
# Container writer / reader
# ---------------------------------------------------------------------------

class SnapshotWriter:
    """Accumulates named sections and writes one snapshot container."""

    def __init__(self) -> None:
        self._sections: List[Tuple[str, bytes]] = []
        self._names: set = set()

    def add(self, name: str, payload: bytes) -> None:
        if name in self._names:
            raise SnapshotFormatError(f"duplicate snapshot section {name!r}")
        self._names.add(name)
        self._sections.append((name, payload))

    def write(self, path: str, manifest: Dict[str, Any]) -> None:
        directory: Dict[str, List[int]] = {}
        offset = _HEADER.size
        for name, payload in self._sections:
            directory[name] = [offset, len(payload), zlib.crc32(payload)]
            offset += len(payload)
        directory_blob = json.dumps(
            {"sections": directory, "manifest": manifest},
            separators=(",", ":"),
            sort_keys=True,
        ).encode("utf-8")
        header = _HEADER.pack(
            MAGIC,
            FORMAT_VERSION,
            0,
            offset,
            len(directory_blob),
            zlib.crc32(directory_blob),
        )
        with open(path, "wb") as handle:
            handle.write(header)
            for _name, payload in self._sections:
                handle.write(payload)
            handle.write(directory_blob)


class SnapshotReader:
    """A snapshot container read into memory and checked whole.

    The constructor reads the file in one call and closes it, validates
    header and directory, and CRC-checks every section, so corruption
    anywhere in the file fails here rather than midway through a
    query. :meth:`section` then serves ``memoryview`` windows over the
    in-memory bytes; they live as long as the reader.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        with open(path, "rb") as handle:
            self._buffer = memoryview(handle.read())
        self._read_directory()

    def _read_directory(self) -> None:
        if len(self._buffer) < _HEADER.size:
            raise SnapshotFormatError(
                f"{self.path}: file too short for a snapshot header"
            )
        magic, version, _flags, dir_offset, dir_len, dir_crc = _HEADER.unpack(
            self._buffer[: _HEADER.size]
        )
        if magic != MAGIC:
            raise SnapshotFormatError(
                f"{self.path}: not a G-CORE snapshot (bad magic {magic!r})"
            )
        if version != FORMAT_VERSION:
            raise SnapshotVersionError(version, FORMAT_VERSION)
        if dir_offset + dir_len > len(self._buffer):
            raise SnapshotFormatError(
                f"{self.path}: directory extends past end of file"
            )
        directory_blob = self._buffer[dir_offset : dir_offset + dir_len]
        if zlib.crc32(directory_blob) != dir_crc:
            raise SnapshotFormatError(
                f"{self.path}: directory checksum mismatch (corrupt file)"
            )
        try:
            decoded = json.loads(bytes(directory_blob))
            directory = dict(decoded["sections"])
            self.manifest: Dict[str, Any] = decoded["manifest"]
        except (ValueError, KeyError, TypeError) as exc:
            raise SnapshotFormatError(
                f"{self.path}: undecodable directory ({exc})"
            ) from None
        self._sections: Dict[str, Tuple[int, int]] = {}
        for name, entry in directory.items():
            try:
                offset, length, crc = (int(field) for field in entry)
            except (TypeError, ValueError):
                raise SnapshotFormatError(
                    f"{self.path}: malformed directory entry for section "
                    f"{name!r}"
                ) from None
            if offset < 0 or length < 0 or offset + length > len(self._buffer):
                raise SnapshotFormatError(
                    f"{self.path}: section {name!r} extends past end of file"
                )
            if zlib.crc32(self._buffer[offset : offset + length]) != crc:
                raise SnapshotFormatError(
                    f"{self.path}: checksum mismatch in section {name!r} "
                    f"(corrupt file)"
                )
            self._sections[name] = (offset, length)

    def has_section(self, name: str) -> bool:
        return name in self._sections

    def section(self, name: str) -> memoryview:
        """The (already CRC-verified) payload of section *name*."""
        entry = self._sections.get(name)
        if entry is None:
            raise SnapshotFormatError(
                f"{self.path}: missing snapshot section {name!r}"
            )
        offset, length = entry
        return self._buffer[offset : offset + length]
