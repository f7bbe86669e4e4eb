"""Segment-based storage engine with a compact binary format.

The LSM-flavoured replacement for whole-session JSON-lines
persistence: acknowledged documents accumulate in a buffer whose
durable mirror is a :class:`~repro.backend.wal.WriteAheadLog`; when the
buffer reaches ``flush_events`` rows it is sealed into an *immutable,
time-sorted segment file* and the WAL is truncated.  Compaction merges
contiguous runs of small segments.

One segment file (``seg-NNNNNN.dseg``) holds per-field **columnar
blocks** — dictionary-coded values plus packed ``array('q')`` /
``array('d')`` lanes, the same encodings
:class:`repro.backend.columns.Column` uses in memory, and struct
blocks for a field of objects (``args``: key tuples once, one lane per
key) — a **footer**
directory with per-block CRC-32 checksums and per-field min/max **zone
maps**, and a fixed-size **trailer** so a reader finds the footer in
one seek.  Opening a store therefore costs O(segment index): only
manifest, headers, trailers and footers are read — by seek, not whole
files — and a block's bytes are read by offset when it is decoded.
The byte-level layout is specified field by field in
``docs/STORAGE.md``; ``tests/test_storage_spec.py`` parses a real
segment using only the offsets from that document, so the spec cannot
drift from this module.

Zone maps give the planner segment granularity: the conjunctive
constraints :func:`repro.backend.planner.prune_constraints` extracts
from a query are checked against each segment's per-field min/max
before any block is decoded, so a narrow time-range query on a week of
traces touches one segment, not fifty.

Blocks are written from, and decoded back into, *lanes*
(:mod:`repro.backend.lanes`): :func:`encode_segment` is the one column
writer — ``save_session`` hands it the lanes a store holds, chunk by
chunk and in forked workers when the session is large, compaction the
joined :class:`~repro.backend.lanes.Lanes` of the segments it merges,
and the WAL flush its rows as a ``DocBatch`` — and
:class:`SegmentBatch` is a loaded session's blocks behind the
lane-batch protocol, so neither a save, a compaction nor a load builds
a document.

JSON-lines stays as the differential oracle: a session saved here
reloads into a store byte-identical to importing its export (same
documents, same order — rows are sorted with the search path's own
:func:`repro.backend.lanes.sort_key`).  Torn-write durability at any
byte is proven by the DST harness: a truncated segment fails its
trailer/footer checksum and is rejected whole — quarantined as
``*.damaged``, never deleted — while its rows are still in the WAL or
older segments; a truncated WAL recovers its intact prefix; a crash
mid-compaction leaves either the old manifest or the new one — never
a mix; and a crash between a flush publishing its segment and the WAL
reset cannot duplicate rows, because the manifest's ``wal_sealed``
watermark tells replay which WAL records are already sealed.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import threading
import zlib
from array import array
from collections import Counter
from contextlib import closing
from copy import deepcopy
from itertools import chain, compress, repeat
from operator import is_
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional

from repro.backend.lanes import (GROUP_SAFE, DocBatch, JoinedBatch,
                                 LaneBatch, LaneColumn, Lanes, StructLane,
                                 sort_key, time_ordered)
from repro.backend.planner import prune_constraints
from repro.backend.query import compile_query
from repro.backend.store import INDEXED_EVENT_FIELDS
from repro.backend.wal import WriteAheadLog, wal_file_size

#: Segment file magic (offset 0) and format version.
SEGMENT_MAGIC = b"DSEG"
SEGMENT_VERSION = 2
#: Versions a reader opens: 2 added block kind 4 and changed nothing
#: else, so a version 1 file reads as a version 2 file without one.
READABLE_VERSIONS = (1, 2)
#: Trailer magic — the last 8 bytes of every intact segment file.
TRAILER_MAGIC = b"DIOSEGFT"

#: Manifest format marker.
MANIFEST_FORMAT = "dio-segments-v1"
MANIFEST_NAME = "MANIFEST.json"
WAL_NAME = "wal.bin"

#: Block kinds.
K_DICT = 1        # dictionary codes + value table
K_I64 = 2         # presence bytes + packed int64 lane
K_F64 = 3         # presence bytes + packed float64 lane
K_STRUCT = 4      # shape table + shape codes + one block per shape and key

#: Block flag bits.
F_ZLIB = 1        # payload is zlib-compressed

#: The level blocks are deflated at (measured: docs/STORAGE.md).
DEFLATE_LEVEL = 4

#: Value / zone-map type tags.
T_NULL = 0
T_STR = 1
T_INT = 2
T_FLOAT = 3
T_BOOL = 4
T_JSON = 5

_HEADER = struct.Struct("<4sHHQ")        # magic, version, flags, rows
_BLOCK_HEAD = struct.Struct("<BBI")      # kind, flags, raw payload len
_TRAILER = struct.Struct("<QII8s")       # footer off, len, crc, magic
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")

#: ``array`` typecode guaranteed to be 4 bytes for the code lane.
_I32_CODE = "i" if array("i").itemsize == 4 else "l"


class SegmentError(Exception):
    """A segment file or manifest is damaged or unreadable."""


def _sort_key_of(doc: dict):
    return sort_key(doc.get("time"))


def sort_docs(docs: list[dict]) -> list[dict]:
    """Stable time-order, exactly as a JSON-lines export sorts hits."""
    return sorted(docs, key=_sort_key_of)


# ---------------------------------------------------------------------------
# value encoding (shared by dictionary blocks and zone maps)

#: ``json.dumps(value, separators=(",", ":"))`` without building an
#: encoder per value.
_compact_json = json.JSONEncoder(separators=(",", ":")).encode


def _encode_value(value: Any) -> tuple[int, bytes]:
    """``(tag, payload)`` for one document field value.

    Tags keep value-equal values of different classes distinct
    (``True`` vs ``1`` vs ``1.0``), mirroring the in-memory
    ``(type, value)`` dictionary keys of ``columns.Column``.
    """
    cls = type(value)
    if value is None:
        return T_NULL, b""
    if cls is bool:
        return T_BOOL, b"\x01" if value else b"\x00"
    if cls is str:
        return T_STR, value.encode("utf-8")
    if cls is int:
        return T_INT, b"%d" % value
    if cls is float:
        return T_FLOAT, _F64.pack(value)
    try:
        payload = _compact_json(value).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise SegmentError(
            f"value of type {cls.__name__} is not storable: {value!r}"
        ) from exc
    return T_JSON, payload


def _decode_value(tag: int, payload: bytes) -> Any:
    if tag == T_NULL:
        return None
    if tag == T_STR:
        return payload.decode("utf-8")
    if tag == T_INT:
        return int(payload)
    if tag == T_FLOAT:
        return _F64.unpack(payload)[0]
    if tag == T_BOOL:
        return payload != b"\x00"
    if tag == T_JSON:
        return json.loads(payload.decode("utf-8"))
    raise SegmentError(f"unknown value tag {tag}")


def _lane_bytes(arr: array) -> bytes:
    if sys.byteorder == "big":          # spec is little-endian on disk
        arr = array(arr.typecode, arr)
        arr.byteswap()
    return arr.tobytes()


def _lane_from(typecode: str, blob: bytes) -> array:
    arr = array(typecode)
    arr.frombytes(blob)
    if sys.byteorder == "big":
        arr.byteswap()
    return arr


# ---------------------------------------------------------------------------
# block encode / decode

def _table_entry(value: Any) -> bytes:
    tag, blob = _encode_value(value)
    return bytes((tag,)) + _U32.pack(len(blob)) + blob


def _encode_field(present: Optional[bytes], values: list,
                  deflate: bool = True) -> tuple[bytes, Optional[tuple]]:
    """Build one field's on-disk block; returns ``(block_bytes, zone)``.

    ``present`` and ``values`` are a lane column
    (:data:`repro.backend.lanes.LaneColumn`): ``present[i]`` says
    whether row ``i`` carries the field at all — an explicit ``None``
    value *is* present, and the distinction survives the round trip.
    The cheapest faithful representation wins: a struct block when
    every present value is a ``dict`` with ``str`` keys (``values`` is
    a :class:`~repro.backend.lanes.StructLane` already, or is made
    one), a packed int64 lane when every present value is an exact
    in-range ``int``, a float64 lane for pure ``float``, otherwise
    dictionary codes over a typed value table.  The payload is
    deflated when that actually saves bytes.

    The work is per lane, not per row, wherever the lane's value
    classes allow: a struct block is its key lanes' blocks,
    ``array(values)`` packs a fully-present numeric lane, and over
    exact ``str``/``int``/``None`` a value and its ``(tag, payload)``
    table entry are one-to-one, so ``dict.fromkeys`` numbers the table
    in the first-seen order the per-row loop would.  Anything else
    (``True``/``1``/``1.0`` in one lane, lists, a dict beside a
    non-dict or under a key that is not a ``str``) is encoded row by
    row.

    The zone is ``(tag, min, max)`` over present non-null values when
    they share one comparable class (str / int / float, NaN-free) —
    the per-segment min/max the planner prunes with.
    """
    kind, payload, zone = _field_payload(present, values)
    flags = 0
    deflated = zlib.compress(payload, DEFLATE_LEVEL) if deflate else payload
    if len(deflated) < len(payload):
        flags |= F_ZLIB
        body = deflated
    else:
        body = payload
    return _BLOCK_HEAD.pack(kind, flags, len(payload)) + body, zone


def _field_payload(present: Optional[bytes], values
                   ) -> tuple[int, bytes, Optional[tuple]]:
    """``(kind, payload, zone)`` of one lane column."""
    if type(values) is StructLane:
        payload = _struct_payload(values)
        if payload is not None:
            return K_STRUCT, payload, None
        present, values = values.present(), values.dicts()
    rows = len(values)
    if present is not None and 0 not in present:
        present = None
    classes = set(map(type, values))
    # Absent rows hold ``None`` too, so the non-null values are the
    # present non-null ones.
    holes = type(None) in classes
    live_classes = classes - {type(None)}
    zone: Optional[tuple] = None
    if len(live_classes) == 1 and live_classes <= {int, float, str}:
        live = [v for v in values if v is not None] if holes else values
        lo, hi = min(live), max(live)
        if live_classes == {int}:
            zone = (T_INT, lo, hi)
        elif live_classes == {str}:
            zone = (T_STR, lo, hi)
        elif lo == lo and hi == hi:     # NaN poisons comparisons
            zone = (T_FLOAT, lo, hi)

    none_present = holes and (
        present is None
        or sum(map(is_, values, repeat(None))) > present.count(0))
    if live_classes == {dict} and not none_present:
        payload = _struct_payload(StructLane.of(values, present))
        if payload is not None:
            return K_STRUCT, payload, None
    if not none_present and live_classes in ({int}, {float}):
        typecode, zero = ("q", 0) if live_classes == {int} else ("d", 0.0)
        try:
            lane = array(typecode, values if present is None else
                         [zero if v is None else v for v in values])
        except OverflowError:           # an int beyond int64: dictionary
            pass
        else:
            return (K_I64 if typecode == "q" else K_F64,
                    (present or b"\x01" * rows) + _lane_bytes(lane), zone)
    if classes <= GROUP_SAFE:
        table = dict.fromkeys(values if present is None
                              else compress(values, present))
        code_of = dict(zip(table, range(len(table))))
        if present is None:
            codes = array(_I32_CODE, map(code_of.__getitem__, values))
        else:
            codes = array(_I32_CODE, [
                code_of[value] if has else -1
                for has, value in zip(present, values)])
        entries = list(map(_table_entry, table))
    else:
        entries = []
        seen: dict[bytes, int] = {}
        codes = array(_I32_CODE)
        for has, value in zip(present or repeat(1), values):
            if not has:
                codes.append(-1)
                continue
            entry = _table_entry(value)
            code = seen.get(entry)
            if code is None:
                code = seen[entry] = len(entries)
                entries.append(entry)
            codes.append(code)
    return K_DICT, b"".join((_U32.pack(len(entries)), *entries,
                             _lane_bytes(codes))), zone


def _struct_payload(lane: StructLane) -> Optional[bytes]:
    """The kind-4 payload of a struct lane — shape table, shape codes,
    then every shape's key lanes as field blocks of their own — or
    ``None`` when a key is not a ``str``."""
    lane = lane.compacted()
    if not set(map(type, chain.from_iterable(lane.shapes))) <= {str}:
        return None
    parts = [_U32.pack(len(lane.shapes))]
    for shape in lane.shapes:
        parts.append(_U32.pack(len(shape)))
        for name in map(str.encode, shape):
            parts += (_U32.pack(len(name)), name)
    parts.append(_lane_bytes(array(_I32_CODE, lane.codes)))
    # Left raw: the enclosing block is deflated once, as a whole.
    for values in chain.from_iterable(lane.columns):
        block, _zone = _encode_field(None, values, deflate=False)
        parts += (_U32.pack(len(block)), block)
    return b"".join(parts)


class _Lane(NamedTuple):
    """One field over a run of rows — what a block is once decoded."""

    values: list                # one per row; None where the row lacks it
    present: Optional[bytes]    # 0/1 per row; None = every row has it


def _decode_block(blob: bytes, rows: int) -> _Lane:
    """Inverse of :func:`_encode_field`, checked against ``rows``."""
    if len(blob) < _BLOCK_HEAD.size:
        raise SegmentError("block shorter than its header")
    kind, flags, raw_len = _BLOCK_HEAD.unpack_from(blob, 0)
    payload = blob[_BLOCK_HEAD.size:]
    if flags & F_ZLIB:
        try:
            payload = zlib.decompress(payload)
        except zlib.error as exc:
            raise SegmentError("block payload fails to inflate") from exc
    if len(payload) != raw_len:
        raise SegmentError(
            f"block payload is {len(payload)}B, header says {raw_len}B")
    if kind == K_I64 or kind == K_F64:
        if len(payload) != rows + rows * 8:
            raise SegmentError("numeric block size mismatch")
        present = payload[:rows]
        values = _lane_from("q" if kind == K_I64 else "d",
                            payload[rows:]).tolist()
        if 0 not in present:
            return _Lane(values, None)
        return _Lane([v if p else None for p, v in zip(present, values)],
                     present)
    if kind not in (K_DICT, K_STRUCT):
        raise SegmentError(f"unknown block kind {kind}")
    try:
        return (_decode_dict if kind == K_DICT
                else _decode_struct)(payload, rows)
    except (struct.error, IndexError, ValueError) as exc:
        raise SegmentError(f"kind-{kind} block fails to parse") from exc


def _decode_dict(payload: bytes, rows: int) -> _Lane:
    """A kind-1 payload: one table entry per row, by its code."""
    (n_table,) = _U32.unpack_from(payload, 0)
    pos = _U32.size
    table: list[Any] = []
    mutable: set[int] = set()
    for code in range(n_table):
        tag = payload[pos]
        (length,) = _U32.unpack_from(payload, pos + 1)
        start = pos + 1 + _U32.size
        table.append(_decode_value(tag, payload[start:start + length]))
        if tag == T_JSON:
            mutable.add(code)
        pos = start + length
    codes = _lane_from(_I32_CODE, payload[pos:])
    if len(codes) != rows:
        raise SegmentError("dictionary code lane length mismatch")
    if rows and not -1 <= min(codes) <= max(codes) < n_table:
        raise SegmentError("dictionary code out of range")
    table.append(None)                  # code -1 (absent) reads the end
    if mutable:
        # A list, a dict: every row its own, as a struct lane reads.
        values = [deepcopy(table[code]) if code in mutable else table[code]
                  for code in codes]
    else:
        values = list(map(table.__getitem__, codes))
    if not rows or min(codes) >= 0:
        return _Lane(values, None)
    return _Lane(values, bytes(map((-1).__lt__, codes)))


def _decode_struct(payload: bytes, rows: int) -> _Lane:
    """A kind-4 payload as a struct lane over its decoded key lanes."""
    (n_shapes,) = _U32.unpack_from(payload, 0)
    pos = _U32.size
    shapes: list[tuple] = []
    for _ in range(n_shapes):
        (n_keys,) = _U32.unpack_from(payload, pos)
        pos += _U32.size
        names = []
        for _ in range(n_keys):
            (length,) = _U32.unpack_from(payload, pos)
            pos += _U32.size
            names.append(payload[pos:pos + length].decode("utf-8"))
            pos += length
        shapes.append(tuple(names))
    codes = _lane_from(_I32_CODE, payload[pos:pos + 4 * rows]).tolist()
    pos += 4 * rows
    if len(codes) != rows:
        raise SegmentError("struct shape code lane length mismatch")
    if rows and not -1 <= min(codes) <= max(codes) < n_shapes:
        raise SegmentError("struct shape code out of range")
    rows_of = Counter(codes)
    columns: list[list] = []
    for code, shape in enumerate(shapes):
        columns.append([])
        for name in shape:
            (length,) = _U32.unpack_from(payload, pos)
            pos += _U32.size
            if pos + length > len(payload):
                raise SegmentError(f"struct key block {name!r} is torn")
            columns[code].append(_decode_block(payload[pos:pos + length],
                                               rows_of[code]).values)
            pos += length
    if pos != len(payload):
        raise SegmentError("struct block is longer than its key lanes")
    lane = StructLane(shapes, codes, columns)
    return _Lane(lane, lane.present())


def _encode_zone(zone: Optional[tuple]) -> bytes:
    if zone is None:
        return b"\x00"
    tag, lo, hi = zone
    _, lo_blob = _encode_value(lo)
    _, hi_blob = _encode_value(hi)
    return b"".join((bytes((tag,)),
                     _U32.pack(len(lo_blob)), lo_blob,
                     _U32.pack(len(hi_blob)), hi_blob))


# ---------------------------------------------------------------------------
# segment write

def _in_schema_order(batch: LaneBatch) -> list[LaneColumn]:
    """The batch's columns in its rows' first-seen key order.

    A segment's schema is what ``dict.fromkeys`` over its rows' keys
    would give: fields by the first row that carries them, fields first
    carried by the same row in that row's own key order.  A field no
    row carries is not in the schema.
    """
    if not len(batch):
        return []
    columns = {column[0]: column for column in batch.columns()}
    first_carried: dict[int, set[str]] = {}
    for field, _, present in columns.values():
        row = 0 if present is None else present.find(1)
        if row >= 0:
            first_carried.setdefault(row, set()).add(field)
    return [columns[key] for row in sorted(first_carried)
            for key in batch.row_keys(row) if key in first_carried[row]]


class EncodedSegment(NamedTuple):
    """A segment's bytes before it has a name, a session or a place in
    the manifest: what :func:`encode_segment` makes and
    :func:`publish` writes."""

    rows: int
    body: bytes         # header, then every block
    directory: bytes    # the footer's field entries: offsets, CRCs, zones


def encode_segment(batch: LaneBatch) -> EncodedSegment:
    """The pure half of a segment write: lanes in, bytes out.

    The one column writer — no document built, nothing read but the
    batch, nothing written.  Rows are put in stable ``time`` order with
    the search path's own sort key
    (:func:`repro.backend.lanes.time_ordered`), so per-segment order
    matches what a sorted export would emit; the header and the blocks
    follow, and the footer's field directory (each block's offset,
    length, CRC-32 and zone map).  What only the writer of the file
    knows — session label, seq, creation time — is :func:`publish`'s.
    """
    batch = time_ordered(batch)
    rows = len(batch)
    chunks: list[bytes] = [_HEADER.pack(SEGMENT_MAGIC, SEGMENT_VERSION,
                                        0, rows)]
    offset = _HEADER.size
    entries: list[bytes] = []
    for field, values, present in _in_schema_order(batch):
        block, zone = _encode_field(present, values)
        chunks.append(block)
        name = field.encode("utf-8")
        entries.append(b"".join((
            _U16.pack(len(name)), name,
            struct.pack("<QQI", offset, len(block), zlib.crc32(block)),
            _encode_zone(zone))))
        offset += len(block)
    return EncodedSegment(rows, b"".join(chunks),
                          b"".join((_U32.pack(len(entries)), *entries)))


def publish(path: str | Path, segment: EncodedSegment, *, session: str,
            seq: int, created_ns: int = 0) -> dict:
    """Write an encoded segment as one immutable file; returns its meta
    summary.

    The footer gets the session label, seq and creation time, then the
    trailer.  The write is atomic: bytes land in ``path + ".tmp"`` and
    are ``os.replace``d into place, so a crash can leave a stale temp
    file but never a half-written ``.dseg`` under the final name.
    """
    path = Path(path)
    session_blob = session.encode("utf-8")
    footer = b"".join((
        segment.directory,
        _U16.pack(len(session_blob)), session_blob,
        struct.pack("<IQ", seq, created_ns)))
    offset = len(segment.body)
    trailer = _TRAILER.pack(offset, len(footer), zlib.crc32(footer),
                            TRAILER_MAGIC)

    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as handle:
        handle.write(segment.body)
        handle.write(footer)
        handle.write(trailer)
        handle.flush()
    os.replace(tmp, path)
    return {"path": str(path), "rows": segment.rows, "session": session,
            "seq": seq, "bytes": offset + len(footer) + _TRAILER.size}


def write_batch(path: str | Path, batch: LaneBatch, *, session: str,
                seq: int, created_ns: int = 0) -> dict:
    """One segment file from a batch: :func:`publish` of
    :func:`encode_segment` (what compaction writes)."""
    return publish(path, encode_segment(batch), session=session, seq=seq,
                   created_ns=created_ns)


# ---------------------------------------------------------------------------
# segment read

class Segment:
    """One immutable on-disk segment, opened footer-first.

    Construction reads *only* the header, the trailer and the footer
    (plus their checksums), by seek — a few hundred bytes however large
    the segment is.  A block's bytes are read by offset when
    :meth:`lanes` or :meth:`verify` asks for them; only the row view
    (:meth:`docs`) is memoised.  Any truncation or bit-rot that touched
    the trailer or footer raises :class:`SegmentError` right here,
    which is how a torn flush is detected and the file rejected whole;
    a damaged block fails its checksum when it is read.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fields: dict[str, tuple[int, int, int, Optional[tuple]]] = {}
        self._docs: Optional[list[dict]] = None
        try:
            with self.path.open("rb") as handle:
                size = os.fstat(handle.fileno()).st_size
                if size < _HEADER.size + _TRAILER.size:
                    raise SegmentError(f"{self.path.name}: file too short")
                head = handle.read(_HEADER.size)
                handle.seek(size - _TRAILER.size)
                trailer = handle.read(_TRAILER.size)
                magic, version, _flags, rows = _HEADER.unpack(head)
                if magic != SEGMENT_MAGIC:
                    raise SegmentError(
                        f"{self.path.name}: bad magic {magic!r}")
                if version not in READABLE_VERSIONS:
                    raise SegmentError(
                        f"{self.path.name}: unsupported version {version}")
                foot_off, foot_len, foot_crc, t_magic = _TRAILER.unpack(
                    trailer)
                if t_magic != TRAILER_MAGIC:
                    raise SegmentError(f"{self.path.name}: torn trailer")
                if foot_off + foot_len + _TRAILER.size != size:
                    raise SegmentError(f"{self.path.name}: trailer offsets "
                                       "disagree with the file size")
                handle.seek(foot_off)
                footer = handle.read(foot_len)
        except OSError as exc:
            raise SegmentError(f"cannot read segment {self.path}") from exc
        if zlib.crc32(footer) != foot_crc:
            raise SegmentError(f"{self.path.name}: footer checksum "
                               "mismatch")
        self.rows = rows
        self._parse_footer(footer)
        self.size_bytes = size

    def _parse_footer(self, footer: bytes) -> None:
        try:
            (n_fields,) = _U32.unpack_from(footer, 0)
            pos = _U32.size
            order: list[str] = []
            for _ in range(n_fields):
                (name_len,) = _U16.unpack_from(footer, pos)
                pos += _U16.size
                name = footer[pos:pos + name_len].decode("utf-8")
                pos += name_len
                off, length, crc = struct.unpack_from("<QQI", footer, pos)
                pos += 20
                tag = footer[pos]
                pos += 1
                zone: Optional[tuple] = None
                if tag:
                    (lo_len,) = _U32.unpack_from(footer, pos)
                    pos += _U32.size
                    lo = _decode_value(tag, footer[pos:pos + lo_len])
                    pos += lo_len
                    (hi_len,) = _U32.unpack_from(footer, pos)
                    pos += _U32.size
                    hi = _decode_value(tag, footer[pos:pos + hi_len])
                    pos += hi_len
                    zone = (tag, lo, hi)
                self._fields[name] = (off, length, crc, zone)
                order.append(name)
            (session_len,) = _U16.unpack_from(footer, pos)
            pos += _U16.size
            self.session = footer[pos:pos + session_len].decode("utf-8")
            pos += session_len
            self.seq, self.created_ns = struct.unpack_from("<IQ",
                                                           footer, pos)
            self.schema = order
        except (struct.error, IndexError, UnicodeDecodeError) as exc:
            raise SegmentError(
                f"{self.path.name}: footer fails to parse") from exc

    @property
    def zones(self) -> dict[str, tuple]:
        """``field -> (tag, min, max)`` for every zone-mapped field."""
        return {name: entry[3] for name, entry in self._fields.items()
                if entry[3] is not None}

    def time_range(self) -> Optional[tuple[int, int]]:
        """(min, max) of the ``time`` zone map, when numeric."""
        zone = self._fields.get("time", (0, 0, 0, None))[3]
        if zone is not None and zone[0] in (T_INT, T_FLOAT):
            return zone[1], zone[2]
        return None

    def _blocks(self) -> Iterator[tuple[str, bytes, int]]:
        """``(field, block, crc)`` of every block, in schema order,
        each read from the file by its footer offset."""
        try:
            handle = self.path.open("rb")
        except OSError as exc:
            raise SegmentError(f"cannot read segment {self.path}") from exc
        with handle:
            for name, (off, length, crc, _zone) in self._fields.items():
                handle.seek(off)
                yield name, handle.read(length), crc

    def lanes(self) -> Lanes:
        """Every block, checksum-verified and decoded, as lanes in
        schema order — unstamped: ``session`` is a lane only if the
        rows carried it.

        Not memoised: a load hands the lanes on to a
        :class:`SegmentBatch` and keeps nothing here.
        """
        lanes: dict[str, _Lane] = {}
        for name, block, crc in self._blocks():
            if zlib.crc32(block) != crc:
                raise SegmentError(
                    f"{self.path.name}: block {name!r} checksum mismatch")
            lanes[name] = _decode_block(block, self.rows)
        return Lanes(self.rows, lanes)

    def docs(self) -> list[dict]:
        """Materialise every row as a document (schema key order)."""
        if self._docs is None:
            self._docs = self.lanes().to_docs()
        return self._docs

    def may_match(self, constraints: list[tuple[str, str, Any]]) -> bool:
        """Can any row satisfy every conjunctive constraint?

        ``False`` is a proof (the planner may skip the segment without
        decoding a block); ``True`` just means the zone maps could not
        rule it out.  Two traps keep this conservative: ``get_field``
        resolves a dotted name like ``a.b`` *inside* the root column
        ``a``'s nested values — invisible to zone maps — so a dotted
        constraint never prunes while the root column exists; and an
        ``eq None`` / ``in [..., None]`` constraint is satisfied by
        rows that lack the field entirely, so a missing column only
        excludes when the payload cannot match absence.
        """
        for field, kind, payload in constraints:
            if "." in field and field.split(".", 1)[0] in self._fields:
                continue                # nested values may satisfy it
            if field not in self._fields:
                if _matches_absent_field(kind, payload):
                    continue            # absent rows resolve to None
                return False            # no row carries the field at all
            zone = self._fields[field][3]
            if zone is None:
                continue
            if kind == "eq":
                if _zone_excludes_value(zone, payload):
                    return False
            elif kind == "in":
                if all(_zone_excludes_value(zone, value)
                       for value in payload):
                    return False
            elif kind == "range":
                if _zone_excludes_range(zone, payload):
                    return False
        return True

    def verify(self) -> dict:
        """Recompute every checksum; returns ``{"ok": ..., "errors": [...]}``."""
        errors: list[str] = []
        for name, block, crc in self._blocks():
            if zlib.crc32(block) != crc:
                errors.append(f"block {name!r}: checksum mismatch")
                continue
            try:
                _decode_block(block, self.rows)
            except SegmentError as exc:
                errors.append(f"block {name!r}: {exc}")
        return {"path": str(self.path), "rows": self.rows,
                "blocks_checked": len(self._fields),
                "ok": not errors, "errors": errors}


_NUMERIC_TAGS = (T_INT, T_FLOAT)


def _matches_absent_field(kind: str, payload: Any) -> bool:
    """Could a row *without* the field still satisfy the constraint?

    ``get_field`` yields ``None`` for an absent field, which equals an
    explicit ``None`` term; range bounds never match ``None`` (the
    compiled predicate treats the ``TypeError`` as no-match).
    """
    if kind == "eq":
        return payload is None
    if kind == "in":
        return any(value is None for value in payload)
    return False


def _zone_excludes_value(zone: tuple, value: Any) -> bool:
    """Does the zone map prove ``value`` equals no row of the field?"""
    tag, lo, hi = zone
    cls = type(value)
    if cls is bool:
        value = int(value)
        cls = int
    if cls in (int, float):
        if tag not in _NUMERIC_TAGS:
            return True                 # pure-str field: no numeric row
        if value != value:
            return False                # NaN never proves anything
        return value < lo or value > hi
    if cls is str:
        if tag != T_STR:
            return True                 # pure-numeric field: no str row
        return value < lo or value > hi
    return False


def _zone_excludes_range(zone: tuple, bounds: dict) -> bool:
    """Does the zone map prove no row satisfies the range bounds?

    The predicate treats a cross-type comparison (``TypeError``) as
    no-match, so a numeric bound over a pure-str field — or a str
    bound over a pure-numeric one — excludes the whole segment.
    """
    tag, lo, hi = zone
    for op, bound in bounds.items():
        cls = type(bound)
        if cls is bool:
            bound, cls = int(bound), int
        if cls in (int, float):
            if bound != bound:
                continue                # NaN bound: never prune on it
            if tag == T_STR:
                return True             # str rows vs numeric bound
            if tag not in _NUMERIC_TAGS:
                continue
        elif cls is str:
            if tag in _NUMERIC_TAGS:
                return True             # numeric rows vs str bound
            if tag != T_STR:
                continue
        else:
            continue                    # exotic bound: never prune
        if op == "gte" and hi < bound:
            return True
        if op == "gt" and hi <= bound:
            return True
        if op == "lte" and lo > bound:
            return True
        if op == "lt" and lo >= bound:
            return True
    return False


# ---------------------------------------------------------------------------
# a loaded session as lanes

class SegmentBatch(JoinedBatch):
    """A loaded session as one :class:`~repro.backend.lanes.LaneBatch`.

    Every segment's :meth:`Segment.lanes`, then the unflushed tail,
    back to back: the store reads the blocks as they were on disk and no
    document exists until :meth:`to_docs` (one row assembler,
    per-segment schema key order; a tail row keeps its own).  Every
    row carries ``session``, stamped: in a segment, in the place of its
    ``session`` column, or last when it has none.  Construction
    verifies and decodes every block.
    """

    __slots__ = ()

    def __init__(self, segments: Iterable["Segment"], tail: list[dict],
                 session: str) -> None:
        parts: list = [segment.lanes().stamped(session)
                       for segment in segments]
        parts.append(DocBatch([{**doc, "session": session}
                               for doc in tail]))
        super().__init__(parts)


# ---------------------------------------------------------------------------
# encoding a session's chunks on every CPU

#: Below this many rows an import encodes its chunks in this process:
#: starting and draining two forked encoders costs about 50 ms, a row
#: about 6 us to encode, so the pool breaks even near 20k rows
#: (measured: docs/STORAGE.md, "Saving from a store").
FORK_MIN_ROWS = 25_000

#: What a forked encoder inherited through ``fork``: ``(batch,
#: chunks)``, set in the worker by :func:`_inherit`.  Only a chunk
#: number goes to a worker, only the chunk's bytes come back.
_INHERITED: Optional[tuple[LaneBatch, list[range]]] = None


def _inherit(batch: LaneBatch, chunks: list[range]) -> None:
    """A forked encoder's initializer (its arguments are not pickled)."""
    global _INHERITED
    _INHERITED = (batch, chunks)


def _encode_chunk(number: int) -> EncodedSegment:
    """A forked encoder's task: chunk ``number`` of its batch."""
    batch, chunks = _INHERITED
    return encode_segment(batch.take(chunks[number]))


def _cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else 1


def _pool(workers: int, batch: LaneBatch, chunks: list[range]):
    """``workers`` forked encoders of ``batch``'s ``chunks``.  Imported
    here: a process that never forks one does not carry the pool's
    modules."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_inherit, initargs=(batch, chunks))


def _encoded(batch: LaneBatch, chunks: list[range]
             ) -> Iterator[EncodedSegment]:
    """Every chunk of ``batch`` encoded, in chunk order.

    By :func:`encode_segment` either way: ``map`` here, or an ordered
    ``pool.map`` of forked workers, one per CPU, when the import has at
    least :data:`FORK_MIN_ROWS` rows and more than one chunk, the
    process more than one CPU and no other thread (a fork copies a lock
    another thread holds), and the platform ``fork``.  The lanes of a
    joined batch are joined once, here, before the fork; a worker then
    only projects its chunks.  A worker that dies raises
    :class:`SegmentError`.
    """
    workers = min(_cpus(), len(chunks))
    if (workers < 2 or len(batch) < FORK_MIN_ROWS or not hasattr(os, "fork")
            or threading.active_count() > 1):
        yield from map(encode_segment, map(batch.take, chunks))
        return
    from concurrent.futures.process import BrokenProcessPool
    if isinstance(batch, JoinedBatch):
        batch.join()
    pool = _pool(workers, batch, chunks)
    try:
        yield from pool.map(_encode_chunk, range(len(chunks)))
    except BrokenProcessPool as exc:
        raise SegmentError("a segment encoder process died") from exc
    finally:
        pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# the engine

class SegmentStorage:
    """Durable document storage over a directory of segments + a WAL.

    ``append`` is the live path (WAL first, buffer second, automatic
    flush at ``flush_events``); ``import_batch`` is the bulk path used
    by ``save_session`` where the documents are already durable
    elsewhere and the WAL hop would be pure overhead.  ``open`` cost is
    O(number of segments): the manifest names the live files, each is
    validated footer-first, and any file that fails — torn flush,
    bit rot — is *dropped whole* and reported, never half-read.

    A damaged segment is **quarantined**, not destroyed: the file is
    renamed to ``<name>.damaged`` (outside the orphan sweep) so the
    bytes stay available for the hand-salvage recipe in
    ``docs/STORAGE.md``.  With ``read_only=True`` the open changes
    nothing at all — no manifest rewrite, no quarantine rename, no
    orphan sweep, no WAL truncation — and every mutating method
    raises; this is what ``dio segments`` (without ``--compact``) and
    ``load_session`` use, so inspecting or loading a store can never
    make its damage worse.
    """

    def __init__(self, root: str | Path, *, flush_events: int = 4096,
                 clock: Optional[Callable[[], int]] = None,
                 create: bool = True, read_only: bool = False) -> None:
        self.root = Path(root)
        self.read_only = read_only
        if not self.root.exists():
            if not create or read_only:
                raise SegmentError(f"no segment store at {self.root}")
            self.root.mkdir(parents=True, exist_ok=True)
        if flush_events < 1:
            raise SegmentError("flush_events must be >= 1")
        self.flush_events = flush_events
        self._clock = clock or (lambda: 0)
        self._segments: list[Segment] = []
        self._buffer: list[dict] = []
        self._buffer_session = ""
        self._buffer_wal_id = 0
        self._crash_hook: Optional[Callable[[str], None]] = None

        #: Segments sealed, and segments a zone-pruned scan skipped.
        self.flushes_total = 0
        self.scan_pruned_total = 0

        self.open_report = {"segments_opened": 0, "segments_dropped": 0,
                            "dropped": [], "orphans_removed": 0,
                            "wal_docs_recovered": 0,
                            "wal_docs_skipped_sealed": 0,
                            "wal_torn_bytes_dropped": 0}
        self._manifest = self._read_manifest()
        for name in list(self._manifest["segments"]):
            try:
                self._segments.append(Segment(self.root / name))
                self.open_report["segments_opened"] += 1
            except SegmentError as exc:
                self.open_report["segments_dropped"] += 1
                entry = {"name": name, "error": str(exc)}
                if not self.read_only:
                    # Quarantine, never destroy: the damaged bytes are
                    # the only copy a hand salvage could work from.
                    quarantine = name + ".damaged"
                    try:
                        os.replace(self.root / name,
                                   self.root / quarantine)
                    except OSError:
                        pass            # e.g. the file is gone entirely
                    else:
                        entry["quarantined"] = quarantine
                self.open_report["dropped"].append(entry)
                self._manifest["segments"].remove(name)
        if self.open_report["segments_dropped"] and not self.read_only:
            self._write_manifest()
        if not self.read_only:
            live = set(self._manifest["segments"])
            for path in sorted(self.root.glob("*.dseg*")):
                if path.name.endswith(".damaged"):
                    continue            # quarantined evidence, keep it
                if path.name not in live:
                    # A crash between segment write and manifest update
                    # (flush or compaction) strands the file; its rows
                    # are still covered by the WAL / the old segments.
                    path.unlink(missing_ok=True)
                    self.open_report["orphans_removed"] += 1
        self._wal = WriteAheadLog(self.root / WAL_NAME)
        wal_sealed = self._manifest.get("wal_sealed", 0)
        for rec_id, session, docs in self._wal.open(
                read_only=self.read_only):
            if 1 <= rec_id <= wal_sealed:
                # The record survived a crash between the manifest
                # publish and the WAL reset; its docs are already in a
                # sealed segment, so replaying would duplicate them.
                self.open_report["wal_docs_skipped_sealed"] += len(docs)
                continue
            self._buffer.extend(docs)
            self._buffer_wal_id = max(self._buffer_wal_id, rec_id)
            if session and not self._buffer_session:
                self._buffer_session = session
        self._wal.ensure_next_id(wal_sealed + 1)
        report = self._wal.report or {}
        self.open_report["wal_docs_recovered"] = (
            report.get("docs_recovered", 0)
            - self.open_report["wal_docs_skipped_sealed"])
        self.open_report["wal_torn_bytes_dropped"] = report.get(
            "torn_bytes_dropped", 0)

    # -- manifest ------------------------------------------------------

    def _read_manifest(self) -> dict:
        path = self.root / MANIFEST_NAME
        if not path.exists():
            return {"format": MANIFEST_FORMAT, "next_seq": 1,
                    "segments": [], "wal_sealed": 0}
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise SegmentError(f"corrupt manifest {path}") from exc
        if manifest.get("format") != MANIFEST_FORMAT:
            raise SegmentError(
                f"{path}: unsupported format {manifest.get('format')!r}")
        return manifest

    def _write_manifest(self) -> None:
        path = self.root / MANIFEST_NAME
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(self._manifest, sort_keys=True,
                                  indent=1) + "\n", encoding="utf-8")
        os.replace(tmp, path)

    # -- write path ----------------------------------------------------

    def _require_writable(self, op: str) -> None:
        if self.read_only:
            raise SegmentError(
                f"store {self.root} is open read-only: {op} refused")

    def append(self, docs: list[dict], session: str = "") -> None:
        """Durably accept documents (WAL first), flushing at the bound."""
        if not docs:
            return
        self._require_writable("append")
        rec_id, _ = self._wal.append(session, docs)
        self._buffer.extend(docs)
        self._buffer_wal_id = max(self._buffer_wal_id, rec_id)
        if session and not self._buffer_session:
            self._buffer_session = session
        if len(self._buffer) >= self.flush_events:
            self.flush()

    def import_batch(self, batch: LaneBatch, session: str = "") -> int:
        """Bulk path: already-durable documents, no WAL hop.

        The one chunker: ``flush_events``-row runs of the batch become
        one segment each; the tail shorter than one chunk becomes a
        final (small) segment rather than a WAL entry, so the result is
        fully sealed.  The chunks are encoded on every CPU a large
        import may use (:func:`_encoded`); this process alone takes the
        clock, publishes each file and updates the manifest, in seq
        order, so a crash leaves what a one-CPU import leaves.
        """
        self._require_writable("import")
        total = len(batch)
        chunks = [range(start, min(start + self.flush_events, total))
                  for start in range(0, total, self.flush_events)]
        with closing(_encoded(batch, chunks)) as encoded:
            for segment in encoded:
                self._seal(segment, session)
        return total

    def _seal(self, encoded: EncodedSegment, session: str,
              wal_sealed: int = 0) -> Segment:
        """Publish one encoded segment under the next seq and add it to
        the manifest."""
        seq = self._manifest["next_seq"]
        name = f"seg-{seq:06d}.dseg"
        publish(self.root / name, encoded, session=session,
                seq=seq, created_ns=self._clock())
        if self._crash_hook is not None:
            self._crash_hook("flush")
        self._manifest["next_seq"] = seq + 1
        self._manifest["segments"].append(name)
        if wal_sealed:
            # Published atomically with the segment: replay skips WAL
            # records up to this id, so a crash before the WAL reset
            # below cannot duplicate the rows just sealed.
            self._manifest["wal_sealed"] = max(
                self._manifest.get("wal_sealed", 0), wal_sealed)
        self._write_manifest()
        segment = Segment(self.root / name)
        self._segments.append(segment)
        self.flushes_total += 1
        return segment

    def flush(self) -> Optional[Segment]:
        """Seal the buffered tail into a segment and truncate the WAL."""
        if not self._buffer:
            return None
        self._require_writable("flush")
        segment = self._seal(encode_segment(DocBatch(self._buffer)),
                             self._buffer_session,
                             wal_sealed=self._buffer_wal_id)
        self._buffer = []
        self._buffer_session = ""
        self._buffer_wal_id = 0
        if self._crash_hook is not None:
            self._crash_hook("flush-published")
        self._wal.reset()
        return segment

    def seal(self) -> None:
        """Flush any tail and close the WAL (end of a tracing run)."""
        self.flush()
        self._wal.close()

    def close(self) -> None:
        self._wal.close()

    # -- maintenance ---------------------------------------------------

    def compact(self, small_rows: Optional[int] = None) -> dict:
        """Merge contiguous runs of small segments into one apiece.

        A segment is *small* below ``small_rows`` (default: the flush
        threshold).  Only runs that are contiguous in manifest order
        merge, and the merged segment takes the run's position — so
        the global document order (stable time sort over manifest
        order) is exactly what it was before compaction.  Crash
        safety: the merged file is written first, the manifest swap is
        atomic, and the stale inputs are deleted last; a crash at any
        point leaves one consistent view.
        """
        self._require_writable("compact")
        threshold = small_rows if small_rows is not None else self.flush_events
        order = list(self._manifest["segments"])
        by_name = {seg.path.name: seg for seg in self._segments}
        runs: list[list[str]] = []
        run: list[str] = []
        for name in order:
            if by_name[name].rows < threshold:
                run.append(name)
            else:
                if len(run) > 1:
                    runs.append(run)
                run = []
        if len(run) > 1:
            runs.append(run)
        if not runs:
            return {"compactions": 0, "segments_merged": 0, "rows": 0}

        merged_rows = 0
        merged_names = 0
        for run in runs:
            batch = JoinedBatch([by_name[name].lanes() for name in run])
            seq = self._manifest["next_seq"]
            new_name = f"seg-{seq:06d}.dseg"
            write_batch(self.root / new_name, batch,
                        session=by_name[run[0]].session, seq=seq,
                        created_ns=self._clock())
            if self._crash_hook is not None:
                self._crash_hook("compact")
            self._manifest["next_seq"] = seq + 1
            position = self._manifest["segments"].index(run[0])
            self._manifest["segments"] = [
                name for name in self._manifest["segments"]
                if name not in run]
            self._manifest["segments"].insert(position, new_name)
            self._write_manifest()
            for name in run:
                (self.root / name).unlink(missing_ok=True)
            merged_rows += len(batch)
            merged_names += len(run)
        self._reload_segments()
        return {"compactions": len(runs), "segments_merged": merged_names,
                "rows": merged_rows}

    def _reload_segments(self) -> None:
        by_name = {seg.path.name: seg for seg in self._segments}
        self._segments = [
            by_name.get(name) or Segment(self.root / name)
            for name in self._manifest["segments"]]

    # -- read path -----------------------------------------------------

    def segments(self) -> list[Segment]:
        """Live segments in manifest (and therefore document) order."""
        return list(self._segments)

    def scan(self, query: Optional[dict] = None) -> list[dict]:
        """Matching documents, zone-map pruned at segment granularity.

        Segments whose zone maps prove the query's conjunctive
        constraints unsatisfiable are skipped without decoding one
        block; surviving segments (and the unflushed buffer) run the
        compiled predicate per row.
        """
        predicate = compile_query(query)
        constraints = prune_constraints(query)
        out: list[dict] = []
        for segment in self._segments:
            if constraints and not segment.may_match(constraints):
                self.scan_pruned_total += 1
                continue
            out.extend(doc for doc in segment.docs() if predicate(doc))
        out.extend(doc for doc in self._buffer if predicate(doc))
        return out

    def count(self, query: Optional[dict] = None) -> int:
        """Number of matching documents (same pruning as :meth:`scan`)."""
        return len(self.scan(query))

    def all_docs(self) -> list[dict]:
        """Every stored document in global stable time order."""
        docs: list[dict] = []
        for segment in self._segments:
            docs.extend(segment.docs())
        docs.extend(self._buffer)
        return sort_docs(docs)

    def load_into(self, store, index: str = "dio_trace",
                  rename_to: Optional[str] = None) -> tuple[str, int]:
        """Bulk-load every document into a :class:`DocumentStore`.

        The twin of ``persistence.import_session``: same index fields,
        same session stamping, same document order — a store loaded
        from segments is indistinguishable from one loaded from the
        JSON-lines oracle.  The blocks go in as lanes, in **one**
        ``bulk_columnar`` call (all-or-nothing under a tenant quota);
        every block is checksum-verified and decoded before that call,
        so a damaged store fails here with no row landed, and only the
        documents themselves wait for a reader.

        Row order is the stable ``time`` order :meth:`all_docs`
        defines.  Segments back to back plus the tail already are in
        that order when ``time`` is a dense int lane that never
        decreases (what ``save_session`` writes); anything else —
        segments that overlap in time, a ``time`` that is missing or
        not an int somewhere — takes the rows by the sort permutation.
        """
        session = rename_to or self.session() or "dio-session"
        batch = time_ordered(SegmentBatch(self._segments, self._buffer,
                                          session))
        store.ensure_index(index, indexed_fields=INDEXED_EVENT_FIELDS)
        store.bulk_columnar(index, batch)
        return session, len(batch)

    def session(self) -> Optional[str]:
        """The session label of the stored capture (first segment's)."""
        for segment in self._segments:
            if segment.session:
                return segment.session
        return self._buffer_session or None

    # -- health --------------------------------------------------------

    def verify(self) -> dict:
        """Full checksum sweep over every segment plus the WAL state."""
        reports = [segment.verify() for segment in self._segments]
        return {"ok": all(r["ok"] for r in reports),
                "segments": reports,
                "wal": dict(self._wal.report or {}),
                "buffer_docs": len(self._buffer)}

    def stats(self) -> dict:
        segs = []
        for segment in self._segments:
            span = segment.time_range()
            segs.append({"name": segment.path.name, "rows": segment.rows,
                         "session": segment.session, "seq": segment.seq,
                         "bytes": segment.size_bytes,
                         "time_min": span[0] if span else None,
                         "time_max": span[1] if span else None,
                         "zone_fields": sorted(segment.zones)})
        return {"root": str(self.root), "segments": segs,
                "rows": sum(s["rows"] for s in segs) + len(self._buffer),
                "buffer_docs": len(self._buffer),
                "disk_bytes": self.disk_bytes()}

    def disk_bytes(self) -> int:
        """Total on-disk footprint: manifest + segments + WAL."""
        total = 0
        for name in (MANIFEST_NAME, WAL_NAME):
            total += wal_file_size(self.root / name)
        for segment in self._segments:
            total += segment.size_bytes
        return total

    # -- telemetry ------------------------------------------------------

    def bind_telemetry(self, registry) -> None:
        """Register the ``dio_segment_*`` families on a registry."""
        registry.gauge(
            "dio_segment_files",
            "Immutable segment files currently live in the manifest.",
        ).set_function(lambda: len(self._segments))
        registry.gauge(
            "dio_segment_wal_pending_docs",
            "Documents durable only in the WAL (buffered, unflushed).",
        ).set_function(lambda: len(self._buffer))
