"""Columnar decode of ring-buffer record batches (vectorized ingest).

One ``Event`` plus one ``dict`` per record (``Event.to_doc``, the
reference this module is tested against) is 2M short-lived Python
objects per 1M events on the hot path.  :class:`RecordBatch` instead
decodes a whole ring-buffer batch into *lanes*:

- dictionary-coded lanes for the low-cardinality string/int fields
  (``syscall``, ``proc_name``, ``pid``, ``tid``, ``file_type``,
  ``file_tag``): an ``array('i')`` of codes plus a value table, with
  per-code row positions collected during encode so field indexes can
  ingest whole groups at once;
- ``array('q')`` numeric lanes for ``ret`` and the two timestamps;
- the records' ``args`` dicts, as the exit program captured them
  (buffers already their sizes) — grouping them by key tuple into a
  :class:`~repro.backend.lanes.StructLane` is deferred until something
  actually asks for ``args`` (the backend's default indexed fields and
  the correlator's ``args.path`` never do; the segment writer does),
  and sanitising its lanes then is a no-op on clean args, the work
  only for raw records staged straight into a ring.

``to_docs()`` materialises the exact documents ``Event.to_doc`` would
have produced — same key order, same sparsity, same value objects —
and memoises them, so the lazy path is byte-identical whenever it is
actually observed.  The lanes degrade gracefully: any value whose
class is not safe for the fast representation falls back to a plain
list lane with identical semantics.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from operator import is_not
from typing import Any, Callable, Iterator, Optional

from repro.backend.lanes import (GROUP_SAFE, LaneColumn, Overlay, StructLane,
                                 walk_lane)
from repro.backend.query import get_field
from repro.tracer.events import SCALAR_ARGS, sanitized_lane


class _DictLane:
    """A dictionary-grouped lane: row positions per distinct value.

    The original per-row value list is kept verbatim (it already
    exists from the decode comprehension, so grouping is pure gain);
    the eager work is one dict-grouping pass that lets downstream
    consumers (field indexes) append a whole value-group per dict
    operation instead of one row at a time.  ``None`` rows appear in
    no group.
    """

    __slots__ = ("_values", "_groups")

    def __init__(self, values: list) -> None:
        groups: dict = {}
        for i, value in enumerate(values):
            try:
                groups[value].append(i)
            except KeyError:
                groups[value] = [i]
        groups.pop(None, None)
        self._values = values
        self._groups = groups

    def values(self) -> list:
        """One value per row — the decode-time list, untouched."""
        return self._values

    def grouped(self) -> list[tuple[Any, list[int]]]:
        """``(value, rows)`` pairs in first-seen order."""
        return list(self._groups.items())


def _make_lane(values: list):
    """Dictionary-group a lane when safe; otherwise keep the raw list.

    Only exact ``str``/``int`` values are grouped: ``bool`` and
    ``float`` compare equal across types (``True == 1``, ``1.0 == 1``),
    so grouping them could merge rows ``Event.to_doc`` treats as
    distinct and break the byte-identity contract.  The class check is
    one C-speed pass (``set(map(type, ...))``), not a per-row branch.
    """
    if set(map(type, values)) <= GROUP_SAFE:
        return _DictLane(values)
    return values


def _num_lane(values: list):
    """Pack an all-``int`` lane into ``array('q')``; else keep the list."""
    if set(map(type, values)) == {int}:
        try:
            return array("q", values)
        except OverflowError:
            pass
    return values


def _lane_values(lane) -> list:
    """One Python value per row, whatever the lane representation."""
    if type(lane) is _DictLane:
        return lane.values()
    if type(lane) is array:
        return lane.tolist()
    return lane


def _take_lane(lane, rows: list[int]):
    """Project a lane onto a row subset, keeping its representation.

    A ``_DictLane`` subset stays group-safe (subset of group-safe
    values); an ``array('q')`` subset stays all-``int``.  Plain list
    lanes stay plain lists — re-probing groupability on the subset
    would be wasted work for a representation that already degrades
    gracefully.
    """
    if type(lane) is _DictLane:
        values = lane.values()
        return _DictLane([values[i] for i in rows])
    if type(lane) is array:
        return array("q", map(lane.__getitem__, rows))
    return [lane[i] for i in rows]


class RecordBatch:
    """One ring-buffer batch decoded into columnar lanes.

    Implements :class:`repro.backend.lanes.LaneBatch` — the protocol
    ``bulk_columnar`` consumes, stated there once for this class, for
    a loaded session's ``SegmentBatch`` and for the joins of them.

    Build with :meth:`decode`; ``len()`` is the record count.  The
    batch iterates as the documents ``Event.to_doc`` would have built,
    so a consumer that needs documents (the spill WAL) can treat it as
    a document sequence; the ``DiagnosisTap`` reads its lanes.
    """

    __slots__ = ("session", "_n", "_syscall", "_proc", "_pid", "_tid",
                 "_file_type", "_file_tag", "_ret", "_time", "_time_exit",
                 "_offset", "_raw_args", "_args", "_docs", "_cache",
                 "_overlay")

    #: Keys every document carries, in ``Event.to_doc`` order, then the
    #: ones a document only has when the value is not ``None``.
    _DENSE_KEYS = ("syscall", "args", "ret", "pid", "tid", "proc_name",
                   "time", "time_exit", "duration_ns", "session")
    _SPARSE_KEYS = ("file_type", "offset", "file_tag")
    _KEYS = frozenset(_DENSE_KEYS + _SPARSE_KEYS)

    @classmethod
    def decode(cls, records: list[dict], session: str = "") -> "RecordBatch":
        """Decode raw ring records (the consumer's ``_take_batch`` output).

        One C-speed pass per lane instead of one Python ``Event`` per
        record.  The records' ``args`` dicts are referenced, not copied;
        grouping and sanitising them is deferred to first use.
        """
        self = cls.__new__(cls)
        self.session = session
        self._n = len(records)
        self._syscall = _make_lane([r["syscall"] for r in records])
        self._proc = _make_lane([r["comm"] for r in records])
        self._pid = _make_lane([r["pid"] for r in records])
        self._tid = _make_lane([r["tid"] for r in records])
        self._file_type = _make_lane([r.get("file_type") for r in records])
        self._file_tag = _make_lane([r.get("file_tag") for r in records])
        self._ret = _num_lane([r["ret"] for r in records])
        self._time = _num_lane([r["enter_ns"] for r in records])
        self._time_exit = _num_lane([r["exit_ns"] for r in records])
        self._offset = [r.get("offset") for r in records]
        self._raw_args = [r["args"] for r in records]
        self._args = None
        self._docs = None
        self._cache = {}
        self._overlay = None
        return self

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[dict]:
        return iter(self.to_docs())

    def take(self, rows: list[int]) -> "RecordBatch":
        """A sub-batch holding ``rows`` of this batch, in that order.

        The shard router partitions one decoded batch into per-shard
        sub-batches without round-tripping through documents: every
        lane is projected in one pass, keeping its representation, and
        args stay zero-copy references.  Memoised state is not shared
        (sub-batches sanitise/materialise independently on first use);
        an overlay goes along.
        """
        out = RecordBatch.__new__(RecordBatch)
        out.session = self.session
        out._n = len(rows)
        out._syscall = _take_lane(self._syscall, rows)
        out._proc = _take_lane(self._proc, rows)
        out._pid = _take_lane(self._pid, rows)
        out._tid = _take_lane(self._tid, rows)
        out._file_type = _take_lane(self._file_type, rows)
        out._file_tag = _take_lane(self._file_tag, rows)
        out._ret = _take_lane(self._ret, rows)
        out._time = _take_lane(self._time, rows)
        out._time_exit = _take_lane(self._time_exit, rows)
        out._offset = [self._offset[i] for i in rows]
        out._raw_args = [self._raw_args[i] for i in rows]
        out._args = None
        out._docs = None
        out._cache = {}
        out._overlay = (None if self._overlay is None
                        else self._overlay.take(rows))
        return out

    def args(self) -> StructLane:
        """The sanitised arguments, one dict per row, as a
        :class:`~repro.backend.lanes.StructLane` (memoised; sanitised
        a lane at a time, on first ask)."""
        if self._args is None:
            self._args = sanitized_lane(self._raw_args)
        return self._args

    def _lane_for(self, field: str):
        if field == "syscall":
            return self._syscall
        if field == "proc_name":
            return self._proc
        if field == "pid":
            return self._pid
        if field == "tid":
            return self._tid
        if field == "file_type":
            return self._file_type
        if field == "file_tag":
            return self._file_tag
        return None

    def groups_for(self, field: str):
        """Pre-grouped ``(value, rows)`` pairs, or ``None``.

        ``None`` means the field has no grouped representation (high
        cardinality, exotic value types, or a computed field) and the
        caller should fall back to :meth:`values_for`.
        """
        if field == "session":
            return [(self.session, range(self._n))]
        lane = self._lane_for(field)
        if type(lane) is _DictLane:
            return lane.grouped()
        return None

    def dense_int(self, field: str) -> bool:
        """True when every row of ``field`` is a non-``None`` exact int.

        Lets index ingest skip per-row ``None``/indexability checks for
        packed numeric lanes (``array('q')`` proves the invariant).
        """
        if field == "ret":
            return type(self._ret) is array
        if field == "time":
            return type(self._time) is array
        if field == "time_exit":
            return type(self._time_exit) is array
        if field == "duration_ns":
            return (type(self._time) is array
                    and type(self._time_exit) is array)
        return False

    def values_for(self, field: str) -> list:
        """One value per row for ``field``, exactly as ``get_field``
        would read it off the ``to_docs()`` documents (memoised)."""
        cached = self._cache.get(field)
        if cached is not None:
            return cached
        lane = self._lane_for(field)
        if lane is not None:
            out = _lane_values(lane)
        elif field == "ret":
            out = _lane_values(self._ret)
        elif field == "time":
            out = _lane_values(self._time)
        elif field == "time_exit":
            out = _lane_values(self._time_exit)
        elif field == "duration_ns":
            out = [exit_ns - enter_ns for enter_ns, exit_ns
                   in zip(_lane_values(self._time),
                          _lane_values(self._time_exit))]
        elif field == "offset":
            out = self._offset
        elif field == "session":
            out = [self.session] * self._n
        elif field == "args":
            out = self.args()
        elif field == "file_path":
            out = [None] * self._n
        elif field.startswith("args."):
            parts = field.split(".")[1:]
            out = None
            if self._args is None and len(parts) == 1:
                # One argument of every row (the correlator's ``path``):
                # what sanitising leaves alone is read off the records.
                out = [raw.get(parts[0]) for raw in self._raw_args]
                if not set(map(type, out)) <= SCALAR_ARGS:
                    out = None
            if out is None:
                out = walk_lane(self.args(), parts)
        else:
            out = [get_field(doc, field) for doc in self.to_docs()]
        if self._overlay is not None:
            out = self._overlay.merged(field, out)
        self._cache[field] = out
        return out

    def columns(self) -> list[LaneColumn]:
        """One lane column per document key (see :meth:`to_docs`)."""
        out: list[LaneColumn] = [(field, self.values_for(field), None)
                                 for field in self._DENSE_KEYS]
        for field in self._SPARSE_KEYS:
            values = self.values_for(field)
            present = bytes(map(is_not, values, repeat(None)))
            out.append((field, values, present if 0 in present else None))
        if self._overlay is not None:
            out.extend(self._overlay.columns())
        return out

    def row_keys(self, row: int) -> list[str]:
        keys = list(self._DENSE_KEYS)
        keys.extend(field for field in self._SPARSE_KEYS
                    if self.values_for(field)[row] is not None)
        if self._overlay is not None:
            keys.extend(self._overlay.keys_at(row))
        return keys

    def overlay(self, rows: list[int], fields: dict) -> bool:
        """Set ``fields`` on ``rows`` — keys no document of a batch has
        at parse time, such as the correlator's ``file_path``."""
        if not self._KEYS.isdisjoint(fields):
            return False
        if self._overlay is None:
            self._overlay = Overlay(self._n)
        if not self._overlay.set(rows, fields, self._docs):
            return False
        # Whatever was read through the documents or under a dotted
        # name may have changed; the batch's own lanes have not.
        self._cache = {field: values for field, values in self._cache.items()
                       if field in self._KEYS}
        return True

    def docs_at(self, rows) -> list[dict]:
        """The documents of ``rows`` (see :class:`LaneBatch`): those
        :meth:`to_docs` built, or the rows' own sub-batch's."""
        if self._docs is not None:
            return [self._docs[row] for row in rows]
        return self.take(rows).to_docs()

    def to_docs(self) -> list[dict]:
        """Materialise this batch's documents (memoised).

        Key order and sparsity replicate ``Event.to_doc`` exactly:
        syscall, args, ret, pid, tid, proc_name, time, time_exit,
        duration_ns, session, then file_type/offset/file_tag only when
        present (``file_path`` is never set at parse time).
        """
        if self._docs is not None:
            return self._docs
        session = self.session
        docs = []
        append = docs.append
        rows = zip(_lane_values(self._syscall), self.args(),
                   _lane_values(self._ret), _lane_values(self._pid),
                   _lane_values(self._tid), _lane_values(self._proc),
                   _lane_values(self._time), _lane_values(self._time_exit),
                   self._offset, _lane_values(self._file_type),
                   _lane_values(self._file_tag))
        for (syscall, args, ret, pid, tid, proc, enter_ns, exit_ns,
             offset, file_type, file_tag) in rows:
            doc = {
                "syscall": syscall,
                "args": args,
                "ret": ret,
                "pid": pid,
                "tid": tid,
                "proc_name": proc,
                "time": enter_ns,
                "time_exit": exit_ns,
                "duration_ns": exit_ns - enter_ns,
                "session": session,
            }
            if file_type is not None:
                doc["file_type"] = file_type
            if offset is not None:
                doc["offset"] = offset
            if file_tag is not None:
                doc["file_tag"] = file_tag
            append(doc)
        if self._overlay is not None:
            self._overlay.apply(docs)
        self._docs = docs
        return docs
