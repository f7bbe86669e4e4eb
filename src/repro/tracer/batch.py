"""Columnar decode of ring-buffer record batches (vectorized ingest).

One ``Event`` plus one ``dict`` per record (``Event.to_doc``, the
reference this module is tested against) is 2M short-lived Python
objects per 1M events on the hot path.  :class:`RecordBatch` instead
decodes a whole ring-buffer batch into *lanes* — one list per field,
the form every lane batch and every column holds
(:mod:`repro.backend.lanes`):

- one list per record field (``syscall``, ``proc_name``, ``pid``,
  ``tid``, ``file_type``, ``file_tag``, ``ret``, the two timestamps,
  ``offset``), built by one comprehension each and holding the
  records' own value objects;
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
actually observed.
"""

from __future__ import annotations

from itertools import repeat
from operator import is_not, sub
from typing import Iterator

from repro.backend.lanes import (LaneColumn, Overlay, StructLane, _project,
                                 walk_lane)
from repro.backend.query import get_field
from repro.tracer.events import SCALAR_ARGS, sanitized_lane


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

    __slots__ = ("session", "_n", "_lanes", "_raw_args", "_args", "_docs",
                 "_cache", "_overlay")

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
        #: Document field -> one value per row.  Never overlaid: an
        #: overlay refuses :attr:`_KEYS`.
        self._lanes = {
            "syscall": [r["syscall"] for r in records],
            "proc_name": [r["comm"] for r in records],
            "pid": [r["pid"] for r in records],
            "tid": [r["tid"] for r in records],
            "file_type": [r.get("file_type") for r in records],
            "file_tag": [r.get("file_tag") for r in records],
            "ret": [r["ret"] for r in records],
            "time": [r["enter_ns"] for r in records],
            "time_exit": [r["exit_ns"] for r in records],
            "offset": [r.get("offset") for r in records],
        }
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

    def take(self, rows) -> "RecordBatch":
        """A sub-batch holding ``rows`` of this batch, in that order.

        The shard router partitions one decoded batch into per-shard
        sub-batches without round-tripping through documents: every
        lane is projected in one pass and args stay zero-copy
        references.  Memoised state is not shared (sub-batches
        sanitise/materialise independently on first use); an overlay
        goes along.
        """
        out = RecordBatch.__new__(RecordBatch)
        out.session = self.session
        out._n = len(rows)
        out._lanes = {field: _project(values, rows)
                      for field, values in self._lanes.items()}
        out._raw_args = _project(self._raw_args, rows)
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

    def values_for(self, field: str) -> list:
        """One value per row for ``field``, exactly as ``get_field``
        would read it off the ``to_docs()`` documents (memoised)."""
        out = self._lanes.get(field)
        if out is not None:
            return out
        cached = self._cache.get(field)
        if cached is not None:
            return cached
        if field == "duration_ns":
            out = list(map(sub, self._lanes["time_exit"],
                           self._lanes["time"]))
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
                    if self._lanes[field][row] is not None)
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
        lanes = self._lanes
        rows = zip(lanes["syscall"], self.args(), lanes["ret"],
                   lanes["pid"], lanes["tid"], lanes["proc_name"],
                   lanes["time"], lanes["time_exit"], lanes["offset"],
                   lanes["file_type"], lanes["file_tag"])
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
