"""Lane batches: documents held as per-field lanes, not as rows.

A batch of documents travels through the backend in one compact form
— one lane (a list of values, one per row) per field — from the ring
buffer or a segment file to the indexes, the columns, the correlator
and back to disk; a ``_source`` dict is only built for a reader that
returns hits.  This module states that form once and holds the pieces
every producer and consumer shares:

- :class:`LaneBatch` — the protocol.  Producers:
  :class:`repro.tracer.batch.RecordBatch` (a decoded ring batch),
  :class:`repro.backend.segments.SegmentBatch` (a loaded session),
  :class:`DocBatch` (documents that already exist) and
  :class:`JoinedBatch` (any of them back to back — the one
  concatenation type).  ``tests/test_lane_batch.py`` runs one suite
  against all of them.
- :class:`Overlay` — fields set on some rows after the batch was built
  (``update_docs`` on documents nobody hydrated yet).
- :func:`time_ordered` — the one row-ordering rule of the segment
  engine, shared by the load and the save.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, chain, compress, islice
from operator import le
from typing import Any, Iterable, Optional, Protocol

from repro.backend.query import get_field

#: One top-level field of a batch: ``(field, values, present)``.
#: ``values`` holds one entry per row, ``None`` where the row lacks the
#: field; ``present`` is ``None`` when every row carries the field,
#: else one 0/1 byte per row — an explicit ``None`` value *is* present.
LaneColumn = tuple[str, list, Optional[bytes]]

#: Value classes a lane may be pre-grouped over
#: (:meth:`LaneBatch.groups_for`): ``bool`` and ``float`` compare equal
#: to ``int`` across types (``True == 1 == 1.0``), so grouping them
#: would merge rows a per-document index keeps distinct-typed.
GROUP_SAFE = frozenset((str, int, type(None)))


class LaneBatch(Protocol):
    """What the store, the shard router, the fault and crash wrappers,
    the correlator and the segment writer ask of a batch of documents
    held as per-field lanes."""

    def __len__(self) -> int:
        """Number of documents (rows)."""

    def values_for(self, field: str) -> list:
        """One value per row: ``get_field(doc, field)`` over
        :meth:`to_docs`, read off the lanes instead.  May alias the
        batch's storage — never mutate it."""

    def groups_for(self, field: str
                   ) -> Optional[list[tuple[Any, Iterable[int]]]]:
        """``(value, rows)`` pairs partitioning exactly the rows whose
        value is not ``None``, in first-seen order — or ``None`` when
        the lane is not pre-grouped.  Only lanes of exact ``str``/``int``
        values may group (:data:`GROUP_SAFE`)."""

    def dense_int(self, field: str) -> bool:
        """``True`` only if every row's value is an exact non-``None``
        ``int``."""

    def to_docs(self) -> list[dict]:
        """The documents, materialised once (memoised): the store keeps
        these very dicts, so a batch holds no second copy."""

    def take(self, rows) -> "LaneBatch":
        """The sub-batch holding ``rows`` (a list or a ``range``), in
        that order (commutes with :meth:`to_docs`/:meth:`values_for`/
        :meth:`columns`; can be taken again)."""

    def columns(self) -> list[LaneColumn]:
        """One :data:`LaneColumn` per top-level key any row carries —
        what a writer needs and :meth:`values_for` cannot say: whether
        a ``None`` is a value or an absence.  In no particular order;
        :meth:`row_keys` has the order."""

    def row_keys(self, row: int) -> list[str]:
        """The keys of one row, in document order."""

    def overlay(self, rows: list[int], fields: dict) -> bool:
        """``doc.update(fields)`` on ``rows`` without building a
        document: every reader above sees the new values, each new key
        last in its row.  ``False`` — and nothing changed — when the
        batch cannot say that without its documents (it already has a
        column for one of the keys), so the caller hydrates instead."""


def sort_key(value: Any):
    """Total order over document field values: ``None`` first, then
    mixed types by type name, then value.  The search path sorts hits
    with it and the segment engine its rows, so a session round-tripped
    through segments reloads in exactly the order a sorted JSON-lines
    export would produce."""
    if value is None:
        return (0, "", "")
    if isinstance(value, bool):
        return (1, "bool", value)
    if isinstance(value, (int, float)):
        return (1, "num", value)
    return (1, type(value).__name__, str(value))


def time_ordered(batch: LaneBatch) -> LaneBatch:
    """``batch`` with its rows in stable ``sort_key(time)`` order.

    The batch itself when ``time`` is a dense int lane that never
    decreases (what a tracer ships and ``save_session`` writes);
    anything else — batches that interleave in time, a ``time`` that is
    missing or not an int somewhere — takes the sort permutation.
    """
    times = batch.values_for("time")
    if batch.dense_int("time") and all(map(le, times,
                                           islice(times, 1, None))):
        return batch
    keys = list(map(sort_key, times))
    return batch.take(sorted(range(len(keys)), key=keys.__getitem__))


def transpose(docs: list[dict]) -> list[LaneColumn]:
    """Rows to lanes: one :data:`LaneColumn` per key, first-seen order."""
    out = []
    for field in dict.fromkeys(field for doc in docs for field in doc):
        present = bytes(field in doc for doc in docs)
        out.append((field, [doc.get(field) for doc in docs],
                    present if 0 in present else None))
    return out


def _dense_int(values: list) -> bool:
    return set(map(type, values)) <= {int}


def _groups(values: list) -> Optional[list[tuple[Any, list[int]]]]:
    """First-seen ``(value, rows)`` groups of a group-safe lane.

    An all-int lane is left to :meth:`LaneBatch.dense_int`: timestamps
    would make one group per row.
    """
    classes = set(map(type, values))
    if classes == {int} or not classes <= GROUP_SAFE:
        return None
    groups: dict = {}
    for row, value in enumerate(values):
        try:
            groups[value].append(row)
        except KeyError:
            groups[value] = [row]
    groups.pop(None, None)
    return list(groups.items())


def _project(values, rows):
    """``values`` at ``rows`` (a list or a ``range``)."""
    if type(rows) is range and rows.step == 1:
        return values[rows.start:rows.stop]
    return list(map(values.__getitem__, rows))


class Overlay:
    """Fields set on some rows of a lane batch after it was built.

    One *shape* per overlay — the keys of the first update, in its
    order: every row then carries its overlaid keys in that one order,
    which is where ``dict.update`` puts them whichever rows an update
    reaches first.  An update of another shape is refused.
    """

    __slots__ = ("_n", "_fields")

    def __init__(self, n: int) -> None:
        self._n = n
        #: field -> (value per row, 0/1 per row)
        self._fields: dict[str, tuple[list, bytearray]] = {}

    def set(self, rows: Iterable[int], fields: dict,
            docs: Optional[list[dict]]) -> bool:
        """Set ``fields`` on ``rows`` — and on ``docs``, the batch's
        documents if they were built already.  ``False``, and nothing
        set, for an update of another shape."""
        if self._fields and list(self._fields) != list(fields):
            return False
        for field, value in fields.items():
            entry = self._fields.get(field)
            if entry is None:
                entry = self._fields[field] = ([None] * self._n,
                                               bytearray(self._n))
            values, present = entry
            for row in rows:
                values[row] = value
                present[row] = 1
        if docs is not None:
            for row in rows:
                docs[row].update(fields)
        return True

    def merged(self, field: str, base: list) -> list:
        """``base`` with the overlaid rows of ``field`` on top."""
        entry = self._fields.get(field)
        if entry is None:
            return base
        values, present = entry
        return [own if has else under
                for has, own, under in zip(present, values, base)]

    def columns(self) -> list[LaneColumn]:
        return [(field, values, bytes(present))
                for field, (values, present) in self._fields.items()]

    def apply(self, docs: list[dict]) -> None:
        """Land the overlay on freshly built documents."""
        for field, (values, present) in self._fields.items():
            for doc, value in zip(compress(docs, present),
                                  compress(values, present)):
                doc[field] = value

    def keys_at(self, row: int) -> list[str]:
        return [field for field, (_, present) in self._fields.items()
                if present[row]]

    def take(self, rows) -> "Overlay":
        out = Overlay(len(rows))
        out._fields = {
            field: (_project(values, rows),
                    bytearray(_project(present, rows)))
            for field, (values, present) in self._fields.items()}
        return out


class DocBatch:
    """Documents that already exist, behind the lane-batch protocol:
    the hydrated prefix of an index, the rows of a WAL flush."""

    __slots__ = ("_docs", "_cache")

    def __init__(self, docs: list[dict]) -> None:
        self._docs = docs
        self._cache: dict[str, list] = {}

    def __len__(self) -> int:
        return len(self._docs)

    def values_for(self, field: str) -> list:
        cached = self._cache.get(field)
        if cached is None:
            cached = self._cache[field] = [get_field(doc, field)
                                           for doc in self._docs]
        return cached

    def groups_for(self, field: str):
        return _groups(self.values_for(field))

    def dense_int(self, field: str) -> bool:
        return _dense_int(self.values_for(field))

    def to_docs(self) -> list[dict]:
        return self._docs

    def take(self, rows) -> "DocBatch":
        return DocBatch(_project(self._docs, rows))

    def columns(self) -> list[LaneColumn]:
        return transpose(self._docs)

    def row_keys(self, row: int) -> list[str]:
        return list(self._docs[row])

    def overlay(self, rows: list[int], fields: dict) -> bool:
        for row in rows:
            self._docs[row].update(fields)
        self._cache.clear()
        return True


class JoinedBatch:
    """Lane batches back to back, as one :class:`LaneBatch`.

    Lanes are joined field by field, the first time each is asked for.
    :meth:`take` shares the whole batch — its lanes, its documents and
    its overlay — and projects them, so the sub-batches of one join
    (the sort permutation, a shard's partition, a segment's chunk)
    never join a lane or assemble a row twice, and an update through
    one of them is seen through all.

    A join reads its parts when asked and memoises what it read: take
    a fresh one (``store.lanes``) after updating the documents under
    it.
    """

    __slots__ = ("_parts", "_starts", "_n", "_whole", "_rows", "_docs",
                 "_cache", "_columns", "_overlay")

    def __init__(self, parts: Iterable[LaneBatch]) -> None:
        self._parts = [part for part in parts if len(part)]
        ends = list(accumulate(map(len, self._parts), initial=0))
        self._starts = ends[:-1]
        self._n = ends[-1]
        self._whole: Optional[JoinedBatch] = None
        self._rows = None
        self._docs: Optional[list[dict]] = None
        self._cache: dict[str, list] = {}
        self._columns: Optional[list[LaneColumn]] = None
        self._overlay: Optional[Overlay] = None

    def __len__(self) -> int:
        return self._n

    def take(self, rows) -> "JoinedBatch":
        out = object.__new__(type(self))
        out._parts = out._starts = out._columns = out._overlay = None
        out._n = len(rows)
        out._whole = self if self._whole is None else self._whole
        out._rows = (rows if self._rows is None
                     else _project(self._rows, rows))
        out._docs = out._cache = None
        return out

    def values_for(self, field: str) -> list:
        if self._whole is not None:
            return _project(self._whole.values_for(field), self._rows)
        cached = self._cache.get(field)
        if cached is None:
            parts = self._parts
            cached = (parts[0].values_for(field) if len(parts) == 1
                      else list(chain.from_iterable(
                          part.values_for(field) for part in parts)))
            if self._overlay is not None:
                cached = self._overlay.merged(field, cached)
            self._cache[field] = cached
        return cached

    def groups_for(self, field: str):
        return _groups(self.values_for(field))

    def dense_int(self, field: str) -> bool:
        return _dense_int(self.values_for(field))

    def to_docs(self) -> list[dict]:
        if self._docs is None:
            if self._whole is not None:
                self._docs = _project(self._whole.to_docs(), self._rows)
            else:
                self._docs = list(chain.from_iterable(
                    part.to_docs() for part in self._parts))
                if self._overlay is not None:
                    self._overlay.apply(self._docs)
        return self._docs

    def columns(self) -> list[LaneColumn]:
        if self._whole is not None:
            rows = self._rows
            return [(field, _project(values, rows),
                     present and bytes(_project(present, rows)))
                    for field, values, present in self._whole.columns()]
        if self._columns is None:
            self._columns = self._join_columns()
        if self._overlay is not None:
            return self._columns + self._overlay.columns()
        return self._columns

    def _join_columns(self) -> list[LaneColumn]:
        parts = self._parts
        if len(parts) == 1:
            return parts[0].columns()
        held: dict[str, dict[int, LaneColumn]] = {}
        for number, part in enumerate(parts):
            for column in part.columns():
                held.setdefault(column[0], {})[number] = column
        out = []
        for field, by_part in held.items():
            values: list = []
            present = bytearray()
            for number, part in enumerate(parts):
                column = by_part.get(number)
                if column is None:      # no row of this part has the key
                    values.extend([None] * len(part))
                    present.extend(bytes(len(part)))
                else:
                    values.extend(column[1])
                    present.extend(column[2] or b"\x01" * len(part))
            out.append((field, values,
                        bytes(present) if 0 in present else None))
        return out

    def row_keys(self, row: int) -> list[str]:
        if self._whole is not None:
            return self._whole.row_keys(self._rows[row])
        number = bisect_right(self._starts, row) - 1
        keys = self._parts[number].row_keys(row - self._starts[number])
        if self._overlay is not None:
            keys = keys + self._overlay.keys_at(row)
        return keys

    def overlay(self, rows: list[int], fields: dict) -> bool:
        if self._whole is not None:
            return self._whole.overlay(_project(self._rows, rows), fields)
        if self._columns is None:
            self._columns = self._join_columns()
        if any(field in fields for field, _, _ in self._columns):
            return False
        if self._overlay is None:
            self._overlay = Overlay(self._n)
        if not self._overlay.set(rows, fields, self._docs):
            return False
        self._cache.clear()
        return True
