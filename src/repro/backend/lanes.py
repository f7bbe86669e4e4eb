"""Lane batches: documents held as per-field lanes, not as rows.

A batch of documents travels through the backend in one compact form
— one lane (a list of values, one per row) per field — from the ring
buffer or a segment file to the indexes, the columns, the correlator
and back to disk; a ``_source`` dict is only built for a reader that
returns hits.  This module states that form once and holds the pieces
every producer and consumer shares:

- :class:`LaneBatch` — the protocol.  Producers: :class:`Lanes`
  (named lanes plus presence bits — the one concrete lane batch:
  :meth:`repro.tracer.batch.RecordBatch.decode` builds one from ring
  records, :meth:`repro.backend.segments.Segment.lanes` from a
  segment's decoded blocks), :class:`DocBatch` (documents that already
  exist) and :class:`JoinedBatch` (any of them back to back — the one
  concatenation type; :class:`repro.backend.segments.SegmentBatch`, a
  loaded session, is one).  ``tests/test_lane_batch.py`` runs one
  suite against all of them.
- :class:`StructLane` — a lane of ``dict``s (``args``) held as lanes
  itself: key tuples stored once, values as one lane per key, a dict
  only for the reader that asks for one.
- :class:`Lookup` — a lane read off another through a table (a
  session's ``file_tag -> file_path``), and :func:`derive_lane`, which
  gives a batch such a lane without building a row.
- :func:`time_order` / :func:`time_ordered` — the one row-ordering
  rule, shared by the segment engine's load and save and by the
  diagnosis layer's one session read.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import partial
from itertools import accumulate, chain, compress, islice, repeat
from operator import is_not, le
from typing import (Any, Callable, Iterable, Iterator, NamedTuple, Optional,
                    Protocol)

from repro.backend.query import get_field, walk_field

#: One top-level field of a batch: ``(field, values, present)``.
#: ``values`` holds one entry per row, ``None`` where the row lacks the
#: field (a list, or a :class:`StructLane` for a field of dicts);
#: ``present`` is ``None`` when every row carries the field, else one
#: 0/1 byte per row — an explicit ``None`` value *is* present.
LaneColumn = tuple[str, list, Optional[bytes]]

#: Value classes a lane may be keyed on by value (:func:`_groups`, a
#: segment's dictionary block): ``bool`` and ``float`` compare equal to
#: ``int`` across types (``True == 1 == 1.0``), so keying them would
#: merge rows a per-document reader keeps distinct-typed.
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

    def to_docs(self) -> list[dict]:
        """The documents, materialised once (memoised): the store keeps
        these very dicts, so a batch holds no second copy."""

    def docs_at(self, rows) -> list[dict]:
        """The documents of ``rows`` (a list or a ``range``), in that
        order, built without the others: the very dicts of
        :meth:`to_docs` once it has run, new ones — equal to them —
        before."""

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


def time_order(batch: LaneBatch) -> Optional[list[int]]:
    """The rows of ``batch`` in stable ``sort_key(time)`` order, or
    ``None`` when they already are.

    ``None`` when ``time`` is a dense int lane that never decreases
    (what a tracer ships and ``save_session`` writes); anything else —
    batches that interleave in time, a ``time`` that is missing or not
    an int somewhere — gets the sort permutation, which a dense int
    lane that does decrease (per-CPU rings interleave) gets from the
    ints themselves.
    """
    times = batch.values_for("time")
    if _dense_int(times):
        if all(map(le, times, islice(times, 1, None))):
            return None
        keys = times            # every sort_key is (1, "num", time)
    else:
        keys = list(map(sort_key, times))
    return sorted(range(len(keys)), key=keys.__getitem__)


def time_ordered(batch: LaneBatch) -> LaneBatch:
    """``batch`` with its rows in :func:`time_order` — the batch itself
    when they already are."""
    order = time_order(batch)
    return batch if order is None else batch.take(order)


def transpose(docs: list[dict]) -> list[LaneColumn]:
    """Rows to lanes: one :data:`LaneColumn` per key, first-seen order."""
    out = []
    for field in dict.fromkeys(field for doc in docs for field in doc):
        present = bytes(field in doc for doc in docs)
        out.append((field, [doc.get(field) for doc in docs],
                    present if 0 in present else None))
    return out


def ascending(rows) -> bool:
    """``rows`` never decrease (a ``range`` of positive step, or a list
    checked pairwise)."""
    if type(rows) is range:
        return rows.step > 0
    return all(map(le, rows, islice(rows, 1, None)))


def _dense_int(values: list) -> bool:
    """Every value is an exact ``int`` (none is ``None``)."""
    return set(map(type, values)) <= {int}


def _groups(values: list) -> Optional[list[tuple[Any, list[int]]]]:
    """``(value, rows)`` pairs partitioning the rows whose value is not
    ``None``, in first-seen order — or ``None`` when the lane holds a
    value outside :data:`GROUP_SAFE`."""
    if not set(map(type, values)) <= GROUP_SAFE:
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
    if type(values) is StructLane:
        return values.take(rows)
    if type(rows) is range and rows.step == 1:
        return values[rows.start:rows.stop]
    return list(map(values.__getitem__, rows))


class StructLane:
    """A lane whose values are ``dict``s (a syscall's ``args``), held
    as lanes.  Rows with the same key tuple — a *shape*, keys in the
    rows' own order — form a group, and a group is stored as one value
    lane per key over just its rows: ``shapes[c]`` is a key tuple,
    ``codes[row]`` the shape of a row (``-1`` where the row lacks the
    field) and ``columns[c][j]`` the values of ``shapes[c][j]`` over
    the rows of shape ``c``, in row order.  Every lane is as long as
    its group, so none has a hole; a lane whose values are dicts may
    itself be a struct lane.

    It reads as a sequence of dicts — a **fresh** dict per read, so no
    two rows, and no two readers, ever share one — and is projected,
    joined, walked by dotted name and written to disk without building
    any.
    """

    __slots__ = ("shapes", "codes", "columns", "_rows", "_rank")

    def __init__(self, shapes: list[tuple], codes: list[int],
                 columns: list[list]) -> None:
        self.shapes = shapes
        self.codes = codes
        self.columns = columns
        #: Worked out on first ask: the rows of each shape, and each
        #: row's rank among the rows of its shape.
        self._rows: Optional[list[list[int]]] = None
        self._rank: Optional[list[int]] = None

    @classmethod
    def of(cls, values: list, present: Optional[bytes] = None
           ) -> Optional["StructLane"]:
        """The struct form of a lane column, or ``None`` when a present
        value is not an exact ``dict``."""
        if present is not None and 0 not in present:
            present = None
        dicts = values if present is None else list(compress(values, present))
        if not set(map(type, dicts)) <= {dict}:
            return None
        # (No per-row temporary outlives its row: a hydrating reader
        # has a heap of documents the collector would walk for them.)
        code_of: dict[tuple, int] = {}
        codes = [code_of.setdefault(tuple(args), len(code_of))
                 for args in dicts]
        members: list[list[int]] = [[] for _ in code_of]
        for at, code in enumerate(codes):
            members[code].append(at)
        lane = cls(list(code_of), codes, [
            [[args[key] for args in group] for key in shape]
            for shape, group in zip(code_of, (
                _project(dicts, rows) for rows in members))])
        lane._rows = members
        if present is not None:
            rows = list(compress(range(len(present)), present))
            held = iter(codes)
            lane.codes = [next(held) if has else -1 for has in present]
            lane._rows = [_project(rows, group) for group in lane._rows]
        return lane

    @classmethod
    def from_groups(cls, n: int, groups: Iterable[tuple[tuple, list[int],
                                                        list]]
                    ) -> "StructLane":
        """``n`` rows from ``(shape, rows, columns)`` groups over
        disjoint ascending ``rows``; groups of one shape merge, a row
        in no group lacks the field."""
        merged: dict[tuple, tuple[list[int], list]] = {}
        for shape, rows, columns in groups:
            if shape in merged:
                rows = merged[shape][0] + rows
                order = sorted(range(len(rows)), key=rows.__getitem__)
                columns = [_project(_concat(pair), order)
                           for pair in zip(merged[shape][1], columns)]
                rows = _project(rows, order)
            merged[shape] = (rows, columns)
        codes = [-1] * n
        for code, (rows, _) in enumerate(merged.values()):
            for row in rows:
                codes[row] = code
        return cls(list(merged), codes,
                   [columns for _, columns in merged.values()]).compacted()

    def _rows_of(self) -> list[list[int]]:
        if self._rows is None:
            rows_of: list[list[int]] = [[] for _ in self.shapes]
            rows_of.append([])                  # code -1
            for row, code in enumerate(self.codes):
                rows_of[code].append(row)
            self._rows = rows_of[:-1]
        return self._rows

    def _rank_of(self) -> list[int]:
        if self._rank is None:
            rank = [0] * len(self.codes)
            for rows in self._rows_of():
                for at, row in enumerate(rows):
                    rank[row] = at
            self._rank = rank
        return self._rank

    def groups(self) -> Iterator[tuple[tuple, list[int], list]]:
        """``(shape, rows, columns)`` of every shape that has a row."""
        return (group for group in zip(self.shapes, self._rows_of(),
                                       self.columns) if group[1])

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[Optional[dict]]:
        return iter(self.dicts())

    def dicts(self) -> list[Optional[dict]]:
        """One new dict per row (``None`` where the row lacks the
        field), built a shape at a time."""
        out: list = [None] * len(self.codes)
        for shape, rows, columns in self.groups():
            built = _dicts_of(shape, columns, len(rows))
            if len(rows) == len(out):
                return built
            for row, args in zip(rows, built):
                out[row] = args
        return out

    def present(self) -> Optional[bytes]:
        """0/1 per row, ``None`` when every row carries the field."""
        codes = self.codes
        if not codes or min(codes) >= 0:
            return None
        return bytes(map((-1).__lt__, codes))

    def take(self, rows) -> "StructLane":
        codes = _project(self.codes, rows)
        picked: list[list[int]] = [[] for _ in self.shapes]
        picked.append([])                       # code -1
        for code, at in zip(codes, _project(self._rank_of(), rows)):
            picked[code].append(at)
        return StructLane(self.shapes, codes, [
            [_project(column, at) for column in columns]
            for columns, at in zip(self.columns, picked)])

    def walk(self, parts: list[str]) -> list:
        """What ``walk_field(row, parts)`` reads below every row."""
        out: list = [None] * len(self.codes)
        for shape, rows, columns in self.groups():
            if parts[0] in shape:
                values = walk_lane(columns[shape.index(parts[0])], parts[1:])
                for row, value in zip(rows, values):
                    out[row] = value
        return out

    def compacted(self) -> "StructLane":
        """The same rows in the one form a lane is written in,
        whichever takes and joins it went through: shapes in the order
        the rows first show them, none without a row."""
        order = [code for code in dict.fromkeys(self.codes) if code >= 0]
        if order == list(range(len(self.shapes))):
            return self
        remap = [-1] * (len(self.shapes) + 1)   # -1 stays -1
        for new, old in enumerate(order):
            remap[old] = new
        return StructLane([self.shapes[old] for old in order],
                          list(map(remap.__getitem__, self.codes)),
                          [self.columns[old] for old in order])

    @classmethod
    def joined(cls, parts: list["StructLane"]) -> "StructLane":
        """``parts`` back to back."""
        code_of: dict[tuple, int] = {}
        codes: list[int] = []
        pieces: list[list[list]] = []           # shape -> its parts' columns
        for part in parts:
            remap = []
            for shape, columns in zip(part.shapes, part.columns):
                code = code_of.setdefault(shape, len(pieces))
                if code == len(pieces):
                    pieces.append([])
                pieces[code].append(columns)
                remap.append(code)
            remap.append(-1)
            codes.extend(map(remap.__getitem__, part.codes))
        return cls(list(code_of), codes, [
            [_concat(lanes) for lanes in zip(*piece)] for piece in pieces])


def _dicts_of(shape: tuple, columns: list, n: int) -> list[dict]:
    """``n`` new dicts of one shape from its key lanes.  A syscall has
    a handful of arguments, and a dict display is three times as fast
    as ``dict(zip(keys, values))``: the small shapes are spelled out."""
    if len(shape) == 1:
        (k0,) = shape
        return [{k0: v0} for v0 in columns[0]]
    if len(shape) == 2:
        k0, k1 = shape
        return [{k0: v0, k1: v1} for v0, v1 in zip(*columns)]
    if len(shape) == 3:
        k0, k1, k2 = shape
        return [{k0: v0, k1: v1, k2: v2} for v0, v1, v2 in zip(*columns)]
    if not shape:
        return [{} for _ in range(n)]
    return list(map(dict, map(zip, repeat(shape), zip(*columns))))


def walk_lane(values, parts: list[str]):
    """``walk_field(value, parts)`` for every value of a lane."""
    if not parts:
        return values
    if type(values) is StructLane:
        return values.walk(parts)
    return [walk_field(value, parts) for value in values]


def _join_column(pieces: list[Optional[tuple[Any, Optional[bytes]]]],
                lengths: list[int]) -> tuple[Any, Optional[bytes]]:
    """One field's ``(values, present)`` over parts back to back; a
    piece is ``None`` where no row of that part carries the field."""
    lanes: list = []
    presents: list[bytes] = []
    for piece, n in zip(pieces, lengths):
        if piece is None:
            lanes.append([None] * n)
            presents.append(bytes(n))
        else:
            lanes.append(piece[0])
            presents.append(piece[1] or b"\x01" * n)
    present = b"".join(presents)
    return (_concat(lanes, presents.__getitem__),
            present if 0 in present else None)


def _concat(lanes, present_of=None):
    """Value lanes back to back.  Struct lanes join as one struct lane
    when every other part is a column of dicts; ``present_of(number)``
    then says which rows of that part are absent (none, without it)."""
    if len(lanes) == 1:
        return lanes[0]
    if any(type(lane) is StructLane for lane in lanes):
        structs = []
        for number, lane in enumerate(lanes):
            if type(lane) is not StructLane:
                lane = StructLane.of(lane, present_of and present_of(number))
                if lane is None:
                    break
            structs.append(lane)
        else:
            return StructLane.joined(structs)
    return list(chain.from_iterable(lanes))


def _assemble_rows(rows: int, columns: list[LaneColumn]) -> list[dict]:
    """One document per row from lane columns.

    The one row assembler: keys in column order, an explicit ``None``
    kept, a field whose ``present`` flag is 0 left out.  The leading
    fully-present columns zip into dicts at C speed; each later column
    then lands one field at a time, which keeps key order.
    """
    dense = 0
    while dense < len(columns) and columns[dense][2] is None:
        dense += 1
    if dense:
        names = [name for name, _, _ in columns[:dense]]
        docs = [dict(zip(names, row))
                for row in zip(*(values for _, values, _ in columns[:dense]))]
    else:
        docs = [{} for _ in range(rows)]
    for name, values, present in columns[dense:]:
        if present is not None:
            holders = compress(docs, present)
            values = compress(values, present)
        else:
            holders = docs
        for doc, value in zip(holders, values):
            doc[name] = value
    return docs


class Derived(NamedTuple):
    """A lane's values or presence bits, built on first read:
    ``build(rows, *inputs)``.

    ``inputs`` are per-row lanes, so a take projects them and derives
    nothing.  ``peek(parts, *inputs)``, when given, reads the dotted
    name below the lane without building it — ``None`` when it cannot.
    """

    build: Callable[..., Any]
    inputs: tuple = ()
    peek: Optional[Callable[..., Optional[list]]] = None


class Repeated:
    """The ``build`` of a stamped lane: ``value`` on every row.  Two
    are equal when their values are of one class and equal, so a join
    of stamped parts is one stamp (:func:`_fused`)."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __call__(self, rows: int) -> list:
        return [self.value] * rows

    def __eq__(self, other: object) -> bool:
        return (type(other) is Repeated
                and type(other.value) is type(self.value)
                and other.value == self.value)

    __hash__ = None


def stamp(value: Any) -> tuple[Derived, None]:
    """A lane entry holding ``value`` on every row, built on first
    read (a session label, a segment's constant block)."""
    return Derived(Repeated(value)), None


def stamped_value(batch: LaneBatch, field: str) -> Optional[tuple]:
    """``(value,)`` when ``field`` of ``batch`` is an unbuilt stamp —
    ``value`` on every row, no list of it built yet — else ``None``.
    What a column takes as one code repeated (:meth:`Column.
    extend_repeated`)."""
    if isinstance(batch, Lanes):
        entry = batch._lanes.get(field)
        if (entry is not None and type(entry[0]) is Derived
                and type(entry[0].build) is Repeated and entry[1] is None):
            return (entry[0].build.value,)
        return None
    if not isinstance(batch, JoinedBatch):
        return None
    if batch._whole is not None:
        return stamped_value(batch._whole, field)
    if not batch._parts:
        return None
    builds = [stamped_value(part, field) for part in batch._parts]
    if None in builds or any(Repeated(value) != Repeated(builds[0][0])
                             for (value,) in builds):
        return None
    return builds[0]


def _present(rows: int, values: list) -> Optional[bytes]:
    present = bytes(map(is_not, values, repeat(None)))
    return present if 0 in present else None


def sparse(values: list) -> tuple[list, Derived]:
    """A lane entry whose ``None`` values are absences (its presence
    bits derived on first read)."""
    return values, Derived(_present, (values,))


def _looked_up(table: dict, rows: int, keys: list) -> list:
    return list(map(table.get, keys))


def _held(table: dict, rows: int, keys: list) -> Optional[bytes]:
    present = bytes(map(table.__contains__, keys))
    return present if 0 in present else None


class Lookup:
    """A lane read off another through a table: a row holds
    ``table[key]`` for its key, and lacks the field where the table
    has no entry for it (a kind-7 segment block, a session's resolved
    file paths).  One per table: every batch derived from it shares its
    two builds, so a join of them derives the lane once
    (:func:`_fused`), and the takes of one join — a router's shards of
    a loaded session — share one derived join (:func:`derive_lane`)."""

    __slots__ = ("table", "values", "present", "_joins")

    def __init__(self, table: dict) -> None:
        self.table = table
        self.values = partial(_looked_up, table)
        self.present = partial(_held, table)
        #: ``id(join) -> (join, derived join)`` of the joins taken from.
        self._joins: dict[int, tuple] = {}

    def entry(self, keys: list) -> tuple[Derived, Derived]:
        """The lane entry over one batch's ``keys`` lane."""
        return Derived(self.values, (keys,)), Derived(self.present, (keys,))


def derive_lane(batch: LaneBatch, field: str, key: str,
                lookup: Lookup) -> Optional[LaneBatch]:
    """``batch`` with ``field`` read off its ``key`` lane through
    ``lookup``, last in each row that has it — a new batch sharing the
    old one's lanes, nothing built: a :class:`Lanes` gains the lane, a
    join each of its parts.  ``None`` for documents, and for a batch
    with a lane of ``field`` already: only their rows can say where the
    key goes."""
    if isinstance(batch, Lanes):
        if field in batch._lanes:
            return None
        keys = batch._lanes.get(key, (None,))[0]
        if type(keys) is not list:
            keys = batch.values_for(key)
        return type(batch)(len(batch), {**batch._lanes,
                                        field: lookup.entry(keys)})
    if not isinstance(batch, JoinedBatch):
        return None
    if batch._whole is not None:
        held = lookup._joins.get(id(batch._whole))
        if held is None:
            held = lookup._joins[id(batch._whole)] = (
                batch._whole, derive_lane(batch._whole, field, key, lookup))
        return None if held[1] is None else held[1].take(batch._rows)
    parts = [derive_lane(part, field, key, lookup) for part in batch._parts]
    return None if any(part is None for part in parts) else JoinedBatch(parts)


class Lanes:
    """Named lanes plus presence bits: the one concrete lane batch.

    ``lanes`` maps each field to ``(values, present)`` — a
    :data:`LaneColumn` without its name — in document key order: a
    row's keys are the fields it carries, in that order.  Either half
    may be a :class:`Derived`, built on first read and kept.  Producers:
    :meth:`repro.tracer.batch.RecordBatch.decode` (ring records) and
    :meth:`repro.backend.segments.Segment.lanes` (a segment's decoded
    blocks, and what a reader rebuilds from them).

    Reads follow ``get_field``: a dotted name walks its root lane, and
    a row's own dotted key wins over the walk.  ``to_docs`` builds the
    documents once, by :func:`_assemble_rows`; the batch iterates as
    them.
    """

    __slots__ = ("_n", "_lanes", "_docs", "_cache")

    def __init__(self, rows: int,
                 lanes: dict[str, tuple[Any, Optional[bytes]]]) -> None:
        self._n = rows
        self._lanes = lanes
        self._docs: Optional[list[dict]] = None
        #: What a read of a name that is no lane of the batch built.
        self._cache: dict[str, list] = {}

    def __len__(self) -> int:
        return self._n

    def _lane(self, field: str) -> tuple[Any, Optional[bytes]]:
        lane = self._lanes[field]
        if Derived in map(type, lane):
            lane = self._lanes[field] = tuple(
                part.build(self._n, *part.inputs) if type(part) is Derived
                else part for part in lane)
        return lane

    def values_for(self, field: str) -> list:
        if "." not in field and field in self._lanes:
            return self._lane(field)[0]
        out = self._cache.get(field)
        if out is None:
            out = self._cache[field] = self._read(field)
        return out

    def _read(self, field: str) -> list:
        """``get_field`` over the rows, for a name no plain lane holds."""
        if "." not in field:
            return [None] * self._n
        own = self._lane(field) if field in self._lanes else None
        if own is not None and own[1] is None:
            return own[0]
        root, *below = field.split(".")
        walked = None
        if root in self._lanes:
            values = self._lanes[root][0]
            if type(values) is Derived and values.peek is not None:
                walked = values.peek(below, *values.inputs)
        if walked is None:
            walked = walk_lane(self.values_for(root), below)
        if own is None:
            return walked
        values, present = own
        return [value if has else under
                for has, value, under in zip(present, values, walked)]

    def columns(self) -> list[LaneColumn]:
        return [(field, *self._lane(field)) for field in self._lanes]

    def row_keys(self, row: int) -> list[str]:
        return [field for field in self._lanes
                if (present := self._lane(field)[1]) is None or present[row]]

    def take(self, rows) -> "Lanes":
        """The sub-batch of ``rows``: every lane projected once (a
        derived lane's inputs instead, so nothing is derived); nothing
        memoised is shared."""
        projected: dict[int, Any] = {}

        def project(values):
            # A lane that is also a derived lane's input is projected once.
            key = id(values)
            if key not in projected:
                projected[key] = _project(values, rows)
            return projected[key]

        def derive(part: Derived) -> Derived:
            return part._replace(inputs=tuple(map(project, part.inputs)))

        lanes = {}
        for field, (values, present) in self._lanes.items():
            values = (derive(values) if type(values) is Derived
                      else project(values))
            if type(present) is Derived:
                present = derive(present)
            elif present is not None:
                present = bytes(_project(present, rows))
                present = present if 0 in present else None
            lanes[field] = (values, present)
        return type(self)(len(rows), lanes)

    def docs_at(self, rows) -> list[dict]:
        if self._docs is not None:
            return _project(self._docs, rows)
        return self.take(rows).to_docs()

    def to_docs(self) -> list[dict]:
        if self._docs is None:
            self._docs = _assemble_rows(self._n, self.columns())
        return self._docs


class DocBatch:
    """Documents that already exist, behind the lane-batch protocol:
    what ``bulk`` appends to an index, a part the path write replaced
    with its rows, the rows of a WAL flush."""

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

    def to_docs(self) -> list[dict]:
        return self._docs

    def docs_at(self, rows) -> list[dict]:
        return _project(self._docs, rows)

    def take(self, rows) -> "DocBatch":
        return DocBatch(_project(self._docs, rows))

    def columns(self) -> list[LaneColumn]:
        return transpose(self._docs)

    def row_keys(self, row: int) -> list[str]:
        return list(self._docs[row])


class JoinedBatch:
    """Lane batches back to back, as one :class:`LaneBatch`.

    Lanes are joined field by field, the first time each is asked for.
    :meth:`take` shares the whole batch — its lanes and its documents —
    and projects them, so the sub-batches of one join (the sort
    permutation, a shard's partition) never join a lane or assemble a
    row twice.  :meth:`gather` shares nothing: a segment's chunk is
    joined from its parts' own rows alone.

    A join reads its parts when asked and memoises what it read: take
    a fresh one (``store.lanes``) after a write to the index under it.
    """

    __slots__ = ("_parts", "_starts", "_n", "_whole", "_rows", "_docs",
                 "_cache", "_columns")

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

    def __len__(self) -> int:
        return self._n

    def take(self, rows) -> "JoinedBatch":
        out = object.__new__(type(self))
        out._parts = out._starts = out._columns = None
        out._n = len(rows)
        out._whole = self if self._whole is None else self._whole
        out._rows = (rows if self._rows is None
                     else _project(self._rows, rows))
        out._docs = out._cache = None
        return out

    def gather(self, rows) -> LaneBatch:
        """:meth:`take` of ``rows`` as a new join of each part's own
        take, sharing nothing with this batch, so a part's derived lane
        is built over ``rows`` alone (a segment's chunk, in its worker).
        Gathered ascending — a part's run by one bisect, a ``range``
        when contiguous, a nested join gathered in turn — then put back
        in ``rows`` order.  Parts that are lanes of one layout join as
        one :class:`Lanes` (:func:`_fused`): a lane every part derives
        alike is derived once, over ``rows`` in their final order."""
        if self._whole is not None:
            return self._whole.gather(_project(self._rows, rows))
        order = None if ascending(rows) else sorted(
            range(len(rows)), key=rows.__getitem__)
        wanted = rows if order is None else _project(rows, order)
        parts = []
        at = 0
        for start, part in zip(self._starts, self._parts):
            upto = bisect_left(wanted, start + len(part), at)
            if upto > at:
                first, last = wanted[at] - start, wanted[upto - 1] - start
                local = (range(first, last + 1)
                         if last - first == upto - at - 1
                         else [row - start for row in wanted[at:upto]])
                parts.append(part.gather(local) if isinstance(
                    part, JoinedBatch) else part.take(local))
            at = upto
        out = _fused(parts)
        if out is None:
            out = JoinedBatch(parts)
        return out if order is None else out.take(      # ``order``'s inverse
            sorted(range(len(order)), key=order.__getitem__))

    def values_for(self, field: str) -> list:
        if self._whole is not None:
            return _project(self._whole.values_for(field), self._rows)
        cached = self._cache.get(field)
        if cached is None:
            lanes = [part.values_for(field) for part in self._parts]
            # A ``None`` read off a lane is an absence to a struct join.
            cached = self._cache[field] = _concat(lanes, lambda number: bytes(
                map(is_not, lanes[number], repeat(None))))
        return cached

    def values_at(self, field: str, rows) -> list:
        """``values_for(field)`` at ``rows`` (a list or a ``range``), in
        that order.  Ascending rows are read off each part without its
        other rows — :meth:`gather`, so a dotted name into ``args``
        walks those rows' arguments alone (the correlator's
        ``args.path`` of the open-family rows); a field the join has
        read already is projected.  May alias the batch's storage —
        never mutate it."""
        if self._whole is not None:
            return self._whole.values_at(field, _project(self._rows, rows))
        if field in self._cache or not ascending(rows):
            return _project(self.values_for(field), rows)
        return self.gather(rows).values_for(field)

    def to_docs(self) -> list[dict]:
        if self._docs is None:
            if self._whole is not None:
                self._docs = _project(self._whole.to_docs(), self._rows)
            else:
                self._docs = list(chain.from_iterable(
                    part.to_docs() for part in self._parts))
        return self._docs

    def docs_at(self, rows) -> list[dict]:
        if self._whole is not None:
            return self._whole.docs_at(_project(self._rows, rows))
        if self._docs is not None:
            return _project(self._docs, rows)
        # Each part builds its own rows; they land back in ``rows``
        # order.
        out: list = [None] * len(rows)
        wanted: dict[int, tuple[list[int], list[int]]] = {}
        starts = self._starts
        for at, row in enumerate(rows):
            number = bisect_right(starts, row) - 1
            slots, local = wanted.setdefault(number, ([], []))
            slots.append(at)
            local.append(row - starts[number])
        for number, (slots, local) in wanted.items():
            for at, doc in zip(slots, self._parts[number].docs_at(local)):
                out[at] = doc
        return out

    def columns(self) -> list[LaneColumn]:
        if self._whole is not None:
            rows = self._rows
            return [(field, _project(values, rows),
                     present and bytes(_project(present, rows)))
                    for field, values, present in self._whole.columns()]
        if self._columns is None:
            self._columns = self._join_columns()
        return self._columns

    def _join_columns(self) -> list[LaneColumn]:
        parts = self._parts
        if len(parts) == 1:
            return parts[0].columns()
        held: dict[str, dict[int, LaneColumn]] = {}
        for number, part in enumerate(parts):
            for column in part.columns():
                held.setdefault(column[0], {})[number] = column[1:]
        lengths = list(map(len, parts))
        return [(field, *_join_column(
            [by_part.get(number) for number in range(len(parts))], lengths))
            for field, by_part in held.items()]

    def row_keys(self, row: int) -> list[str]:
        if self._whole is not None:
            return self._whole.row_keys(self._rows[row])
        number = bisect_right(self._starts, row) - 1
        return self._parts[number].row_keys(row - self._starts[number])


def _fused(parts: list) -> Optional[Lanes]:
    """``parts`` back to back as one :class:`Lanes`, or ``None`` unless
    every part is one with the same fields in the same order.

    A half of a field (its values or its presence bits) that every
    part holds as an unbuilt :class:`Derived` of one ``build`` (and
    ``peek``) stays one, over its parts' inputs joined; plain lists
    join as they are; a field of any other mix is built per part and
    joined.  A list several lanes share is joined once, so a take of
    the result projects it once.
    """
    if not parts or not all(isinstance(part, Lanes) for part in parts):
        return None
    if len(parts) == 1:
        return parts[0]
    fields = list(parts[0]._lanes)
    if any(list(part._lanes) != fields for part in parts[1:]):
        return None
    lengths = list(map(len, parts))
    joined: dict[tuple, Any] = {}

    def join(lanes: list) -> Any:
        key = tuple(map(id, lanes))
        if key not in joined:
            joined[key] = _concat(lanes)
        return joined[key]

    def fuse(halves: tuple) -> Any:
        """The joined half, ``None`` for none, ``False`` for a mix."""
        first = halves[0]
        if type(first) is Derived:
            if not all(type(half) is Derived and half.build == first.build
                       and half.peek is first.peek
                       and len(half.inputs) == len(first.inputs)
                       for half in halves):
                return False
            return first._replace(inputs=tuple(
                map(join, map(list, zip(*(half.inputs for half in halves))))))
        if all(half is None for half in halves):
            return None
        return all(type(half) is list for half in halves) and join(
            list(halves))

    lanes = {}
    for field in fields:
        entry = tuple(map(fuse, zip(*(part._lanes[field] for part in parts))))
        if any(half is False for half in entry):
            entry = _join_column([part._lane(field) for part in parts],
                                 lengths)
        lanes[field] = entry
    return Lanes(sum(lengths), lanes)
