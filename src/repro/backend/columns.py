"""Typed per-field columns and the aggregation kernels that run on them.

PR 2 made *filtering* fast; this module makes *aggregating* fast.  The
legacy :func:`repro.backend.aggregations.run_aggregations` walks full
``_source`` dicts — one ``get_field`` per document per aggregation,
plus a per-bucket list of source dicts re-walked for every nested
sub-aggregation.  The columnar layer replaces that with flat lanes
(plain lists) addressed by *row number*:

- every live document owns one row (assigned in insertion order, so
  row order equals the store's insertion-rank order);
- each aggregated field gets one :class:`Column` holding
  - **dictionary codes** (``-1`` = no value, ``-2`` = a value no code
    can key) with a code table mapping codes back to the original
    values — group-by on small integers instead of hashing arbitrary
    values, and
  - a **numeric lane** of the rows' own numbers with a validity
    bitmap, plus ``num_kind`` saying which classes it holds — metric
    kernels read a lane instead of walking dicts;
- :class:`ColumnSet` maintains the columns incrementally on append
  (a path table drops ``file_path``'s): a column is built lazily —
  from lanes, hydrating nothing — the first time an aggregation, a
  query clause or a sort touches the field, then kept up to date.

The same column answers the query planner
(:mod:`repro.backend.planner`), which addresses documents by row too:
``term``/``terms`` read a lazily built ``code -> rows`` postings,
``range`` bisects the numeric lane (or a sorted permutation of it),
``prefix``, ``wildcard`` and string ranges walk the dictionary's string
keys,
``exists`` reads the presence bitmap and a sorted search orders rows
by keys read off the dictionary (:meth:`Column.sort_keys`).

The kernels are written to be *byte-identical* with the legacy
dict-walking path: they iterate rows in insertion order, perform the
same arithmetic in the same order (float sums are order-sensitive),
key buckets exactly the way a dict over the original values would, and
decline any shape where fidelity cannot be guaranteed (value-equal keys
of different types, unhashable values, NaN-ish cardinality inputs) so
the store falls back to the legacy oracle.  ``supports()`` makes that
decision *before* any work is done.

This module is the only place that knows how an aggregation is
validated, computed and finished.  The kernels return *mergeable
partials* (:meth:`ColumnSet.partial`) and one :meth:`ColumnSet.merge`
finishes them, whether there is one partial (``DocumentStore.search``,
via :meth:`ColumnSet.run`) or one per shard (the scatter-gather
coordinator in :mod:`repro.backend.router`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import Counter
from fnmatch import fnmatchcase
from itertools import chain, compress, islice, repeat
from operator import is_not, itemgetter, le
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.backend.aggregations import percentile
from repro.backend.lanes import LaneBatch, sort_key, stamped_value
from repro.backend.query import RANGE_OPS

#: Value classes a ``term``/``terms`` clause can match from the
#: dictionary (what the planner calls indexable).
TERM_CLASSES = (str, int, float, bool, tuple)

#: Value classes whose dictionary entry is the document's own value for
#: ordering purposes: equal keys of one class sort alike (a tuple table
#: shares one code between ``(1,)`` and ``(1.0,)``, whose sort keys
#: differ).
_KEYED_CLASSES = frozenset((str, int, float, bool))

#: Aggregation kinds the kernels implement.
BUCKET_KINDS = ("terms", "histogram", "date_histogram")
METRIC_KINDS = ("percentiles", "stats", "avg", "min", "max", "sum",
                "value_count", "cardinality")


class Column:
    """One field's typed storage across all rows — the one per-field
    structure of an index: the planner, the sort and the aggregation
    kernels all read it.

    Two lanes — plain lists, one entry per row — are maintained
    together, plus the ``code -> rows`` postings once a ``term`` has
    asked for them:

    - ``codes``/``table`` — dictionary encoding over every *indexable*
      value (str, int, float, bool, tuple).  Codes key on type, then
      value, so ``1``, ``1.0`` and ``True`` get distinct codes even
      though they are ``==``; when such value-equal codes
      coexist the ``collisions`` flag is raised and terms pushdown is
      refused (a dict over the raw values would merge them under the
      first-seen key, which code-level grouping cannot reproduce).
    - ``nums``/``numeric`` — the rows' numbers themselves (``0`` in a
      row without one), the very objects the documents hold.
      ``num_kind`` summarises their classes, upgrading ``None -> 'q' ->
      'obj'`` / ``None -> 'd' -> 'obj'`` as values arrive: ``'q'`` is
      exact ints of any size, ``'d'`` floats, ``'obj'`` both.
    """

    __slots__ = ("field", "codes", "table", "_code_of",
                 "collisions", "unencodable", "nonnull",
                 "num_kind", "nums", "numeric", "numeric_count", "simple",
                 "num_sorted", "_hi_row", "_num_hi", "_postings", "_order")

    def __init__(self, field: str):
        self.field = field
        #: One code per row into ``table``: ``-1`` where the row holds
        #: no value (missing or ``None``), ``-2`` where its value
        #: is one no code can key (list/dict).
        self.codes: list[int] = []
        self.table: list = []
        #: value class -> {value -> code}: one table per class costs no
        #: key tuple per distinct value, and a value found in another
        #: class's table *is* the cross-type collision.
        self._code_of: dict[type, dict] = {}
        self.collisions = False
        #: rows holding values the code table cannot key (list/dict).
        self.unencodable = 0
        self.nonnull = bytearray()
        self.num_kind: Optional[str] = None   # 'q' | 'd' | 'obj'
        self.nums: Optional[list] = None
        self.numeric = bytearray()
        self.numeric_count = 0
        #: True while numeric values arrive in non-decreasing row order
        #: (trace timestamps do) — unlocks the bisect bucketiser, which
        #: finds histogram bucket boundaries in O(buckets·log n) and
        #: hands nested aggs contiguous ``range`` partitions.
        self.num_sorted = True
        self._hi_row = -1
        self._num_hi: Any = None
        #: True while every value is str/int/bool — the types whose
        #: ``repr`` distinguishes exactly what distinct codes do, which
        #: is what the cardinality kernel needs.
        self.simple = True
        #: code -> ascending rows, built by the first ``term`` that asks
        #: and kept current from then on: a new lane extends it, a
        #: rewritten row moves, nothing indexed earlier is rebuilt.
        self._postings: Optional[list[list[int]]] = None
        #: ``(keys, rows)`` of the numeric rows in key order, for a
        #: ``range`` over a lane that is not sorted as it stands;
        #: dropped on any mutation.
        self._order: Optional[tuple[list, list]] = None

    # ------------------------------------------------------------------
    # Write path

    def append(self, value: Any) -> None:
        """Add one row at the end holding ``value``."""
        self.codes.append(-1)
        self.nonnull.append(0)
        self.numeric.append(0)
        if self.nums is not None:
            self.nums.append(0)
        self.set(len(self.codes) - 1, value)

    def extend(self, values: Iterable[Any]) -> None:
        """Append one row per value — :meth:`append` in a loop, lane-wise.

        One class probe selects a C-speed pass for the two lane shapes
        trace events are made of — exact ``int`` and exact
        ``str``/``None`` — when the column holds no other value class
        yet (so there is no cross-class collision to look for).  Every
        slot ends up exactly as per-row ``append`` leaves it; any other
        lane (bool, float, tuple, unhashable, mixed) takes the per-row
        loop.
        """
        if not isinstance(values, list):
            values = list(values)
        classes = set(map(type, values))
        base = len(self.codes)
        if classes == {int} and self._code_of.keys() <= {int} \
                and self.num_kind in (None, "q"):
            self._extend_int(values)
        elif classes and classes <= {str, type(None)} \
                and self._code_of.keys() <= {str}:
            self._extend_str(values)
        else:
            for value in values:
                self.append(value)
            return
        self._post_lane(base)

    def extend_repeated(self, value: Any, rows: int) -> None:
        """``extend([value] * rows)`` without the list: onto a column
        that holds no class but ``str``, a ``str`` is one code
        repeated (a stamped session label); anything else is
        :meth:`extend`."""
        if not rows or type(value) is not str \
                or not self._code_of.keys() <= {str}:
            self.extend([value] * rows)
            return
        base = len(self.codes)
        codes_of = self._code_of.setdefault(str, {})
        code = codes_of.get(value)
        if code is None:
            code = codes_of[value] = len(self.table)
            self.table.append(value)
        self.codes.extend(repeat(code, rows))
        self.nonnull.extend(b"\x01" * rows)
        self.numeric.extend(bytes(rows))
        self._order = None
        postings = self._postings
        if postings is not None:
            postings.extend([] for _ in range(len(self.table)
                                              - len(postings)))
            postings[code].extend(range(base, base + rows))

    def _post_lane(self, base: int) -> None:
        """Add the rows from ``base`` on to postings that exist."""
        postings = self._postings
        if postings is None:
            return
        postings.extend([] for _ in range(len(self.table) - len(postings)))
        for row, code in enumerate(self.codes[base:], base):
            if code >= 0:
                postings[code].append(row)

    def _encode_lane(self, cls: type, values: list) -> bool:
        """Append ``values``' codes; first-seen order numbers new ones.
        Returns whether any value is ``None``.

        ``None`` is in no code table, so it reads back as ``-1``.
        """
        distinct = dict.fromkeys(values)
        holes = None in distinct
        if holes:
            del distinct[None]
        if distinct:
            codes_of = self._code_of.setdefault(cls, {})
            fresh = [v for v in distinct if v not in codes_of] \
                if codes_of else distinct
            start = len(self.table)
            codes_of.update(zip(fresh, range(start, start + len(fresh))))
            self.table.extend(fresh)
            if len(distinct) == 1 and not holes:
                # One value on every row (a stamped session label).
                self.codes.extend(repeat(codes_of[values[0]], len(values)))
            else:
                self.codes.extend(map(codes_of.get, values, repeat(-1)))
        else:
            self.codes.extend(repeat(-1, len(values)))
        self._order = None
        return holes

    def _extend_int(self, values: list) -> None:
        """``extend`` for exact ints onto an int-only column."""
        base = len(self.codes)
        n = len(values)
        self._encode_lane(int, values)
        self.nonnull.extend(b"\x01" * n)
        self.numeric.extend(b"\x01" * n)
        self.numeric_count += n
        if self.nums is None:
            self.nums = [0] * base
            self.num_kind = "q"
        self.nums.extend(values)
        if not self.num_sorted:
            return
        hi = self._num_hi
        if (hi is None or hi <= values[0]) and all(
                map(le, values, islice(values, 1, None))):
            self._hi_row = base + n - 1
            self._num_hi = values[-1]
            return
        # The frontier stops at the last row before the first decrease.
        for row, value in enumerate(values, base):
            if hi is not None and value < hi:
                self.num_sorted = False
                return
            hi = self._num_hi = value
            self._hi_row = row

    def _extend_str(self, values: list) -> None:
        """``extend`` for exact ``str``/``None`` onto a str-only column."""
        holes = self._encode_lane(str, values)
        self.nonnull.extend(bytes(map(is_not, values, repeat(None))) if holes
                            else b"\x01" * len(values))
        # No numeric lane to pad: a numeric value would have opened an
        # int/float code table, and this column has none.
        self.numeric.extend(bytes(len(values)))

    def set(self, row: int, value: Any) -> None:
        """(Re)assign one row's value."""
        self.nonnull[row] = 0 if value is None else 1
        old = self.codes[row]
        self._set_code(row, value)
        if self._postings is not None:
            self._repost(row, old, self.codes[row])
        self._set_numeric(row, value)
        self._order = None

    def _repost(self, row: int, old: int, new: int) -> None:
        """Move ``row`` between the postings of two codes."""
        if old == new:
            return
        postings = self._postings
        if old >= 0:
            rows = postings[old]
            del rows[bisect_left(rows, row)]
        if new >= 0:
            if new == len(postings):      # a value first seen just now
                postings.append([])
            insort(postings[new], row)

    def _set_code(self, row: int, value: Any) -> None:
        old = self.codes[row]
        if old == -2:
            self.unencodable -= 1
        if value is None:
            self.codes[row] = -1
            return
        try:
            codes_of = self._code_of.get(value.__class__)
            if codes_of is None:
                hash(value)               # unhashable: no table for it
                codes_of = self._code_of[value.__class__] = {}
            code = codes_of.get(value)
            if code is None:
                code = len(self.table)
                codes_of[value] = code
                self.table.append(value)
                # 1 vs 1.0 vs True: a dict over raw values would
                # merge these; code-level grouping cannot.
                if len(self._code_of) > 1 and any(
                        value in other for other in self._code_of.values()
                        if other is not codes_of):
                    self.collisions = True
            elif (isinstance(value, float) and value == 0.0
                    and repr(value) != repr(self.table[code])):
                self.collisions = True    # -0.0 sharing 0.0's code
        except TypeError:                 # unhashable (list/dict)
            self.codes[row] = -2
            self.unencodable += 1
            self.simple = False
            return
        self.codes[row] = code
        # bool is an int subclass, so str/int/bool stay "simple";
        # floats and tuples (repr-ambiguous for cardinality) do not.
        if isinstance(value, float) or not isinstance(value, (str, int)):
            self.simple = False

    def _set_numeric(self, row: int, value: Any) -> None:
        if (not isinstance(value, (int, float))) or isinstance(value, bool):
            if self.numeric[row]:
                self.numeric_count -= 1
            self.numeric[row] = 0
            if self.nums is not None:
                self.nums[row] = 0
            return
        kind = "d" if isinstance(value, float) else "q"
        if self.num_kind is None:
            self.num_kind = kind
            self.nums = [0] * len(self.codes)
        elif self.num_kind != kind:
            self.num_kind = "obj"
        if self.num_sorted:
            hi = self._num_hi
            # ``value != value`` spots NaN; a rewrite below the frontier
            # or a decrease conservatively drops the sorted flag.
            if (row < self._hi_row or value != value
                    or (hi is not None and value < hi)):
                self.num_sorted = False
            else:
                self._hi_row = row
                self._num_hi = value
        self.nums[row] = value
        if not self.numeric[row]:
            self.numeric_count += 1
        self.numeric[row] = 1

    # ------------------------------------------------------------------
    # Read path

    def gather_numeric(self, rows: Sequence[int]) -> list:
        """Original numeric values over ``rows``, in row order.

        Exactly what ``aggregations._numeric_values`` extracts from the
        source dicts (ints/floats, bools excluded, missing skipped).
        The result may alias column storage — callers must not mutate.
        """
        if self.num_kind is None:
            return []
        nums = self.nums
        if self.numeric_count == len(self.codes):
            # Dense column: every row is numeric, no per-row filtering.
            if type(rows) is range and rows.step == 1:
                if len(rows) == len(self.codes):
                    return nums
                return nums[rows.start:rows.stop]
            return list(map(nums.__getitem__, rows))
        numeric = self.numeric
        return [nums[row] for row in rows if numeric[row]]

    @property
    def sorted_dense(self) -> bool:
        """Every row holds a number and they never decrease: row order
        *is* value order (a trace's ``time``)."""
        return self.num_sorted and self.numeric_count == len(self.codes)

    # ------------------------------------------------------------------
    # Planner reads: ascending rows.  A returned sequence may be the
    # column's own storage — never mutate it, and copy it before
    # writing to the index.

    def _rows_of(self, codes) -> Sequence[int]:
        """Ascending rows holding any of the (distinct) ``codes``."""
        if not codes:
            return []
        if (len(codes) == len(self.table) and not self.unencodable
                and 0 not in self.nonnull):
            # Every code, and every row holds one (a session's ``term``
            # on its own store): every row, without building postings.
            return range(len(self.codes))
        postings = self._postings
        if postings is None:
            postings = self._postings = [[] for _ in self.table]
            for row, code in enumerate(self.codes):
                if code >= 0:
                    postings[code].append(row)
        held = [postings[code] for code in codes if postings[code]]
        if sum(map(len, held)) == len(self.codes):
            # Every row (a session's ``term`` on its own store): the
            # contiguous range takes the kernels' slice paths.
            return range(len(self.codes))
        if len(held) == 1:
            return held[0]
        return sorted(chain.from_iterable(held))

    def _string_codes(self, keep) -> list[int]:
        """Codes of the dictionary's string keys that ``keep`` admits."""
        return [code for cls, codes_of in self._code_of.items()
                if issubclass(cls, str)
                for key, code in codes_of.items() if keep(key)]

    def rows_equal(self, values: Iterable[Any]) -> Sequence[int]:
        """Rows whose value ``==`` one of ``values`` (hashable, of
        :data:`TERM_CLASSES`).

        Every class table is asked, so ``1``, ``1.0`` and ``True`` keep
        matching each other as ``==`` on the documents does; NaN equals
        nothing.
        """
        codes: dict[int, None] = {}
        for value in values:
            if value != value:
                continue
            for cls, codes_of in self._code_of.items():
                if issubclass(cls, TERM_CLASSES):
                    code = codes_of.get(value)
                    if code is not None:
                        codes[code] = None
        return self._rows_of(codes)

    def rows_in_range(self, bounds: dict) -> Optional[Sequence[int]]:
        """Rows a ``range`` clause matches, or ``None`` to decline.

        Declined — the predicate decides — are bounds that are neither
        numbers nor strings (they can compare against exotic document
        values), unknown operators (``compile_query`` raises) and
        numeric bounds over a column that has held a ``bool``, which
        compares as a number but is in no numeric lane.  Bounds of
        mixed kinds match nothing: every document fails one comparison
        with a ``TypeError``; so does a NaN bound.
        """
        numeric = text = False
        for op, bound in bounds.items():
            if op not in RANGE_OPS:
                return None
            if isinstance(bound, (int, float)):
                if bound != bound:
                    return []
                numeric = True
            elif isinstance(bound, str):
                text = True
            else:
                return None
        if numeric and text:
            return []
        if text:
            return self._rows_of(self._string_codes(
                lambda key: all(RANGE_OPS[op](key, bound)
                                for op, bound in bounds.items())))
        if bool in self._code_of:
            return None
        if self.num_kind is None:
            return []
        if self.sorted_dense:
            keys, rows = self.nums, None
        else:
            keys, rows = self._numeric_order()
        lo, hi = 0, len(keys)
        for op, bound in bounds.items():
            if op == "gte":
                lo = max(lo, bisect_left(keys, bound))
            elif op == "gt":
                lo = max(lo, bisect_right(keys, bound))
            elif op == "lte":
                hi = min(hi, bisect_right(keys, bound))
            else:
                hi = min(hi, bisect_left(keys, bound))
        if lo >= hi:
            return []
        return range(lo, hi) if rows is None else sorted(rows[lo:hi])

    def _numeric_order(self) -> tuple[list, list]:
        """``(keys, rows)``: the numeric rows in stable key order (NaN
        left out — it compares false against every bound)."""
        order = self._order
        if order is None:
            nums = self.nums
            rows = list(compress(range(len(nums)), self.numeric))
            if self.num_kind != "q":
                rows = [row for row in rows if nums[row] == nums[row]]
            rows.sort(key=nums.__getitem__)
            order = self._order = (list(map(nums.__getitem__, rows)), rows)
        return order

    def rows_with_prefix(self, prefix: str) -> Sequence[int]:
        """Rows whose string value starts with ``prefix``."""
        return self._rows_of(self._string_codes(
            lambda key: key.startswith(prefix)))

    def rows_matching(self, pattern: str) -> Sequence[int]:
        """Rows whose string value matches the shell-style ``pattern``
        (``fnmatchcase``: ``*``, ``?``, ``[seq]``, ``[!seq]``)."""
        return self._rows_of(self._string_codes(
            lambda key: fnmatchcase(key, pattern)))

    def rows_present(self) -> Sequence[int]:
        """Rows whose value is not ``None`` (``exists``)."""
        nonnull = self.nonnull
        if nonnull.count(1) == len(nonnull):
            return range(len(nonnull))
        return list(compress(range(len(nonnull)), nonnull))

    def sort_keys(self, rows: Sequence[int]) -> Optional[list]:
        """One key per row of ``rows`` that orders as
        ``sort_key(value)`` does, or ``None`` when the dictionary
        cannot say (unencodable rows, classes outside
        :data:`_KEYED_CLASSES`) and the caller reads the documents."""
        if self.numeric_count == len(self.codes):
            # Plain numbers only: ``(1, "num", v)`` orders as ``v``.
            return self.gather_numeric(rows)
        if self.unencodable or not self._code_of.keys() <= _KEYED_CLASSES:
            return None
        by_code = list(map(sort_key, self.table))
        by_code.append(sort_key(None))    # what code -1 reads
        return list(map(by_code.__getitem__,
                        map(self.codes.__getitem__, rows)))


def _extend(column: Column, batch: LaneBatch, field: str) -> None:
    """``column`` extended by ``field``'s lane of ``batch``: a stamped
    lane as one value repeated, its list never built."""
    stamped = stamped_value(batch, field)
    if stamped is None:
        column.extend(batch.values_for(field))
    else:
        column.extend_repeated(stamped[0], len(batch))


class ColumnSet:
    """All columns of one index plus the doc-id ↔ row mapping.

    The row mapping is always maintained (cheap: one dict entry and a
    list append per new document); per-field columns are built lazily
    on first use — by an aggregation, a query clause or a sort — and
    updated incrementally afterwards.
    """

    def __init__(self) -> None:
        self._row_of: dict[str, int] = {}
        self._doc_ids: list[str] = []
        self._columns: dict[str, Column] = {}

    @property
    def row_of(self) -> dict[str, int]:
        return self._row_of

    @property
    def doc_ids(self) -> list[str]:
        """Row -> doc id."""
        return self._doc_ids

    # ------------------------------------------------------------------
    # Lifecycle (called from Index.bulk_append / set_paths)

    def extend_new(self, doc_ids: list[str], batch: LaneBatch) -> None:
        """Lane-append brand-new documents: the row mapping extends with
        zipped C-speed bulk operations, and the columns that already
        exist (those a query, a sort or an aggregation has touched —
        usually none during ingest) take the batch's lane.
        """
        base = len(self._doc_ids)
        self._doc_ids.extend(doc_ids)
        self._row_of.update(zip(doc_ids, range(base, base + len(doc_ids))))
        for field, column in self._columns.items():
            _extend(column, batch, field)

    def drop(self, field: str) -> None:
        """Forget the column of ``field`` and of every dotted name under
        it: :meth:`ensure_column` builds them again from the lanes."""
        for name in [name for name in self._columns
                     if name == field or name.startswith(field + ".")]:
            del self._columns[name]

    def ensure_column(self, field: str,
                      batches: Iterable[LaneBatch]) -> Column:
        """Build (or fetch) the column for ``field``, reading the rows
        off ``batches`` — every part of the index, in row order — as
        lanes: building a column builds no document."""
        column = self._columns.get(field)
        if column is None:
            column = Column(field)
            for batch in batches:
                _extend(column, batch, field)
            self._columns[field] = column
        return column

    def all_rows(self) -> Sequence[int]:
        """Every row, ascending (= insertion order): an index is
        append-only, so a row is its document's insertion rank."""
        return range(len(self._doc_ids))

    # ------------------------------------------------------------------
    # Pushdown decision

    @staticmethod
    def supports(aggs: Any, lookup: Callable[[str], Column]) -> bool:
        """True when every aggregation in ``aggs`` can run columnar.

        Conservative and exception-safe: any doubt — malformed spec,
        unknown kind, unencodable values, value-equal code collisions,
        non-repr-safe cardinality input — answers ``False`` and the
        caller uses the legacy path (which also reproduces the legacy
        error behaviour for malformed requests).  ``lookup`` is the
        planner's field resolver (``Index.column``): it builds a
        missing column, so the kernels find every one they read.
        """
        try:
            if not isinstance(aggs, dict) or not aggs:
                return False
            for name, spec in aggs.items():
                if not isinstance(spec, dict):
                    return False
                nested = spec.get("aggs") or spec.get("aggregations")
                kinds = [k for k in spec if k not in ("aggs", "aggregations")]
                if len(kinds) != 1:
                    return False
                kind = kinds[0]
                body = spec[kind]
                if not isinstance(body, dict):
                    return False
                field = body.get("field")
                if not isinstance(field, str) or not field:
                    return False
                if kind in BUCKET_KINDS:
                    column = lookup(field)
                    if kind == "terms":
                        if column.unencodable or column.collisions:
                            return False
                        size = body.get("size", 10)
                        if not isinstance(size, int) or isinstance(size, bool):
                            return False
                    else:
                        interval = (body.get("interval")
                                    or body.get("fixed_interval"))
                        if not isinstance(interval, (int, float)) \
                                or isinstance(interval, bool) or interval <= 0:
                            return False
                        if column.num_kind == "obj":
                            # Mixed int/float values can produce int vs
                            # float bucket members whose legacy handling
                            # we reproduce anyway; NaN/inf keys cannot be
                            # pre-checked cheaply, so stay on this path
                            # only for single-class columns.
                            return False
                    if nested is not None and not ColumnSet.supports(
                            nested, lookup):
                        return False
                elif kind in METRIC_KINDS:
                    if nested:
                        return False
                    column = lookup(field)
                    if kind == "cardinality" and (
                            not column.simple or column.unencodable):
                        return False
                    if kind == "percentiles":
                        percents = body.get("percents",
                                            [1, 5, 25, 50, 75, 95, 99])
                        if not isinstance(percents, (list, tuple)):
                            return False
                else:
                    return False
        except Exception:
            return False
        return True

    # ------------------------------------------------------------------
    # Execution: partial kernels, then one merge for 1 or N partials

    def run(self, aggs: dict, rows: Sequence[int]) -> dict:
        """Evaluate ``aggs`` over ``rows`` — columnar twin of
        :func:`repro.backend.aggregations.run_aggregations`.

        The one-shard case of :meth:`merge`: a single partial, which
        can never be ambiguous.
        """
        return self.merge(aggs, [self.partial(aggs, rows)])

    def partial(self, aggs: dict, rows: Sequence[int]) -> dict:
        """Evaluate ``aggs`` over ``rows`` into a *mergeable partial*.

        ``rows`` must be ascending (insertion order); callers obtain it
        from :meth:`all_rows`, a query plan or a per-bucket partition.
        Assumes :meth:`supports` answered ``True``.

        One entry per aggregation name, shaped by kind so that partials
        over disjoint row sets (shards) combine in :meth:`merge`:

        - bucket kinds: an insertion-ordered ``key -> (doc_count, child
          partial or None)`` map keyed by the original *values* (codes
          are local to one column), recursive for nested requests;
        - ``value_count``: an int; ``cardinality``: the set of value
          ``repr`` strings;
        - ``percentiles``: ``(values, int_only)``; ``stats``/``avg``/
          ``min``/``max``/``sum``: ``(count, min, max, sum, int_only)``.

        A partial may alias column storage and may sit in a cache:
        never mutate one.
        """
        out: dict[str, Any] = {}
        for name, spec in aggs.items():
            kind, body, nested = _parse(spec)
            column = self._columns[body["field"]]
            if kind == "terms":
                out[name] = self._terms(column, rows, nested)
            elif kind in ("histogram", "date_histogram"):
                out[name] = self._histogram(column, body, rows, nested)
            else:
                out[name] = self._metric(kind, column, rows)
        return out

    def _terms(self, column: Column, rows: Sequence[int],
               nested: Optional[dict]) -> dict:
        codes = column.codes
        table = column.table
        contiguous = type(rows) is range and rows.step == 1
        # Either way dict insertion order is first-seen order within
        # the row subset, which is exactly the legacy buckets-dict
        # order — the stable sort in ``merge`` tie-breaks identically.
        if nested:
            partitions: dict[int, list[int]] = {}
            get_part = partitions.get
            if contiguous:
                for row, code in enumerate(codes[rows.start:rows.stop],
                                           rows.start):
                    if code >= 0:
                        part = get_part(code)
                        if part is None:
                            partitions[code] = [row]
                        else:
                            part.append(row)
            else:
                for row in rows:
                    code = codes[row]
                    if code >= 0:
                        part = get_part(code)
                        if part is None:
                            partitions[code] = [row]
                        else:
                            part.append(row)
            return {table[code]: (len(part), self.partial(nested, part))
                    for code, part in partitions.items()}
        # C-level count; popping the missing/unencodable sentinels
        # afterwards leaves first-seen order for the valid codes.
        if contiguous:
            counts = Counter(codes[rows.start:rows.stop])
        else:
            counts = Counter(map(codes.__getitem__, rows))
        counts.pop(-1, None)
        counts.pop(-2, None)
        return {table[code]: (count, None) for code, count in counts.items()}

    def _histogram(self, column: Column, body: dict, rows: Sequence[int],
                   nested: Optional[dict]) -> dict:
        interval = body.get("interval") or body.get("fixed_interval")
        nums = column.nums
        if nums is None:
            return {}
        numeric = column.numeric
        # ``int // int`` is already an int, so the legacy ``int()``
        # coercion is a no-op for pure-int columns with an int interval.
        fast = column.num_kind == "q" and type(interval) is int
        if fast and column.sorted_dense:
            # Sorted dense int column (trace timestamps): bucket
            # boundaries fall out of bisection and each bucket is a
            # contiguous slice of ``rows`` — no per-row Python work.
            partitions = self._sorted_buckets(nums, rows, interval)
        elif nested:
            grouped: dict[Any, list[int]] = {}
            get_part = grouped.get
            if fast:
                for row in rows:
                    if numeric[row]:
                        key = nums[row] // interval * interval
                        part = get_part(key)
                        if part is None:
                            grouped[key] = [row]
                        else:
                            part.append(row)
            else:
                for row in rows:
                    if numeric[row]:
                        key = int(nums[row] // interval) * interval
                        part = get_part(key)
                        if part is None:
                            grouped[key] = [row]
                        else:
                            part.append(row)
            partitions = grouped.items()
        else:
            if fast:
                counts = Counter(nums[row] // interval * interval
                                 for row in rows if numeric[row])
            else:
                counts = Counter(int(nums[row] // interval) * interval
                                 for row in rows if numeric[row])
            return {key: (count, None) for key, count in counts.items()}
        if nested:
            return {key: (len(part), self.partial(nested, part))
                    for key, part in partitions}
        return {key: (len(part), None) for key, part in partitions}

    @staticmethod
    def _sorted_buckets(nums: list, rows: Sequence[int],
                        interval: int) -> list[tuple]:
        """Bucketise a sorted dense int column by bisecting boundaries.

        Returns ``(key, rows_slice)`` pairs in ascending key order —
        exactly the buckets (and bucket members) the scalar loop would
        produce, because for integers every value in
        ``[key, key + interval)`` floors to the same key.
        """
        if type(rows) is range and rows.step == 1:
            vals = (nums if len(rows) == len(nums)
                    else nums[rows.start:rows.stop])
        else:
            vals = list(map(nums.__getitem__, rows))
        out = []
        i, n = 0, len(vals)
        while i < n:
            key = vals[i] // interval * interval
            j = bisect_left(vals, key + interval, i + 1, n)
            out.append((key, rows[i:j]))
            i = j
        return out

    def _metric(self, kind: str, column: Column, rows: Sequence[int]):
        contiguous = type(rows) is range and rows.step == 1
        if kind == "value_count":
            nonnull = column.nonnull
            if contiguous:
                return sum(nonnull[rows.start:rows.stop])
            return sum(map(nonnull.__getitem__, rows))
        if kind == "cardinality":
            codes = column.codes
            if contiguous:
                seen = set(codes[rows.start:rows.stop])
            else:
                seen = set(map(codes.__getitem__, rows))
            seen.discard(-1)
            seen.discard(-2)
            # ``supports`` admitted only str/int/bool values, whose
            # ``repr`` distinguishes exactly what distinct codes do.
            table = column.table
            return {repr(table[code]) for code in seen}
        values = column.gather_numeric(rows)
        if column.num_kind == "q" or not values:
            int_only = True
        elif column.num_kind == "d":
            int_only = False
        else:
            int_only = all(type(v) is int for v in values)
        if kind == "percentiles":
            return values, int_only
        if not values:
            return 0, None, None, 0, int_only
        return len(values), min(values), max(values), sum(values), int_only

    # ------------------------------------------------------------------
    # Merge

    @staticmethod
    def merge(aggs: dict, partials: list[dict]) -> Optional[dict]:
        """Finish :meth:`partial` results into the response dict.

        ``partials`` (at least one) are listed in shard order and cover
        disjoint documents.  Answers ``None`` where the single-store
        bytes depend on cross-shard *document* order, which partials do
        not carry:
        equal-but-distinguishable bucket keys (``1``/``1.0``/``True``,
        ``0.0``/``-0.0``) arriving from different partials, terms ties
        on ``(count, str(key))``, float reductions, NaN percentiles.
        None of these can arise with one partial, so :meth:`run` never
        sees ``None``; a multi-shard caller gathers instead.
        """
        out: dict[str, Any] = {}
        for name, spec in aggs.items():
            kind, body, nested = _parse(spec)
            parts = [partial[name] for partial in partials]
            if kind in BUCKET_KINDS:
                finished = _finish_buckets(kind, body, nested, parts)
            else:
                finished = _finish_metric(kind, body, parts)
            if finished is None:
                return None
            out[name] = finished
        return out


def _parse(spec: dict) -> tuple[str, dict, Optional[dict]]:
    """``(kind, body, nested)`` of one spec :meth:`supports` admitted."""
    nested = spec.get("aggs") or spec.get("aggregations")
    kind = next(k for k in spec if k not in ("aggs", "aggregations"))
    return kind, spec[kind], nested


def _finish_buckets(kind: str, body: dict, nested: Optional[dict],
                    parts: list[dict]) -> Optional[dict]:
    #: first-seen key, summed doc_count, child partials — per bucket.
    merged = {key: [key, count, [child]]
              for key, (count, child) in parts[0].items()}
    for part in parts[1:]:
        for key, (count, child) in part.items():
            entry = merged.get(key)
            if entry is None:
                merged[key] = [key, count, [child]]
                continue
            seen = entry[0]
            if type(key) is not type(seen) or repr(key) != repr(seen):
                # A dict over the raw values would keep whichever of
                # the two the *documents* showed first.
                return None
            entry[1] += count
            entry[2].append(child)
    entries = list(merged.values())
    if kind == "terms":
        # Ties on the legacy sort key are broken by first-seen document
        # order; across partials only first-seen *shard* order is known.
        if len(parts) > 1 and len(entries) != len(
                {(count, str(key)) for key, count, _ in entries}):
            return None
        entries.sort(key=lambda entry: (-entry[1], str(entry[0])))
        entries = entries[:body.get("size", 10)]
    else:
        entries.sort(key=itemgetter(0))
    buckets = []
    for key, count, children in entries:
        bucket: dict[str, Any] = {"key": key, "doc_count": count}
        if nested:
            finished = ColumnSet.merge(nested, children)
            if finished is None:
                return None
            bucket.update(finished)
        buckets.append(bucket)
    return {"buckets": buckets}


def _finish_metric(kind: str, body: dict, parts: list) -> Optional[dict]:
    if kind == "value_count":
        return {"value": sum(parts)}
    if kind == "cardinality":
        return {"value": len(set().union(*parts))}
    if kind == "percentiles":
        values = parts[0][0]
        if len(parts) > 1:
            values = list(chain.from_iterable(part[0] for part in parts))
            # NaNs make ``sorted`` input-order-dependent.
            if (not all(part[1] for part in parts)
                    and any(v != v for v in values)):
                return None
        ordered = sorted(values)
        percents = body.get("percents", [1, 5, 25, 50, 75, 95, 99])
        return {"values": {f"{p:g}": percentile(ordered, p)
                           for p in percents}}
    # stats / avg / min / max / sum: across partials exact only over
    # pure ints, where the reductions are order-free.
    if len(parts) > 1 and not all(part[4] for part in parts):
        return None
    live = [part for part in parts if part[0]]
    if not live:
        if kind == "stats":
            return {"count": 0, "min": None, "max": None,
                    "avg": None, "sum": 0}
        return {"value": 0 if kind == "sum" else None}
    count = sum(part[0] for part in live)
    total = sum(part[3] for part in live)
    if kind == "stats":
        return {
            "count": count,
            "min": min(part[1] for part in live),
            "max": max(part[2] for part in live),
            "avg": total / count,
            "sum": total,
        }
    if kind == "avg":
        return {"value": total / count}
    if kind == "min":
        return {"value": min(part[1] for part in live)}
    if kind == "max":
        return {"value": max(part[2] for part in live)}
    return {"value": total}          # sum
