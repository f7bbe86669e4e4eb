"""The retired per-field secondary index, kept as a planner oracle.

Until the planner answered in row numbers read off the columns
(``repro.backend.planner``), every indexed field of an ``Index`` owned
one of these: postings of *string ids*, sorted arrays, presence sets.
It lives on here, beside ``naive_scan``, as the independent oracle
``tests/test_property_planner.py`` checks the row planner against —
nothing under ``src/`` imports it.

One :class:`FieldIndex` carries every structure the old planner could
use for a single field:

- ``postings`` — value -> set of doc ids, serving ``term``/``terms``;
- a lazily rebuilt **sorted array** (split into a numeric and a string
  partition, because cross-type comparisons raise ``TypeError`` in the
  predicate path and therefore never match), serving ``range`` via
  bisect and ``prefix`` via a bounded walk;
- ``present`` — the set of doc ids whose field value is not ``None``,
  serving ``exists`` exactly.

The index remembers the value each document was indexed under
(``_value_of``), so re-indexing after an **in-place** source mutation
still removes the *old* postings entry — the store's update path no
longer needs to rebuild every field, only the ones that changed.

Sorted partitions are rebuilt lazily: writes mark the index dirty and
the next ``range``/``prefix`` lookup pays one O(n log n) sort, so bulk
load + query-heavy phases (the common trace-analysis shape) amortise
to bisect cost.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Any, Iterable, Optional

_MISSING = object()


def is_indexable(value: Any) -> bool:
    """True for values the postings dict can key on (term/terms)."""
    return isinstance(value, (str, int, float, bool, tuple)) and value is not None


def _is_orderable(value: Any) -> bool:
    """True for values the sorted partitions can hold.

    NaN is excluded: every comparison against NaN is ``False``, so a
    NaN-valued document can never match a range/prefix predicate —
    leaving it out of the sorted array reproduces that exactly (and
    keeps the array totally ordered).
    """
    if isinstance(value, str):
        return True
    if isinstance(value, bool):
        return True
    if isinstance(value, (int, float)):
        return not (isinstance(value, float) and math.isnan(value))
    return False


class FieldIndex:
    """All secondary structures for one document field."""

    __slots__ = ("field", "postings", "present", "_value_of", "_dirty",
                 "_num_keys", "_num_ids", "_str_keys", "_str_ids")

    def __init__(self, field: str):
        self.field = field
        self.postings: dict[Any, set[str]] = {}
        self.present: set[str] = set()
        self._value_of: dict[str, Any] = {}
        self._dirty = False
        self._num_keys: list = []
        self._num_ids: list[str] = []
        self._str_keys: list[str] = []
        self._str_ids: list[str] = []

    # ------------------------------------------------------------------
    # Write path

    def update(self, doc_id: str, value: Any) -> None:
        """(Re)index one document's current value — delta-aware.

        A no-op when the indexed value is unchanged, so refreshing a
        document after a partial update only pays for the fields that
        actually moved.
        """
        if value is None:
            self.present.discard(doc_id)
        else:
            self.present.add(doc_id)
        old = self._value_of.get(doc_id, _MISSING)
        indexable = is_indexable(value)
        if old is _MISSING and not indexable:
            return
        if old is not _MISSING and indexable and old == value:
            # NaN != NaN keeps dirty NaN transitions from short-circuiting.
            return
        if old is not _MISSING:
            self._drop_value(doc_id, old)
        if indexable:
            self.postings.setdefault(value, set()).add(doc_id)
            self._value_of[doc_id] = value
            if _is_orderable(value):
                self._dirty = True

    def extend_new(self, doc_ids: list[str], values: list) -> None:
        """Bulk-index brand-new documents (vectorized ingest path).

        ``doc_ids`` must be ids this index has never seen: that lets
        the loop skip the delta bookkeeping ``update`` pays per call
        (old-value lookup, equality short-circuit, drop) while landing
        in exactly the same postings/present/sorted-partition state as
        one ``update`` per document would.
        """
        present_add = self.present.add
        postings = self.postings
        postings_get = postings.get
        value_of = self._value_of
        dirty = False
        for doc_id, value in zip(doc_ids, values):
            if value is None:
                continue
            present_add(doc_id)
            if not isinstance(value, (str, int, float, tuple)):
                continue                      # bool is an int subclass
            value_of[doc_id] = value
            ids = postings_get(value)
            if ids is None:
                postings[value] = {doc_id}
            else:
                ids.add(doc_id)
            if not dirty and _is_orderable(value):
                dirty = True
        if dirty:
            self._dirty = True

    def extend_new_dense(self, doc_ids: list[str], values: list) -> None:
        """Bulk-index a dense scalar lane of brand-new documents.

        The caller guarantees every value is a non-``None`` orderable
        scalar (a packed numeric lane), so presence and value tracking
        collapse to two C-speed bulk updates and the loop keeps only
        the postings insert.
        """
        if not doc_ids:
            return
        self.present.update(doc_ids)
        self._value_of.update(zip(doc_ids, values))
        postings = self.postings
        postings_get = postings.get
        for doc_id, value in zip(doc_ids, values):
            ids = postings_get(value)
            if ids is None:
                postings[value] = {doc_id}
            else:
                ids.add(doc_id)
        self._dirty = True

    def remove(self, doc_id: str) -> None:
        """Forget a document entirely."""
        self.present.discard(doc_id)
        old = self._value_of.get(doc_id, _MISSING)
        if old is not _MISSING:
            self._drop_value(doc_id, old)

    def _drop_value(self, doc_id: str, old: Any) -> None:
        ids = self.postings.get(old)
        if ids is not None:
            ids.discard(doc_id)
            if not ids:
                del self.postings[old]
        del self._value_of[doc_id]
        if _is_orderable(old):
            self._dirty = True

    # ------------------------------------------------------------------
    # Read path

    def term_ids(self, values: Iterable[Any]) -> set[str]:
        """Union of posting sets for ``values`` (assumed indexable)."""
        out: set[str] = set()
        for value in values:
            ids = self.postings.get(value)
            if ids:
                out |= ids
        return out

    def _rebuild(self) -> None:
        nums: list[tuple[Any, str]] = []
        strs: list[tuple[str, str]] = []
        for doc_id, value in self._value_of.items():
            if isinstance(value, str):
                strs.append((value, doc_id))
            elif _is_orderable(value):
                nums.append((value, doc_id))
        nums.sort(key=itemgetter(0))
        strs.sort(key=itemgetter(0))
        self._num_keys = [pair[0] for pair in nums]
        self._num_ids = [pair[1] for pair in nums]
        self._str_keys = [pair[0] for pair in strs]
        self._str_ids = [pair[1] for pair in strs]
        self._dirty = False

    def range_ids(self, bounds: dict[str, Any]) -> Optional[set[str]]:
        """Doc ids matching range ``bounds`` exactly, or ``None``.

        ``None`` means the bounds cannot be answered from the sorted
        partitions (non-scalar bound types, which *can* compare against
        exotic document values) and the caller must fall back to the
        predicate.  Mixed numeric/string bounds match nothing — every
        document fails one comparison with a ``TypeError`` — so they
        return an (exact) empty set.
        """
        kinds = set()
        for bound in bounds.values():
            if isinstance(bound, bool) or isinstance(bound, (int, float)):
                if isinstance(bound, float) and math.isnan(bound):
                    return set()          # NaN bound: nothing compares true
                kinds.add("num")
            elif isinstance(bound, str):
                kinds.add("str")
            else:
                return None               # unplannable bound type
        if len(kinds) != 1:
            return set()
        if self._dirty:
            self._rebuild()
        if "num" in kinds:
            keys, ids = self._num_keys, self._num_ids
        else:
            keys, ids = self._str_keys, self._str_ids
        lo, hi = 0, len(keys)
        for op, bound in bounds.items():
            if op == "gte":
                lo = max(lo, bisect_left(keys, bound))
            elif op == "gt":
                lo = max(lo, bisect_right(keys, bound))
            elif op == "lte":
                hi = min(hi, bisect_right(keys, bound))
            elif op == "lt":
                hi = min(hi, bisect_left(keys, bound))
            else:                         # unknown op: compile_query raises
                return None
        if lo >= hi:
            return set()
        return set(ids[lo:hi])

    def prefix_ids(self, prefix: str) -> Optional[set[str]]:
        """Doc ids whose string value starts with ``prefix`` (exact)."""
        if not isinstance(prefix, str):
            return None
        if self._dirty:
            self._rebuild()
        keys, ids = self._str_keys, self._str_ids
        start = bisect_left(keys, prefix)
        out: set[str] = set()
        for position in range(start, len(keys)):
            if not keys[position].startswith(prefix):
                break
            out.add(ids[position])
        return out

    def __repr__(self) -> str:
        return (f"<FieldIndex {self.field!r} values={len(self._value_of)} "
                f"present={len(self.present)}>")
