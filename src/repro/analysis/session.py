"""One read of a stored session, shared by everything that analyses it.

Every post-mortem analysis — the detector battery, DFG mining, phase
segmentation, session comparison — is a pass over one session's events
in time order.  :class:`SessionEvents` asks the store for them
**once**, as lanes: one public ``lanes`` request
(``(ids, LaneBatch)`` — no hit envelope, no document — so it works on
any store-shaped object: sharded, tenant-scoped, proxied), put in time
order by :func:`~repro.backend.lanes.time_order`.  The analyses read
the lanes (:meth:`SessionEvents.values`, each read off the batch
once per view) and the row subsets derived here; a
document is built only for evidence a finding cites
(:meth:`SessionEvents.docs`).

A filter of a stably time-sorted list equals the stable time-sort of
the filtered query (unsorted reads return rank order on every store),
so a consumer that used to send ``query + sort=["time"]`` can read the
matching rows here and produce identical bytes — and one that sent the
query unsorted reads them back in stored order
(:meth:`SessionEvents.in_stored_order`).  A view lives for one call:
nothing is memoised across calls, nothing needs invalidating.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from repro.backend.lanes import LaneBatch, _dense_int, time_order
from repro.backend.store import DocumentStore

#: Syscalls that read file data.
READS = ("read", "pread64", "readv")
#: Syscalls that write file data.
WRITES = ("write", "pwrite64", "writev")

T = TypeVar("T")

#: Rows per step of array arithmetic: no whole-session temporary.
STEP_ROWS = 4096


def lane_codes(values: list) -> tuple[dict, np.ndarray]:
    """``(code, codes)``: each distinct value's code, in first-seen
    order, and one code per row — a lane as array arithmetic reads it."""
    code = {value: i for i, value in enumerate(dict.fromkeys(values))}
    return code, np.fromiter(map(code.__getitem__, values), np.intp,
                             len(values))


def times_of(times: list) -> list:
    """A ``time`` lane with 0 where a row has none."""
    if _dense_int(times):
        return times
    return [0 if time_ns is None else time_ns for time_ns in times]


class SessionEvents:
    """The time-ordered events of one session (or of a whole index).

    ``latencies`` are the benchmark's operation latency records of the
    same run (``(start_ns, latency_ns, ...)`` tuples, any order), for a
    detector that reads them beside the events.
    """

    def __init__(self, store: DocumentStore, index: str,
                 session: Optional[str] = None,
                 latencies: Optional[Sequence] = None) -> None:
        self.store = store
        self.index = index
        self.session = session
        self.latencies = latencies or ()
        self._derived: dict = {}
        self._values: dict[str, list] = {}
        self._codes: dict[str, tuple] = {}

    def query(self, extra: Optional[list] = None) -> dict:
        """``extra`` clauses scoped to this session, for store requests."""
        must = list(extra or [])
        if self.session:
            must.append({"term": {"session": self.session}})
        return {"bool": {"must": must}} if must else {"match_all": {}}

    @cached_property
    def _read(self) -> tuple[list[str], LaneBatch, Optional[list[int]]]:
        """``(ids, batch, order)``: the one whole-session read, rows in
        time order; ``order[row]`` is where the store holds a row
        (``None``: where it stands)."""
        ids, batch = self.store.lanes(self.index, self.query())
        order = time_order(batch)
        if order is None:
            return ids, batch, None
        return list(map(ids.__getitem__, order)), batch.take(order), order

    @property
    def ids(self) -> list[str]:
        """The events' backend ids, one per row."""
        return self._read[0]

    @property
    def batch(self) -> LaneBatch:
        """The events, stably sorted by time, as one lane batch."""
        return self._read[1]

    def __len__(self) -> int:
        return len(self._read[1])

    def __bool__(self) -> bool:
        return True         # an empty session's view is still its read

    def values(self, field: str) -> list:
        """One value per event (``get_field`` over the documents), read
        off the batch once per view."""
        values = self._values.get(field)
        if values is None:
            values = self._values[field] = self.batch.values_for(field)
        return values

    #: A view reads as a lane batch does (``dfg.segment_phases`` takes
    #: either), off the same per-view reads.
    values_for = values

    def codes(self, field: str) -> tuple[dict, np.ndarray]:
        """:func:`lane_codes` of a lane, worked out once per view."""
        if field not in self._codes:
            self._codes[field] = lane_codes(self.values(field))
        return self._codes[field]

    def syscall_rows(self, names: Sequence[str]) -> list[int]:
        """The rows whose ``syscall`` is one of ``names``, in time
        order (off the ``syscall`` codes)."""
        code, codes = self.codes("syscall")
        wanted = [code[name] for name in names if name in code]
        return np.flatnonzero(np.isin(codes, wanted)).tolist()

    @cached_property
    def times(self) -> list:
        """Each event's ``time``, 0 where it has none."""
        return times_of(self.values("time"))

    def in_stored_order(self, rows: list[int]) -> list[int]:
        """``rows`` in the order the store holds them — the order an
        unsorted search of the same events returns them in."""
        order = self._read[2]
        return list(rows) if order is None else sorted(
            rows, key=order.__getitem__)

    def derived(self, compute: Callable[["SessionEvents"], T]) -> T:
        """``compute(self)``, worked out once per view — what several
        detectors derive alike (never mutate it)."""
        if compute not in self._derived:
            self._derived[compute] = compute(self)
        return self._derived[compute]

    def _grouped(self, field: str) -> dict:
        groups: dict = {}
        for row, value in enumerate(self.values(field)):
            try:
                groups[value].append(row)
            except KeyError:
                groups[value] = [row]
        return groups

    @cached_property
    def by_file_tag(self) -> dict[Optional[str], list[int]]:
        """Rows per ``file_tag`` (what ``term: file_tag`` matches)."""
        return self._grouped("file_tag")

    @cached_property
    def data_by_file(self) -> dict[str, list[int]]:
        """Rows of data syscalls that carry a file tag, per tag."""
        data = frozenset(READS + WRITES).__contains__
        syscalls = self.values("syscall")
        per_file = {tag: list(compress(rows, map(data, map(
            syscalls.__getitem__, rows))))
            for tag, rows in self.by_file_tag.items() if tag is not None}
        return {tag: rows for tag, rows in per_file.items() if rows}
