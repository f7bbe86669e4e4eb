"""Multi-threaded I/O contention detection (the paper's Fig. 4 insight).

The paper's reading of Fig. 4: *"when multiple compaction threads
submit I/O requests, the number of syscalls of db_bench threads
decreases, causing an immediate tail-latency spike"*.  The Fig. 4 panel
is a store aggregation; the correlation is arithmetic over one session
read's ``time``, ``proc_name`` and ``tid`` lanes.
"""

from __future__ import annotations

from bisect import bisect_left
from fnmatch import fnmatchcase
from itertools import compress, groupby
from typing import NamedTuple, Optional

import numpy as np

from repro.analysis.session import SessionEvents
from repro.backend.lanes import _dense_int
from repro.backend.store import DocumentStore


def syscall_counts_by_thread(store: DocumentStore, index: str,
                             window_ns: int,
                             session: Optional[str] = None) -> dict:
    """``window -> {thread_name: syscall_count}``: the Fig. 4 panel, a
    date_histogram + terms aggregation."""
    query: dict = {"match_all": {}}
    if session:
        query = {"term": {"session": session}}
    response = store.search(index, query=query, size=0, aggs={
        "over_time": {
            "date_histogram": {"field": "time", "fixed_interval": window_ns},
            "aggs": {"by_thread": {"terms": {"field": "proc_name",
                                             "size": 50}}},
        },
    })
    out: dict[int, dict[str, int]] = {}
    for bucket in response["aggregations"]["over_time"]["buckets"]:
        out[bucket["key"]] = {
            sub["key"]: sub["doc_count"]
            for sub in bucket["by_thread"]["buckets"]
        }
    return out


def _windows(times: list, window_ns: int) -> list[tuple[int, list]]:
    """``(bucket start, [row ranges])`` of a time-ordered ``time`` lane,
    in bucket order; an untimed row is in no bucket.

    A lane of dense ints (every row timed, so sorted) is cut with one
    bisect per bucket; bucketing every row instead made the Fig. 4
    correlation of ``rocksdb_e2e``'s 72,899 events about three times
    slower than the two store aggregations it replaced.
    """
    spans: dict = {}
    if _dense_int(times):
        lo = 0
        while lo < len(times):
            start = times[lo] // window_ns * window_ns
            hi = bisect_left(times, start + window_ns, lo)
            spans[start] = [range(lo, hi)]
            lo = hi
        return list(spans.items())
    at = 0
    for start, run in groupby(None if type(time_ns) not in (int, float)
                              else int(time_ns // window_ns) * window_ns
                              for time_ns in times):
        size = len(list(run))
        if start is not None:
            spans.setdefault(start, []).append(range(at, at + size))
        at += size
    return sorted(spans.items())


def active_compaction_threads(store: DocumentStore, index: str,
                              window_ns: int,
                              prefix: str = "rocksdb:low",
                              session: Optional[str] = None,
                              view: Optional[SessionEvents] = None
                              ) -> dict[int, int]:
    """``window -> distinct prefix* TIDs`` in each window one issued in."""
    view = view or SessionEvents(store, index, session)
    return _active(view, _windows(view.values("time"), window_ns), prefix)


def _active(view: SessionEvents, windows: list, prefix: str) -> dict:
    names, tids = view.values("proc_name"), view.values("tid")
    matching = {name for name in set(names) if type(name) is str
                and fnmatchcase(name, prefix + "*")}.__contains__
    active = {}
    for window, runs in windows:
        found = [tid for run in runs for tid in compress(
            tids[run.start:run.stop], map(matching, names[run.start:run.stop]))]
        if found:
            active[window] = len(set(found) - {None})
    return active


class ContentionReport(NamedTuple):
    """Outcome of the contention analysis."""

    #: Windows classified as contended (>= threshold compaction threads).
    contended_windows: list[int]
    #: Windows with background I/O below the threshold.
    calm_windows: list[int]
    #: Mean client (db_bench) syscalls per window in each regime.
    client_rate_contended: float
    client_rate_calm: float
    #: Threshold used (paper: 5 concurrent compaction threads).
    threshold: int

    @property
    def client_slowdown(self) -> float:
        """How much client syscall activity drops under contention."""
        if self.client_rate_contended <= 0:
            return float("inf") if self.client_rate_calm > 0 else 1.0
        return self.client_rate_calm / self.client_rate_contended


def detect_contention(store: DocumentStore, index: str, window_ns: int,
                      min_compaction_threads: int = 5,
                      client_comm: str = "db_bench",
                      session: Optional[str] = None,
                      background_prefix: str = "rocksdb:low",
                      view: Optional[SessionEvents] = None
                      ) -> ContentionReport:
    """Classify windows (every one an event falls in) by the distinct
    ``background_prefix*`` TIDs in them; compare client syscall rates."""
    view = view or SessionEvents(store, index, session)
    names = view.values("proc_name")
    windows = _windows(view.values("time"), window_ns)
    active = _active(view, windows, background_prefix)
    contended, calm, contended_rates, calm_rates = [], [], [], []
    for window, runs in windows:
        client = sum(names[run.start:run.stop].count(client_comm)
                     for run in runs)
        if active.get(window, 0) >= min_compaction_threads:
            contended.append(window)
            contended_rates.append(client)
        else:
            calm.append(window)
            calm_rates.append(client)
    return ContentionReport(
        contended_windows=contended,
        calm_windows=calm,
        client_rate_contended=float(np.mean(contended_rates)) if contended_rates else 0.0,
        client_rate_calm=float(np.mean(calm_rates)) if calm_rates else 0.0,
        threshold=min_compaction_threads,
    )
