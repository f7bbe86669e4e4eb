"""Multi-threaded I/O contention detection (the paper's Fig. 4 insight).

The paper's reading of Fig. 4: *"when multiple compaction threads
submit I/O requests, the number of syscalls of db_bench threads
decreases, causing an immediate tail-latency spike"* — intervals with
≥ 5 active compaction threads coincide with latency spikes, intervals
with 1–2 active compaction threads with good client performance.

These functions compute that correlation from the events DIO stored at
the backend.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.backend.store import DocumentStore


def syscall_counts_by_thread(store: DocumentStore, index: str,
                             window_ns: int,
                             session: Optional[str] = None) -> dict:
    """``window -> {thread_name: syscall_count}`` from traced events.

    This is the data behind Fig. 4 (syscalls over time aggregated by
    thread name), produced with a date_histogram + terms aggregation.
    """
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


def active_compaction_threads(store: DocumentStore, index: str,
                              window_ns: int,
                              prefix: str = "rocksdb:low",
                              session: Optional[str] = None) -> dict[int, int]:
    """``window -> number of distinct compaction TIDs issuing syscalls``."""
    query: dict = {"bool": {"must": [
        {"wildcard": {"proc_name": prefix + "*"}},
    ]}}
    if session:
        query["bool"]["must"].append({"term": {"session": session}})
    response = store.search(index, query=query, size=0, aggs={
        "over_time": {
            "date_histogram": {"field": "time", "fixed_interval": window_ns},
            "aggs": {"tids": {"cardinality": {"field": "tid"}}},
        },
    })
    return {bucket["key"]: bucket["tids"]["value"]
            for bucket in response["aggregations"]["over_time"]["buckets"]}


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
                      background_prefix: str = "rocksdb:low"
                      ) -> ContentionReport:
    """Classify windows by compaction concurrency; compare client rates."""
    by_thread = syscall_counts_by_thread(store, index, window_ns, session)
    active = active_compaction_threads(store, index, window_ns,
                                       prefix=background_prefix,
                                       session=session)
    contended, calm = [], []
    contended_rates, calm_rates = [], []
    for window, threads in sorted(by_thread.items()):
        client_count = threads.get(client_comm, 0)
        if active.get(window, 0) >= min_compaction_threads:
            contended.append(window)
            contended_rates.append(client_count)
        else:
            calm.append(window)
            calm_rates.append(client_count)
    return ContentionReport(
        contended_windows=contended,
        calm_windows=calm,
        client_rate_contended=float(np.mean(contended_rates)) if contended_rates else 0.0,
        client_rate_calm=float(np.mean(calm_rates)) if calm_rates else 0.0,
        threshold=min_compaction_threads,
    )
