"""Windowed latency percentiles (the paper's Fig. 3).

The paper plots the 99th-percentile latency experienced by db_bench
clients over time, sampled in windows; spikes of 1.5–3.5 ms appear
whenever background compactions contend for the disk.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

import numpy as np


class LatencyPoint(NamedTuple):
    """One window of the percentile series."""

    window_start_ns: int
    value_ns: float
    op_count: int


def percentile_series(operations: Iterable[tuple[int, int, str, int]],
                      window_ns: int,
                      percent: float = 99.0,
                      op: Optional[str] = None) -> list[LatencyPoint]:
    """Per-window latency percentile over db_bench records.

    ``operations`` are ``(start_ns, latency_ns, op, tid)`` tuples as
    produced by :class:`~repro.apps.rocksdb.db_bench.BenchResult`.
    Windows with no operations are omitted.
    """
    if window_ns <= 0:
        raise ValueError(f"window must be positive, got {window_ns}")
    if not 0 < percent <= 100:
        raise ValueError(f"percent out of range: {percent}")
    filtered = [(start, latency) for start, latency, kind, _ in operations
                if op is None or kind == op]
    if not filtered:
        return []
    starts = np.asarray([s for s, _ in filtered], dtype=np.int64)
    latencies = np.asarray([l for _, l in filtered], dtype=np.int64)
    windows = (starts // window_ns) * window_ns
    series = []
    for window in np.unique(windows):
        mask = windows == window
        series.append(LatencyPoint(
            window_start_ns=int(window),
            value_ns=float(np.percentile(latencies[mask], percent)),
            op_count=int(mask.sum()),
        ))
    return series


def spikes(series: Iterable[LatencyPoint],
           threshold_ns: float) -> list[LatencyPoint]:
    """Windows whose percentile exceeds ``threshold_ns``."""
    return [point for point in series if point.value_ns > threshold_ns]
