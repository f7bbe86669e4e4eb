"""Spike blame analysis: who was doing I/O when latency spiked?

Automates the red boxes of the paper's Fig. 4: given latency spike
windows (from benchmark records or percentile series) and the DIO
trace, report — per spike — which threads issued syscalls and how many
bytes they moved, ranked so the culprit background activity tops the
list.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from repro.analysis.latency import percentile_series, spikes
from repro.backend.store import DocumentStore


class ThreadActivity(NamedTuple):
    """One thread's contribution inside a window."""

    proc_name: str
    tid: int
    syscalls: int
    bytes_moved: int


class SpikeBlame(NamedTuple):
    """The blame report for one spike window."""

    window_start_ns: int
    p99_ns: float
    #: Background thread activity, heaviest movers first.
    background: list[ThreadActivity]
    #: The client threads' own activity in the same window.
    client_syscalls: int


def _window_activity(store: DocumentStore, index: str, start_ns: int,
                     window_ns: int,
                     session: Optional[str]) -> list[dict]:
    must: list = [{"range": {"time": {"gte": start_ns,
                                      "lt": start_ns + window_ns}}}]
    if session:
        must.append({"term": {"session": session}})
    response = store.search(
        index, query={"bool": {"must": must}}, size=0,
        aggs={"threads": {
            "terms": {"field": "tid", "size": 100},
            "aggs": {
                "name": {"terms": {"field": "proc_name", "size": 1}},
                "bytes": {"sum": {"field": "ret"}},
            },
        }})
    out = []
    for bucket in response["aggregations"]["threads"]["buckets"]:
        names = bucket["name"]["buckets"]
        out.append({
            "tid": bucket["key"],
            "proc_name": names[0]["key"] if names else "?",
            "syscalls": bucket["doc_count"],
            "bytes": max(int(bucket["bytes"]["value"] or 0), 0),
        })
    return out


def blame_spikes(store: DocumentStore,
                 operations: Iterable[tuple[int, int, str, int]],
                 window_ns: int,
                 index: str = "dio_trace",
                 session: Optional[str] = None,
                 client_comm: str = "db_bench",
                 spike_factor: float = 2.5,
                 percent: float = 99.0) -> list[SpikeBlame]:
    """Identify latency spikes and attribute each to thread activity.

    ``operations`` are the benchmark's latency records; the trace in
    ``store`` supplies the per-thread activity.  A window counts as a
    spike when its p99 exceeds ``spike_factor`` times the calm baseline
    (the 25th percentile of window p99s).
    """
    series = percentile_series(operations, window_ns, percent)
    if not series:
        return []
    values = sorted(point.value_ns for point in series)
    baseline = values[len(values) // 4]
    spiky = spikes(series, threshold_ns=spike_factor * baseline)

    reports = []
    for point in spiky:
        activity = _window_activity(store, index, point.window_start_ns,
                                    window_ns, session)
        background = sorted(
            (ThreadActivity(a["proc_name"], a["tid"], a["syscalls"],
                            a["bytes"])
             for a in activity if a["proc_name"] != client_comm),
            key=lambda t: (-t.bytes_moved, -t.syscalls, t.tid))
        client = sum(a["syscalls"] for a in activity
                     if a["proc_name"] == client_comm)
        reports.append(SpikeBlame(point.window_start_ns, point.value_ns,
                                  background, client))
    return reports


def render_blame(reports: list[SpikeBlame]) -> str:
    """Human-readable blame summary."""
    if not reports:
        return "no latency spikes detected"
    lines = []
    for report in reports:
        t_ms = report.window_start_ns / 1e6
        lines.append(f"spike @ {t_ms:.0f} ms (p99 "
                     f"{report.p99_ns / 1e6:.2f} ms): "
                     f"{len(report.background)} background threads active, "
                     f"client issued {report.client_syscalls} syscalls")
        for activity in report.background[:5]:
            lines.append(f"    {activity.proc_name} (tid {activity.tid}): "
                         f"{activity.syscalls} syscalls, "
                         f"{activity.bytes_moved:,} B")
    return "\n".join(lines)
