"""Names and small helpers shared by the four workloads."""

from __future__ import annotations

import json

from repro.backend import SegmentStorage, save_session

INDEX = "dio_trace"
SESSION = "bench-e2e"
#: What ``DIOTracer.attach`` asks the backend to index.
INDEXED_FIELDS = ("syscall", "proc_name", "pid", "tid", "file_tag",
                  "session", "time")
#: Fig. 4 window, as ``dio rocksdb`` and the contention detector use it.
WINDOW_NS = 100_000_000
#: Records per ring-buffer batch where the benchmark does the batching.
BATCH = 2048
#: Events per segment file, the storage engine's own default.
FLUSH_EVENTS = 4096


def save_segments(store, session: str, path) -> int:
    """``save_session`` into the segment engine's on-disk layout.

    The layout is ``save_session``'s fifth positional parameter, which
    still defaults to the JSON-lines export format.  ROADMAP item 2
    removes that choice; when it does, drop the argument here — it is
    the only place the benchmark names a layout.
    """
    return save_session(store, session, path, INDEX, "segments",
                        FLUSH_EVENTS)


def segment_footprint(path) -> tuple[int, int]:
    """``(segment files, bytes on disk)`` of a saved session."""
    engine = SegmentStorage(path, create=False, read_only=True)
    try:
        return len(engine.segments()), engine.disk_bytes()
    finally:
        engine.close()


def same_json(left, right) -> bool:
    """Equal, or byte-identical once serialised (tuples and lists, int
    and string keys, NaN and NaN then compare equal)."""
    return left == right or (
        json.dumps(left, sort_keys=True, default=str)
        == json.dumps(right, sort_keys=True, default=str))


def total_and_hits(response: dict) -> tuple[int, list[dict]]:
    """What a dashboard reads off a search response."""
    return (response["hits"]["total"]["value"],
            [hit["_source"] for hit in response["hits"]["hits"]])


def total_and_aggs(response: dict) -> tuple[int, dict]:
    return response["hits"]["total"]["value"], response["aggregations"]


#: Phases that are one dashboard request each -> the per-kind latency
#: metric they feed.  ``visualizer.*`` requests go through
#: ``DIODashboards``; ``request.*`` ones the harness sends itself.
REQUEST_KINDS = {
    "visualizer.fig4": "backend.q_fig4_ms",
    "request.drilldown": "backend.q_drilldown_ms",
    "request.window": "backend.q_window_ms",
    "request.term_count": "backend.q_term_count_ms",
    "visualizer.file_access": "backend.q_file_access_ms",
}


def request_calls(meter) -> list:
    """The pass's request phases, in the order they were issued."""
    return [call for call in meter.calls if call.name in REQUEST_KINDS]


def request_metrics(meter) -> dict:
    """``query_p50_ms`` and ``queries_per_s`` over a pass's requests."""
    latencies = sorted(call.seconds for call in request_calls(meter))
    return {"query_p50_ms": 1e3 * latencies[len(latencies) // 2],
            "queries_per_s": len(latencies) / sum(latencies)}


def batch_contention(report) -> bool:
    """Did the post-mortem detector battery — the one that reads the
    same aggregations Fig. 4 is drawn from — report I/O contention?
    (The streaming battery keeps its own windows and may fire alone.)"""
    return any(ranked.finding.detector == "io-contention"
               and ranked.source != "streaming"
               for ranked in report.findings)


class Outcome:
    """The checker's tally: ``attempted`` and ``failed`` count what it
    looked at; ``notes`` says what failed, in words."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str, weight: int = 1,
              missed: int | None = None) -> None:
        """Count ``weight`` attempts; on failure count ``missed`` of them."""
        self.attempted += weight
        if not ok:
            self.failed += weight if missed is None else max(1, missed)
            self.notes.append(what)
