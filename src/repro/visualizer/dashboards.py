"""DIO's predefined dashboards (the figures of the paper's §III).

Each method both returns the underlying structured data and can render
it as text, mirroring how the real tool pairs Elasticsearch queries
with Kibana visualizations.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.analysis.contention import syscall_counts_by_thread
from repro.analysis.latency import percentile_series
from repro.backend.store import DocumentStore

from repro.visualizer.render import (render_sparkline_grid, render_table,
                                     render_timeseries, sparkline)


def _format_ns(value) -> str:
    """Human-readable virtual duration."""
    if value is None:
        return "-"
    if value < 1_000:
        return f"{value:.0f} ns"
    if value < 1_000_000:
        return f"{value / 1e3:.1f} us"
    if value < 1_000_000_000:
        return f"{value / 1e6:.1f} ms"
    return f"{value / 1e9:.3f} s"


def _format_count(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.2f}"
    return f"{int(value):,}"


class SelfMonitoringDashboard:
    """The "DIO self-monitoring" dashboard: the pipeline observing itself.

    Mirrors how the paper's Kibana instance monitors its Elasticsearch
    backend, but over our whole pipeline: per-stage counters, stage
    latency quantiles from the span histograms, the derived health
    gauges, and span-duration distributions as sparklines.  Rendered
    with the same text primitives as the paper-figure dashboards.
    """

    def __init__(self, telemetry):
        self.telemetry = telemetry

    def stage_table(self) -> str:
        """Per-stage counters and p50/p95/p99 span latencies."""
        report = self.telemetry.health_report()
        rows = []
        for stage in report.stages:
            counters = "  ".join(f"{name}={_format_count(value)}"
                                 for name, value in stage.counters.items())
            latency = stage.latency_ns or {}
            rows.append([stage.name, counters,
                         _format_ns(latency.get("p50")),
                         _format_ns(latency.get("p95")),
                         _format_ns(latency.get("p99"))])
        return render_table(["stage", "counters", "p50", "p95", "p99"],
                            rows, max_col_width=72)

    #: Breaker state codes back to names for the derived table.
    _BREAKER_NAMES = {0: "closed", 1: "half-open", 2: "open"}

    def derived_table(self) -> str:
        """The derived drop-ratio / lag / retry-rate / spill gauges."""
        derived = self.telemetry.health_report().derived
        breaker = self._BREAKER_NAMES.get(
            int(derived.get("breaker_state", 0)), "?")
        rows = [
            ["drop ratio", f"{derived['drop_ratio'] * 100:.2f} %"],
            ["consumer lag", f"{derived['consumer_lag']:.0f} records"],
            ["retry rate",
             f"{derived['retry_rate'] * 100:.2f} % of bulk attempts"],
            ["unresolved ratio", f"{derived['unresolved_ratio'] * 100:.2f} %"],
            ["spill backlog",
             f"{derived.get('spill_backlog', 0):.0f} records"],
            ["breaker state", breaker],
        ]
        return render_table(["gauge", "value"], rows)

    def agg_engine_table(self) -> str:
        """Columnar aggregation engine: pushdown, cache, kernel time."""
        value = self.telemetry.registry.value
        derived = self.telemetry.health_report().derived
        family = self.telemetry.registry.get("dio_store_agg_kernel_ns")
        kernel_ns = sum(child.sum for _, child in family.samples()) \
            if family is not None else 0.0
        rows = [
            ["pushdown",
             f"{_format_count(value('dio_store_agg_pushdown_total'))} "
             f"({derived['agg_pushdown_ratio'] * 100:.1f} % "
             "of agg requests)"],
            ["fallback (legacy walk)",
             _format_count(value("dio_store_agg_fallback_total"))],
            ["cache hits",
             f"{_format_count(value('dio_store_agg_cache_hits_total'))} "
             f"({derived['agg_cache_hit_rate'] * 100:.1f} % of lookups)"],
            ["cache misses",
             _format_count(value("dio_store_agg_cache_misses_total"))],
            ["kernel time", f"{kernel_ns / 1e6:.2f} ms total"],
        ]
        return render_table(["aggregation engine", "value"], rows)

    def span_histograms(self) -> str:
        """One sparkline per span name over the duration buckets."""
        family = self.telemetry.registry.get("dio_span_duration_ns")
        if family is None:
            return "(no spans recorded)"
        lines = []
        for labels, child in family.samples():
            counts = child.bucket_counts()
            lines.append((labels["span"], counts, child.count))
        if not lines:
            return "(no spans recorded)"
        width = max(len(name) for name, _, _ in lines)
        return "\n".join(
            f"{name.ljust(width)} {sparkline(counts)} (n={total})"
            for name, counts, total in lines)

    def render(self) -> str:
        """The full self-monitoring dashboard."""
        sections = [
            "=== DIO self-monitoring ===",
            "",
            "pipeline stages (kernel filter -> ring buffer -> consumer "
            "-> shipper -> store -> correlator)",
            self.stage_table(),
            "",
            "derived health gauges",
            self.derived_table(),
            "",
            "columnar aggregation engine (dio_store_agg_*)",
            self.agg_engine_table(),
            "",
            "span durations (buckets 0 ns .. 10 s, log scale)",
            self.span_histograms(),
        ]
        return "\n".join(sections)


class DIODashboards:
    """Dashboards over one backend index (optionally one session)."""

    def __init__(self, store: DocumentStore, index: str = "dio_trace",
                 session: Optional[str] = None):
        self.store = store
        self.index = index
        self.session = session

    def _base_query(self, extra: Optional[list] = None) -> dict:
        must: list = list(extra or [])
        if self.session:
            must.append({"term": {"session": self.session}})
        if not must:
            return {"match_all": {}}
        return {"bool": {"must": must}}

    # ------------------------------------------------------------------
    # Fig. 2: tabular file-access view

    FILE_ACCESS_COLUMNS = ("time", "proc_name", "syscall", "ret",
                           "file_tag", "offset")

    def file_access_rows(self, procs: Optional[Iterable[str]] = None,
                         syscalls: Optional[Iterable[str]] = None,
                         path: Optional[str] = None) -> list[dict]:
        """The event rows of a Fig. 2-style table, sorted by time."""
        extra: list = []
        if procs:
            extra.append({"terms": {"proc_name": list(procs)}})
        if syscalls:
            extra.append({"terms": {"syscall": list(syscalls)}})
        if path:
            extra.append({"bool": {
                "should": [
                    {"term": {"file_path": path}},
                    {"term": {"args.path": path}},
                ],
            }})
        response = self.store.search(self.index,
                                     query=self._base_query(extra),
                                     sort=["time"], size=None)
        return [hit["_source"] for hit in response["hits"]["hits"]]

    def file_access_table(self, procs: Optional[Iterable[str]] = None,
                          syscalls: Optional[Iterable[str]] = None,
                          path: Optional[str] = None) -> str:
        """Render the Fig. 2 tabular visualization."""
        rows = []
        for event in self.file_access_rows(procs, syscalls, path):
            rows.append([
                f"{event['time']:,}",
                event["proc_name"],
                event["syscall"],
                event["ret"],
                event.get("file_tag", ""),
                event.get("offset", ""),
            ])
        return render_table(
            ["time", "proc_name", "syscall", "ret_val",
             "file_tag (dev_no ino_no timestamp)", "offset"], rows)

    # ------------------------------------------------------------------
    # Fig. 4: syscalls over time by thread name

    def syscalls_over_time(self, window_ns: int) -> dict:
        """``window -> {thread: count}`` (date_histogram + terms)."""
        return syscall_counts_by_thread(self.store, self.index, window_ns,
                                        self.session)

    def syscalls_over_time_chart(self, window_ns: int) -> str:
        """Render the Fig. 4 per-thread activity grid."""
        data = self.syscalls_over_time(window_ns)
        if not data:
            return "(no data)"
        windows = sorted(data)
        lo, hi = windows[0], windows[-1]
        full = list(range(lo, hi + window_ns, window_ns))
        groups: dict[str, dict[int, float]] = {}
        for window, threads in data.items():
            for thread, count in threads.items():
                groups.setdefault(thread, {})[window] = count
        header = (f"syscalls issued over time, aggregated by thread name "
                  f"(window = {window_ns / 1e6:.0f} ms)")
        return header + "\n" + render_sparkline_grid(full, groups)

    # ------------------------------------------------------------------
    # Fig. 3: tail-latency timeline (source: db_bench, as in the paper)

    @staticmethod
    def latency_timeline(operations: Sequence[tuple[int, int, str, int]],
                         window_ns: int, percent: float = 99.0,
                         op: Optional[str] = None) -> str:
        """Render the Fig. 3 p99-latency-over-time chart.

        Like the paper's Fig. 3, the data comes from the benchmark's own
        latency records rather than from traced syscalls.
        """
        series = percentile_series(operations, window_ns, percent, op)
        points = [(p.window_start_ns, p.value_ns / 1e6) for p in series]
        title = f"p{percent:g} client latency (ms) per {window_ns / 1e6:.0f} ms window"
        return title + "\n" + render_timeseries(points, unit=" ms")

    # ------------------------------------------------------------------
    # Summary panels

    def syscall_summary(self) -> str:
        """Counts by syscall type — the landing dashboard panel."""
        response = self.store.search(
            self.index, query=self._base_query(), size=0,
            aggs={"by_syscall": {"terms": {"field": "syscall", "size": 50}}})
        rows = [[b["key"], b["doc_count"]]
                for b in response["aggregations"]["by_syscall"]["buckets"]]
        return render_table(["syscall", "events"], rows)

    def process_summary(self) -> str:
        """Counts and distinct threads per process name."""
        response = self.store.search(
            self.index, query=self._base_query(), size=0,
            aggs={"by_proc": {
                "terms": {"field": "proc_name", "size": 50},
                "aggs": {"tids": {"cardinality": {"field": "tid"}}},
            }})
        rows = [[b["key"], b["doc_count"], b["tids"]["value"]]
                for b in response["aggregations"]["by_proc"]["buckets"]]
        return render_table(["proc_name", "events", "threads"], rows)

    def process_io_rows(self) -> list[dict]:
        """Per-process I/O totals derived from the trace (iotop-style).

        Sums read/write syscall counts and the bytes their return
        values reported, per process name.
        """
        reads = ("read", "pread64", "readv")
        writes = ("write", "pwrite64", "writev")
        response = self.store.search(
            self.index,
            query=self._base_query(
                [{"terms": {"syscall": list(reads + writes)}},
                 {"range": {"ret": {"gte": 0}}}]),
            size=0,
            aggs={"by_proc": {
                "terms": {"field": "proc_name", "size": 50},
                "aggs": {
                    "r": {"terms": {"field": "syscall", "size": 10},
                          "aggs": {"bytes": {"sum": {"field": "ret"}}}},
                },
            }})
        rows = []
        for bucket in response["aggregations"]["by_proc"]["buckets"]:
            row = {"proc_name": bucket["key"], "read_syscalls": 0,
                   "read_bytes": 0, "write_syscalls": 0, "write_bytes": 0}
            for sub in bucket["r"]["buckets"]:
                bytes_moved = int(sub["bytes"]["value"] or 0)
                if sub["key"] in reads:
                    row["read_syscalls"] += sub["doc_count"]
                    row["read_bytes"] += bytes_moved
                else:
                    row["write_syscalls"] += sub["doc_count"]
                    row["write_bytes"] += bytes_moved
            rows.append(row)
        rows.sort(key=lambda r: -(r["read_bytes"] + r["write_bytes"]))
        return rows

    def process_io_table(self) -> str:
        """Render the iotop-style per-process I/O panel."""
        rows = [[r["proc_name"], r["read_syscalls"], f"{r['read_bytes']:,}",
                 r["write_syscalls"], f"{r['write_bytes']:,}"]
                for r in self.process_io_rows()]
        return render_table(
            ["proc_name", "reads", "bytes read", "writes", "bytes written"],
            rows)
