"""Reference answers, computed by the benchmark in plain Python.

The checker never asks the program what the right answer is: every
expected value here is derived from event documents with loops,
``Counter`` and ``sorted`` — no store, planner, column or aggregation
code from ``src/``.  The response *shapes* (bucket dicts, percentile
keys) follow the Elasticsearch conventions the backend documents.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter

READS = ("read", "pread64", "readv")
WRITES = ("write", "pwrite64", "writev")


def event_key(doc: dict) -> tuple:
    """Unique per event in one capture: a thread enters one syscall at
    a time."""
    return (doc["time"], doc["tid"])


def percentile(ordered: list, percent: float) -> float:
    """Linear interpolation between closest ranks (ES ``percentiles``)."""
    if not ordered:
        return math.nan
    rank = (percent / 100.0) * (len(ordered) - 1)
    low, high = math.floor(rank), math.ceil(rank)
    low_value, high_value = float(ordered[low]), float(ordered[high])
    return low_value + (rank - low) * (high_value - low_value)


def terms_order(counts: dict) -> list:
    """``terms`` bucket order: most frequent first, ties by key text."""
    return sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))


class Trace:
    """Event documents of one session, arranged for repeated questions."""

    def __init__(self, docs: list[dict]) -> None:
        self.docs = sorted(docs, key=event_key)
        self.times = [doc["time"] for doc in self.docs]
        self.by_proc: dict[str, list[dict]] = {}
        for doc in self.docs:
            self.by_proc.setdefault(doc["proc_name"], []).append(doc)
        self.counts = {field: Counter(doc[field] for doc in self.docs)
                       for field in ("syscall", "proc_name", "tid")}

    # -- Fig. 4 and the contention analysis -----------------------------

    def fig4(self, window_ns: int) -> dict[int, dict[str, int]]:
        """``window -> {thread name: syscalls}``."""
        cells = Counter((doc["time"] // window_ns * window_ns,
                         doc["proc_name"]) for doc in self.docs)
        out: dict[int, dict[str, int]] = {}
        for (window, proc), count in cells.items():
            out.setdefault(window, {})[proc] = count
        return out

    def active_threads(self, window_ns: int, prefix: str) -> dict[int, int]:
        """``window -> distinct tids of threads named prefix*``."""
        tids: dict[int, set] = {}
        for proc, docs in self.by_proc.items():
            if proc.startswith(prefix):
                for doc in docs:
                    tids.setdefault(doc["time"] // window_ns * window_ns,
                                    set()).add(doc["tid"])
        return {window: len(seen) for window, seen in tids.items()}

    def contention(self, window_ns: int, min_threads: int = 5,
                   client: str = "db_bench",
                   prefix: str = "rocksdb:low") -> dict:
        """Windows split by compaction concurrency, client rate in each."""
        active = self.active_threads(window_ns, prefix)
        contended, calm, busy_rates, calm_rates = [], [], [], []
        for window, threads in sorted(self.fig4(window_ns).items()):
            rate = threads.get(client, 0)
            if active.get(window, 0) >= min_threads:
                contended.append(window)
                busy_rates.append(rate)
            else:
                calm.append(window)
                calm_rates.append(rate)
        return {
            "contended_windows": contended,
            "calm_windows": calm,
            "client_rate_contended":
                sum(busy_rates) / len(busy_rates) if busy_rates else 0.0,
            "client_rate_calm":
                sum(calm_rates) / len(calm_rates) if calm_rates else 0.0,
        }

    def expects_contention_finding(self, window_ns: int = 100_000_000,
                                   min_slowdown: float = 1.1) -> bool:
        """Would a reader of Fig. 4 call this trace contended?"""
        report = self.contention(window_ns)
        if not report["contended_windows"] or not report["calm_windows"]:
            return False
        if report["client_rate_contended"] <= 0:
            return report["client_rate_calm"] > 0
        return (report["client_rate_calm"]
                / report["client_rate_contended"]) >= min_slowdown

    # -- summary panels ---------------------------------------------------

    def syscall_rows(self) -> list[list[str]]:
        """Rows of the landing panel: syscall, events."""
        return [[key, str(count)]
                for key, count in terms_order(self.counts["syscall"])]

    def process_io_rows(self) -> list[list[str]]:
        """Rows of the iotop-style panel, as rendered text cells."""
        rows = []
        for proc, docs in self.by_proc.items():
            reads = [d["ret"] for d in docs
                     if d["syscall"] in READS and d["ret"] >= 0]
            writes = [d["ret"] for d in docs
                      if d["syscall"] in WRITES and d["ret"] >= 0]
            if reads or writes:
                rows.append((proc, len(reads), sum(reads),
                             len(writes), sum(writes)))
        # Heaviest first; equal totals keep terms-bucket order.
        order = {key: i for i, (key, _) in enumerate(terms_order(
            {row[0]: row[1] + row[3] for row in rows}))}
        rows.sort(key=lambda row: (-(row[2] + row[4]), order[row[0]]))
        return [[proc, str(n_reads), f"{read_bytes:,}", str(n_writes),
                 f"{written:,}"]
                for proc, n_reads, read_bytes, n_writes, written in rows]

    def file_access(self, procs=None, syscalls=None, path=None) -> list[dict]:
        """Fig. 2 rows: matching events in time order."""
        if procs:
            docs = sorted((doc for proc in procs
                           for doc in self.by_proc.get(proc, ())),
                          key=event_key)
        else:
            docs = self.docs
        return [doc for doc in docs
                if (not syscalls or doc["syscall"] in syscalls)
                and (not path or doc.get("file_path") == path
                     or doc["args"].get("path") == path)]

    # -- raw requests dashboards send ------------------------------------

    def drilldown(self, proc: str, window_ns: int) -> tuple[int, dict]:
        """Per-process drill-down: active threads over time + latency."""
        docs = self.by_proc.get(proc, [])
        windows: dict[int, list[dict]] = {}
        for doc in docs:
            windows.setdefault(doc["time"] // window_ns * window_ns,
                               []).append(doc)
        latencies = sorted(doc["duration_ns"] for doc in docs)
        return len(docs), {
            "over_time": {"buckets": [
                {"key": window, "doc_count": len(members),
                 "tids": {"value": len({d["tid"] for d in members})}}
                for window, members in sorted(windows.items())]},
            "latency": {"values": {f"{p:g}": percentile(latencies, p)
                                   for p in (50, 95, 99)}},
        }

    def window(self, start_ns: int, end_ns: int,
               size: int) -> tuple[int, list[dict]]:
        """Events with ``start <= time < end``, newest first."""
        low = bisect_left(self.times, start_ns)
        high = bisect_left(self.times, end_ns)
        newest = self.docs[max(low, high - size):high]
        return high - low, newest[::-1]

    def term_count(self, field: str, value) -> int:
        return self.counts[field].get(value, 0)


def parse_table(text: str) -> list[list[str]]:
    """Body cells of a rendered text table (header and rule dropped)."""
    return [[cell.strip() for cell in line.split("  ") if cell.strip()]
            for line in text.splitlines()[2:]]
