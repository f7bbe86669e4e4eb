"""Tests for latency, contention, and pattern analysis."""

import pytest

from repro.analysis import (classify_file_accesses, detect_contention,
                            find_stale_offset_resumes, percentile_series,
                            small_io_files, spikes,
                            syscall_counts_by_thread)
from repro.backend import DocumentStore

MS = 1_000_000


def ops(*tuples):
    """(start_ms, latency_us, op) shorthand -> ns records."""
    return [(start * MS, lat * 1000, op, 1) for start, lat, op in tuples]


class TestPercentileSeries:
    def test_windows_and_values(self):
        records = ops((0, 100, "read"), (1, 200, "read"),
                      (12, 1000, "read"), (13, 3000, "read"))
        series = percentile_series(records, window_ns=10 * MS, percent=50)
        assert len(series) == 2
        assert series[0].window_start_ns == 0
        assert series[0].value_ns == pytest.approx(150_000)
        assert series[1].value_ns == pytest.approx(2_000_000)
        assert series[1].op_count == 2

    def test_op_filter(self):
        records = ops((0, 100, "read"), (0, 9000, "update"))
        series = percentile_series(records, 10 * MS, 99, op="read")
        assert series[0].op_count == 1
        assert series[0].value_ns == pytest.approx(100_000)

    def test_empty(self):
        assert percentile_series([], 10 * MS) == []

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            percentile_series([], 0)
        with pytest.raises(ValueError):
            percentile_series([], 10, percent=0)

    def test_spikes_threshold(self):
        records = ops((0, 100, "read"), (10, 5000, "read"))
        series = percentile_series(records, 10 * MS)
        assert len(spikes(series, threshold_ns=1_000_000)) == 1


def seed_rocksdb_trace(store, index="trace"):
    """Two windows: calm (1 compaction thread), contended (5 threads)."""
    docs = []
    # Window 0 (0-10ms): busy clients, one compaction thread.
    for i in range(40):
        docs.append({"syscall": "read", "proc_name": "db_bench",
                     "tid": 100 + (i % 8), "time": i * 200_000, "ret": 512})
    docs.append({"syscall": "pread64", "proc_name": "rocksdb:low0",
                 "tid": 200, "time": 1 * MS, "ret": 4096})
    # Window 1 (10-20ms): 5 compaction threads, few client syscalls.
    for t in range(5):
        for i in range(10):
            docs.append({"syscall": "pread64",
                         "proc_name": f"rocksdb:low{t}",
                         "tid": 200 + t, "time": 10 * MS + i * 500_000,
                         "ret": 262144})
    for i in range(4):
        docs.append({"syscall": "read", "proc_name": "db_bench",
                     "tid": 100 + i, "time": 10 * MS + i * MS, "ret": 512})
    store.bulk(index, docs)


class TestContention:
    def test_counts_by_thread(self):
        store = DocumentStore()
        seed_rocksdb_trace(store)
        data = syscall_counts_by_thread(store, "trace", window_ns=10 * MS)
        assert data[0]["db_bench"] == 40
        assert data[10 * MS]["db_bench"] == 4
        assert data[10 * MS]["rocksdb:low0"] == 10

    def test_detect_contention_flags_right_window(self):
        store = DocumentStore()
        seed_rocksdb_trace(store)
        report = detect_contention(store, "trace", window_ns=10 * MS,
                                   min_compaction_threads=5)
        assert report.contended_windows == [10 * MS]
        assert report.calm_windows == [0]
        assert report.client_rate_calm == 40
        assert report.client_rate_contended == 4
        assert report.client_slowdown == pytest.approx(10.0)

    def test_no_contention_when_threshold_high(self):
        store = DocumentStore()
        seed_rocksdb_trace(store)
        report = detect_contention(store, "trace", window_ns=10 * MS,
                                   min_compaction_threads=6)
        assert report.contended_windows == []


def seed_pattern_trace(store, index="trace"):
    docs = [
        # Sequential file: three reads, each resuming where the last ended.
        {"syscall": "openat", "proc_name": "seq", "tid": 1, "ret": 3,
         "time": 0, "file_tag": "7 1 0", "args": {"path": "/seq"}},
        {"syscall": "read", "proc_name": "seq", "tid": 1, "ret": 4096,
         "time": 1, "file_tag": "7 1 0", "offset": 0},
        {"syscall": "read", "proc_name": "seq", "tid": 1, "ret": 4096,
         "time": 2, "file_tag": "7 1 0", "offset": 4096},
        {"syscall": "read", "proc_name": "seq", "tid": 1, "ret": 4096,
         "time": 3, "file_tag": "7 1 0", "offset": 8192},
        # Random-access file with tiny requests.
        {"syscall": "pread64", "proc_name": "rand", "tid": 2, "ret": 64,
         "time": 4, "file_tag": "7 2 0", "offset": 9000},
        {"syscall": "pread64", "proc_name": "rand", "tid": 2, "ret": 64,
         "time": 5, "file_tag": "7 2 0", "offset": 100},
        {"syscall": "pread64", "proc_name": "rand", "tid": 2, "ret": 64,
         "time": 6, "file_tag": "7 2 0", "offset": 70000},
    ] + [
        {"syscall": "pread64", "proc_name": "rand", "tid": 2, "ret": 64,
         "time": 7 + i, "file_tag": "7 2 0", "offset": 1000 * i}
        for i in range(6)
    ] + [
        # Fluent Bit signature: first read of a fresh tag at offset 26 -> 0.
        {"syscall": "openat", "proc_name": "fluent-bit", "tid": 3, "ret": 23,
         "time": 100, "file_tag": "7 12 99", "args": {"path": "/app.log"}},
        {"syscall": "read", "proc_name": "fluent-bit", "tid": 3, "ret": 0,
         "time": 101, "file_tag": "7 12 99", "offset": 26},
    ]
    store.bulk(index, docs)


class TestPatterns:
    def test_classify_sequential_vs_random(self):
        store = DocumentStore()
        seed_pattern_trace(store)
        patterns = {p.file_tag: p for p in classify_file_accesses(store, "trace")}
        assert patterns["7 1 0"].sequential_fraction == 1.0
        assert patterns["7 2 0"].sequential_fraction < 0.5
        assert patterns["7 1 0"].reads == 3

    def test_small_io_detection(self):
        store = DocumentStore()
        seed_pattern_trace(store)
        flagged = small_io_files(store, "trace", threshold_bytes=4096,
                                 min_requests=8)
        assert [p.file_tag for p in flagged] == ["7 2 0"]

    def test_stale_offset_resume_detection(self):
        store = DocumentStore()
        seed_pattern_trace(store)
        findings = find_stale_offset_resumes(store, "trace")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.file_tag == "7 12 99"
        assert finding.offset == 26
        assert finding.proc_name == "fluent-bit"

    def test_healthy_resume_not_flagged(self):
        store = DocumentStore()
        store.bulk("trace", [
            # Resuming at 26 but actually finding data: legitimate tail.
            {"syscall": "read", "proc_name": "ok", "tid": 1, "ret": 10,
             "time": 1, "file_tag": "7 5 0", "offset": 26},
            {"syscall": "read", "proc_name": "ok", "tid": 1, "ret": 0,
             "time": 2, "file_tag": "7 5 0", "offset": 36},
        ])
        assert find_stale_offset_resumes(store, "trace") == []
