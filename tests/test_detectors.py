"""Tests for the automated misbehaviour detector library."""

import pytest

from repro.analysis.detectors import (ContentionDetector, FailedSyscallDetector,
                                      Finding, RandomAccessDetector,
                                      ShortLivedFileDetector,
                                      SmallIODetector, run_detectors)
from repro.analysis.diagnose import diagnose_session, follow_session
from repro.analysis.streaming import (DiagnosisTap, StreamingFdLeakDetector,
                                      StreamingStaleOffsetDetector)
from repro.apps.fluentbit import FLUENTBIT_BUGGY, FLUENTBIT_FIXED
from repro.backend import DocumentStore
from repro.experiments import run_fluentbit_case

MS = 1_000_000


@pytest.fixture()
def store():
    return DocumentStore()


def replayed(detector, store, index):
    """What a streaming ``detector`` says of a stored index, replayed."""
    tap = follow_session(store, index, None,
                         tap=DiagnosisTap([detector], dfg=False))
    return [finding for _, finding in tap.findings()]


class TestStaleOffsetDetector:
    def test_fires_on_buggy_fluentbit(self):
        case = run_fluentbit_case(FLUENTBIT_BUGGY)
        findings = replayed(StreamingStaleOffsetDetector(), case.store,
                            "dio_trace")
        assert len(findings) == 1
        assert findings[0].severity == "critical"
        assert "offset 26" in findings[0].title

    def test_silent_on_fixed_fluentbit(self):
        case = run_fluentbit_case(FLUENTBIT_FIXED)
        assert replayed(StreamingStaleOffsetDetector(), case.store,
                        "dio_trace") == []


class TestFailedSyscallDetector:
    def test_clusters_by_syscall_and_errno(self, store):
        store.bulk("t", [{"syscall": "open", "ret": -2, "time": i,
                          "proc_name": "a", "pid": 1, "tid": 1}
                         for i in range(5)]
                   + [{"syscall": "write", "ret": -9, "time": 9,
                       "proc_name": "a", "pid": 1, "tid": 1}])
        findings = FailedSyscallDetector(min_failures=3).run(store, "t")
        assert len(findings) == 1
        assert "open failed with ENOENT 5 times" in findings[0].title

    def test_threshold_filters_noise(self, store):
        store.bulk("t", [{"syscall": "open", "ret": -2, "time": 1,
                          "proc_name": "a", "pid": 1, "tid": 1}])
        assert FailedSyscallDetector(min_failures=3).run(store, "t") == []


class TestFdLeakDetector:
    def test_detects_unbalanced_opens(self, store):
        docs = [{"syscall": "openat", "ret": 3 + i, "time": i,
                 "proc_name": "leaky", "pid": 9, "tid": 9,
                 "args": {"path": f"/f{i}"}} for i in range(6)]
        docs.append({"syscall": "close", "ret": 0, "time": 99,
                     "proc_name": "leaky", "pid": 9, "tid": 9,
                     "args": {"fd": 3}})
        store.bulk("t", docs)
        findings = replayed(StreamingFdLeakDetector(min_unclosed=4), store,
                            "t")
        assert len(findings) == 1
        assert "5 descriptors left open" in findings[0].title

    def test_balanced_process_clean(self, store):
        docs = []
        for i in range(6):
            docs.append({"syscall": "open", "ret": 3, "time": 2 * i,
                         "proc_name": "ok", "pid": 1, "tid": 1,
                         "args": {"path": "/f"}})
            docs.append({"syscall": "close", "ret": 0, "time": 2 * i + 1,
                         "proc_name": "ok", "pid": 1, "tid": 1,
                         "args": {"fd": 3}})
        store.bulk("t", docs)
        assert replayed(StreamingFdLeakDetector(min_unclosed=4), store,
                        "t") == []

    def test_failed_opens_not_counted(self, store):
        store.bulk("t", [{"syscall": "open", "ret": -2, "time": i,
                          "proc_name": "x", "pid": 1, "tid": 1,
                          "args": {"path": "/nope"}} for i in range(10)])
        assert replayed(StreamingFdLeakDetector(min_unclosed=4), store,
                        "t") == []


class TestPatternDetectors:
    def seed_small_random(self, store, n=30):
        docs = [{"syscall": "openat", "ret": 3, "time": 0,
                 "proc_name": "p", "pid": 1, "tid": 1,
                 "file_tag": "7 5 0", "args": {"path": "/db"}}]
        for i in range(n):
            docs.append({"syscall": "pread64", "ret": 100,
                         "time": 1 + i, "proc_name": "p", "pid": 1,
                         "tid": 1, "file_tag": "7 5 0",
                         "offset": (i * 7919) % 100_000,
                         "file_path": "/db"})
        store.bulk("t", docs)

    def test_small_io_detector(self, store):
        self.seed_small_random(store)
        findings = SmallIODetector(min_requests=16).run(store, "t")
        assert len(findings) == 1
        assert "consider batching" in findings[0].title

    def test_random_access_detector(self, store):
        self.seed_small_random(store)
        findings = RandomAccessDetector(min_reads=16).run(store, "t")
        assert len(findings) == 1
        assert "sequential" in findings[0].title


class TestShortLivedFileDetector:
    def test_detects_write_churn(self, store):
        docs = []
        for i in range(4):
            path = f"/tmp/spill{i}"
            docs.append({"syscall": "openat", "ret": 3, "time": 10 * i,
                         "proc_name": "p", "pid": 1, "tid": 1,
                         "file_tag": f"7 {i + 3} 0", "args": {"path": path}})
            docs.append({"syscall": "write", "ret": 100_000,
                         "time": 10 * i + 1, "proc_name": "p", "pid": 1,
                         "tid": 1, "file_tag": f"7 {i + 3} 0",
                         "offset": 0, "file_path": path})
            docs.append({"syscall": "unlink", "ret": 0, "time": 10 * i + 2,
                         "proc_name": "p", "pid": 1, "tid": 1,
                         "args": {"path": path}})
        store.bulk("t", docs)
        findings = ShortLivedFileDetector(min_bytes=50_000,
                                          min_files=3).run(store, "t")
        assert len(findings) == 1
        assert "4 files" in findings[0].title

    def test_quiet_without_unlinks(self, store):
        store.bulk("t", [{"syscall": "write", "ret": 100_000, "time": 1,
                          "proc_name": "p", "pid": 1, "tid": 1,
                          "file_tag": "7 3 0", "offset": 0,
                          "file_path": "/keep"}])
        assert ShortLivedFileDetector().run(store, "t") == []


def contended_docs(prefix="rocksdb:low"):
    docs = []
    for i in range(40):
        docs.append({"syscall": "read", "proc_name": "db_bench",
                     "tid": 100 + (i % 8), "pid": 1,
                     "time": i * 200_000, "ret": 512})
    for t in range(5):
        for i in range(10):
            docs.append({"syscall": "pread64",
                         "proc_name": f"{prefix}{t}", "pid": 1,
                         "tid": 200 + t, "time": 10 * MS + i * 500_000,
                         "ret": 262144})
    for i in range(4):
        docs.append({"syscall": "read", "proc_name": "db_bench",
                     "tid": 100 + i, "pid": 1, "time": 10 * MS + i * MS,
                     "ret": 512})
    return docs


class TestContentionDetectorWrapper:
    def test_fires_on_contended_trace(self, store):
        store.bulk("t", contended_docs())
        findings = ContentionDetector(window_ns=10 * MS).run(store, "t")
        assert len(findings) == 1
        assert "client syscall rate drops" in findings[0].title

    def test_background_prefix_reaches_the_query(self, store):
        # Not only the title: threads named otherwise must be found,
        # and the default prefix must then find nothing.
        store.bulk("t", contended_docs("compactor-"))
        findings = ContentionDetector(
            window_ns=10 * MS, background_prefix="compactor-").run(store, "t")
        assert len(findings) == 1
        assert "compactor-* threads" in findings[0].title
        assert ContentionDetector(window_ns=10 * MS).run(store, "t") == []


class TestRunDetectors:
    def test_battery_on_buggy_fluentbit(self):
        case = run_fluentbit_case(FLUENTBIT_BUGGY)
        # The post-mortem battery leaves the stale offset to the
        # streaming one; the report runs both, critical findings first.
        assert all(finding.detector != "stale-offset-resume"
                   for finding in run_detectors(case.store, "dio_trace"))
        findings = [ranked.finding for ranked in diagnose_session(
            case.store, case.tracer.config.session_name).findings]
        assert findings[0].severity == "critical"
        assert findings[0].detector == "stale-offset-resume"

    def test_finding_str(self):
        finding = Finding("d", "warning", "title", {})
        assert str(finding) == "[warning] d: title"
