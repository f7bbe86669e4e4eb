"""Tests for the streaming detectors."""

import pytest

from repro.analysis.detectors import DEFAULT_DETECTORS, Detector
from repro.analysis.streaming import (MAX_TRACKED_PIDS, MAX_TRACKED_TAGS,
                                      StreamingDetector,
                                      StreamingFdLeakDetector,
                                      StreamingSpikeAttributor,
                                      StreamingStaleOffsetDetector,
                                      StreamingWriteAmplificationDetector,
                                      _Reads, default_streaming_detectors)
from repro.backend.lanes import DocBatch

MS = 1_000_000


def doc(syscall, time, proc="p", pid=1, tid=1, ret=0, tag=None,
        offset=None, path=None):
    out = {"syscall": syscall, "time": time, "proc_name": proc,
           "pid": pid, "tid": tid, "ret": ret}
    if tag is not None:
        out["file_tag"] = tag
    if offset is not None:
        out["offset"] = offset
    if path is not None:
        out["file_path"] = path
    return out


def observe(detector, source, event_id=None):
    """Feed one event: a batch of one."""
    detector.observe_batch(_Reads(DocBatch([source])), (event_id,))


def observe_latency(detector, start_ns, latency_ns):
    """Feed one latency record: a batch of one."""
    detector.observe_latencies(((start_ns, latency_ns),))


class TestStreamingStaleOffset:
    def test_confirms_after_empty_reads(self):
        detector = StreamingStaleOffsetDetector(confirm_after=3)
        observe(detector, doc("read", 10, proc="fb", tag="7 9 1",
                             offset=26, ret=0, path="/app.log"), "e1")
        for i in range(3):
            observe(detector, doc("read", 20 + i, proc="fb", tag="7 9 1",
                                 offset=26, ret=0), f"e{2 + i}")
        assert len(detector.emitted) == 1
        _, finding = detector.emitted[0]
        assert finding.severity == "critical"
        assert "stale offset 26" in finding.title
        assert "e1" in finding.evidence["event_ids"]

    def test_data_arriving_clears_suspicion(self):
        detector = StreamingStaleOffsetDetector(confirm_after=3)
        observe(detector, doc("read", 10, tag="t", offset=26, ret=0))
        observe(detector, doc("read", 20, tag="t", offset=26, ret=99))
        detector.finalize()
        assert detector.emitted == []

    def test_finalize_emits_unconfirmed_suspicions(self):
        detector = StreamingStaleOffsetDetector(confirm_after=99)
        observe(detector, doc("read", 10, tag="t", offset=26, ret=0))
        detector.finalize()
        assert len(detector.emitted) == 1

    def test_offset_zero_first_read_is_fine(self):
        detector = StreamingStaleOffsetDetector()
        observe(detector, doc("read", 10, tag="t", offset=0, ret=0))
        detector.finalize()
        assert detector.emitted == []

    def test_tag_table_is_bounded(self):
        detector = StreamingStaleOffsetDetector()
        for i in range(MAX_TRACKED_TAGS + 50):
            observe(detector, doc("read", i, tag=f"tag{i}", offset=0,
                                 ret=1))
        assert len(detector._tags) <= MAX_TRACKED_TAGS


class TestStreamingFdLeak:
    def test_unclosed_descriptors_fire_once_at_finalize(self):
        detector = StreamingFdLeakDetector(min_unclosed=4)
        for i in range(6):
            observe(detector, doc("openat", i, pid=9, ret=3 + i), f"e{i}")
        observe(detector, doc("close", 6, pid=9, ret=0), "e6")
        assert detector.emitted == []
        detector.finalize()
        assert len(detector.emitted) == 1
        emit_ns, finding = detector.emitted[0]
        assert emit_ns == 6
        assert finding.title == ("pid 9: 6 opens vs 1 closes "
                                 "(5 descriptors left open)")
        assert finding.evidence == {
            "event_ids": [f"e{i}" for i in range(7)],
            "window": {"start_ns": 0, "end_ns": 6}}

    def test_early_leaker_survives_many_later_processes(self):
        # The leaker is seen first; more short-lived processes follow
        # than any per-process cap holds.  Its finding must not be lost.
        detector = StreamingFdLeakDetector(min_unclosed=4)
        events = [doc("openat", i, pid=1, ret=3 + i) for i in range(5)]
        for pid in range(2, MAX_TRACKED_PIDS + 100):
            events.append(doc("openat", 10 * pid, pid=pid, ret=3))
            events.append(doc("close", 10 * pid + 1, pid=pid, ret=0))
        events.append(doc("openat", 10 * MAX_TRACKED_PIDS + 5000, pid=1,
                          ret=9))
        detector.observe_batch(_Reads(DocBatch(events)), [None] * len(events))
        detector.finalize()
        titles = [finding.title for _, finding in detector.emitted]
        assert titles == ["pid 1: 6 opens vs 0 closes "
                          "(6 descriptors left open)"]

    def test_balanced_process_silent(self):
        detector = StreamingFdLeakDetector(min_unclosed=4)
        for i in range(8):
            observe(detector, doc("open", 2 * i, pid=1, ret=3))
            observe(detector, doc("close", 2 * i + 1, pid=1, ret=0))
        detector.finalize()
        assert detector.emitted == []

    def test_failed_opens_ignored(self):
        detector = StreamingFdLeakDetector(min_unclosed=2)
        for i in range(10):
            observe(detector, doc("open", i, pid=1, ret=-2))
        detector.finalize()
        assert detector.emitted == []


class TestStreamingWriteAmplification:
    def test_detects_amplification(self):
        detector = StreamingWriteAmplificationDetector(
            client_comm="db_bench", min_client_bytes=1000)
        for i in range(10):
            observe(detector, doc("write", i, proc="db_bench", ret=200))
        for i in range(40):
            observe(detector, doc("write", 100 + i,
                                 proc="rocksdb:low0", ret=1000))
        detector.finalize()
        assert len(detector.emitted) == 1
        _, finding = detector.emitted[0]
        assert "write" in finding.title
        assert finding.details["amplification"] == pytest.approx(21.0)
        assert finding.details["top_writers"][0][0] == "rocksdb:low0"

    def test_no_client_writes_no_finding(self):
        detector = StreamingWriteAmplificationDetector()
        observe(detector, doc("write", 1, proc="rocksdb:low0", ret=4096))
        detector.finalize()
        assert detector.emitted == []


class TestStreamingSpikeAttributor:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            StreamingSpikeAttributor(window_ns=0)

    def test_attributes_spike_to_background_io(self):
        detector = StreamingSpikeAttributor(window_ns=10 * MS,
                                            spike_factor=2.5)
        # Six calm windows establish the baseline, then a spiky window
        # with heavy concurrent background I/O.
        for w in range(6):
            base = w * 10 * MS
            for i in range(10):
                observe_latency(detector, base + i * MS, 1 * MS)
        spike_base = 6 * 10 * MS
        for i in range(20):
            observe(detector, doc("pread64", spike_base + i,
                                 proc="rocksdb:low0", tid=200,
                                 ret=262_144), f"c{i}")
        for i in range(10):
            observe_latency(detector, spike_base + i * MS, 10 * MS)
        observe_latency(detector, spike_base + 50 * 10 * MS, 1 * MS)
        detector.finalize()
        assert detector.spikes_found == 1
        _, finding = detector.emitted[0]
        assert "p99 spike" in finding.title
        assert "rocksdb:low0" in finding.title
        assert finding.details["culprits"] == ["rocksdb:low0"]

    def test_spike_without_background_activity_is_silent(self):
        detector = StreamingSpikeAttributor(window_ns=10 * MS)
        for w in range(6):
            for i in range(10):
                observe_latency(detector, w * 10 * MS + i * MS, 1 * MS)
        for i in range(10):
            observe_latency(detector, 60 * MS + i * MS, 50 * MS)
        detector.finalize()
        assert detector.emitted == []


class TestDiagnosisTap:
    def test_default_battery_composition(self):
        """One detector per finding name: the two batteries are
        disjoint, and together they hold every detector defined in
        ``repro`` — every name a report can emit."""
        batch = [detector.name for detector in DEFAULT_DETECTORS]
        streaming = [detector.name
                     for detector in default_streaming_detectors()]
        assert len(set(batch)) == len(batch)
        assert len(set(streaming)) == len(streaming)
        assert not set(batch) & set(streaming)

        def defined(base):
            for cls in base.__subclasses__():
                if cls.__module__.startswith("repro."):
                    yield cls.name
                yield from defined(cls)

        names = [*defined(Detector), *defined(StreamingDetector)]
        assert len(set(names)) == len(names)
        assert set(batch) | set(streaming) == set(names) == {
            "failed-syscalls", "small-io", "random-access",
            "short-lived-files", "io-contention", "stale-offset-resume",
            "fd-leak", "latency-spike-blame", "write-amplification",
            "uring-completion-lag"}
