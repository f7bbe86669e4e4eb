"""Tests for the streaming detectors and the consumer-path tap."""

import pytest

from repro.analysis.streaming import (MAX_TRACKED_TAGS, DiagnosisTap,
                                      StreamingContentionDetector,
                                      StreamingDFGMiner,
                                      StreamingFdLeakDetector,
                                      StreamingSpikeAttributor,
                                      StreamingStaleOffsetDetector,
                                      StreamingWriteAmplificationDetector,
                                      default_streaming_detectors)
from repro.apps.fluentbit import FLUENTBIT_BUGGY, FLUENTBIT_FIXED
from repro.backend.lanes import DocBatch
from repro.experiments import run_fluentbit_case

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
    detector.observe_batch(DocBatch([source]), (event_id,))


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
    def test_watermark_fires_once(self):
        detector = StreamingFdLeakDetector(min_unclosed=4)
        for i in range(6):
            observe(detector, doc("openat", i, pid=9, ret=3 + i), f"e{i}")
        assert len(detector.emitted) == 1
        _, finding = detector.emitted[0]
        assert "watermark reached 4" in finding.title

    def test_balanced_process_silent(self):
        detector = StreamingFdLeakDetector(min_unclosed=4)
        for i in range(8):
            observe(detector, doc("open", 2 * i, pid=1, ret=3))
            observe(detector, doc("close", 2 * i + 1, pid=1, ret=0))
        assert detector.emitted == []

    def test_failed_opens_ignored(self):
        detector = StreamingFdLeakDetector(min_unclosed=2)
        for i in range(10):
            observe(detector, doc("open", i, pid=1, ret=-2))
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

    def test_finalize_is_one_shot(self):
        detector = StreamingWriteAmplificationDetector(min_client_bytes=1)
        observe(detector, doc("write", 1, proc="db_bench", ret=10))
        observe(detector, doc("write", 2, proc="bg", ret=1000))
        detector.finalize()
        detector.finalize()
        assert len(detector.emitted) == 1


def contended_stream(detector, windows=3, calm=3, window_ns=10 * MS):
    """Alternating calm / contended windows into a windowed detector.

    Events are delivered in event-time order — the watermark semantics
    of the windowed detectors assume an in-order feed, and that is what
    the consumer path provides.
    """
    feed = []
    t = 0
    for w in range(calm):
        base = w * 2 * window_ns
        for i in range(20):
            feed.append((doc("read", base + i * 100_000,
                             proc="db_bench", tid=100 + i % 8,
                             ret=512), None))
        t = base
    for w in range(windows):
        base = (2 * w + 1) * window_ns
        for thread in range(6):
            for i in range(5):
                feed.append((doc(
                    "pread64", base + thread * 100_000 + i,
                    proc=f"rocksdb:low{thread}", tid=200 + thread,
                    ret=262_144), f"bg{w}-{thread}-{i}"))
        for i in range(4):
            feed.append((doc("read", base + 5 * MS + i,
                             proc="db_bench", tid=100 + i, ret=512),
                         None))
        t = base
    # Push the watermark far enough that every window closes.
    feed.append((doc("read", t + 10 * window_ns, proc="db_bench",
                     tid=100, ret=512), None))
    for source, event_id in sorted(feed, key=lambda item: item[0]["time"]):
        observe(detector, source, event_id)
    detector.finalize()


class TestStreamingContention:
    def test_emits_window_and_summary_findings(self):
        detector = StreamingContentionDetector(window_ns=10 * MS,
                                               min_windows=2)
        contended_stream(detector)
        severities = [f.severity for _, f in detector.emitted]
        assert "warning" in severities          # the summary
        assert "info" in severities             # incremental windows
        summary = [f for _, f in detector.emitted
                   if f.severity == "warning"][0]
        assert "client syscall rate drops" in summary.title
        assert summary.details["contended_windows"] >= 2
        window_finding = [f for _, f in detector.emitted
                          if f.severity == "info"][0]
        assert "rocksdb:low" in window_finding.title
        assert window_finding.evidence["event_ids"]

    def test_quiet_without_background_bursts(self):
        detector = StreamingContentionDetector(window_ns=10 * MS)
        for i in range(200):
            observe(detector, doc("read", i * 500_000, proc="db_bench",
                                 tid=100 + i % 8, ret=512))
        detector.finalize()
        assert detector.emitted == []

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            StreamingContentionDetector(window_ns=0)


class TestStreamingSpikeAttributor:
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


class TestStreamingDFGMiner:
    def test_counts_match_batch_graph(self):
        miner = StreamingDFGMiner()
        for i in range(50):
            miner.observe_batch(DocBatch([doc("read", i * 10, tid=1)]))
            miner.observe_batch(DocBatch([doc("write", i * 10 + 5, tid=2)]))
        assert miner.nodes == 2
        assert miner.transitions == 100
        # Per-tid chains: no invented read->write edge.
        assert ("read", "write") not in miner.graph.edges

    def test_phase_counting(self):
        miner = StreamingDFGMiner(window_events=16, drift_threshold=0.4)
        for i in range(64):
            miner.observe_batch(DocBatch([doc("read", i * 10)]))
        for i in range(64):
            miner.observe_batch(DocBatch([doc("write", 640 + i * 10)]))
        assert miner.phases >= 2


class TestDiagnosisTap:
    def test_live_tap_on_fluentbit_consumer_path(self):
        tap = DiagnosisTap()
        case = run_fluentbit_case(FLUENTBIT_BUGGY, tap=tap)
        assert tap.events_observed == case.store.count("dio_trace")
        assert tap.finalized
        findings = [f for _, f in tap.findings()]
        assert any(f.detector == "stale-offset-resume"
                   and f.severity == "critical" for f in findings)

    def test_live_tap_fixed_version_no_critical(self):
        tap = DiagnosisTap()
        run_fluentbit_case(FLUENTBIT_FIXED, tap=tap)
        assert all(f.severity != "critical" for _, f in tap.findings())

    def test_drain_new_is_incremental(self):
        tap = DiagnosisTap()
        observe(tap, doc("read", 10, tag="t", offset=26, ret=0), "e1")
        assert tap.drain_new() == []
        tap.finalize()
        fresh = tap.drain_new()
        assert len(fresh) == 1
        assert tap.drain_new() == []

    def test_bind_telemetry_registers_families(self):
        from repro.telemetry.registry import MetricsRegistry

        tap = DiagnosisTap()
        registry = MetricsRegistry()
        tap.bind_telemetry(registry)
        names = {family.name for family in registry.collect()}
        assert {"dio_diagnosis_events_observed_total",
                "dio_diagnosis_findings_total",
                "dio_diagnosis_detectors",
                "dio_dfg_nodes", "dio_dfg_edges",
                "dio_dfg_transitions_total",
                "dio_dfg_phases_total"} <= names

    def test_default_battery_composition(self):
        detectors = default_streaming_detectors()
        names = [d.name for d in detectors]
        assert names == ["stale-offset-resume", "fd-leak",
                         "io-contention", "latency-spike-blame",
                         "write-amplification", "uring-completion-lag"]
