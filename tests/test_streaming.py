"""Tests for the five detectors that stamp their findings.

``stale-offset-resume``, ``fd-leak``, ``latency-spike-blame``,
``write-amplification`` and ``uring-completion-lag`` once ran online
over the stream, in bounded memory; their findings keep the report
label ``streaming`` and an emission time.  Each is now one pass over a
stored session, so no table of theirs forgets a key: the eviction tests
below pin findings that per-key caps used to lose or invent.
"""

import pytest

from repro.analysis.detectors import (DEFAULT_DETECTORS, Detector,
                                      FdLeakDetector, SpikeBlameDetector,
                                      StaleOffsetDetector,
                                      WriteAmplificationDetector)
from repro.analysis.diagnose import diagnose_session, follow_session
from repro.analysis.session import SessionEvents
from repro.backend import DocumentStore

MS = 1_000_000
INDEX = "trace"


def doc(syscall, time, proc="p", pid=1, tid=1, ret=0, tag=None,
        offset=None, path=None, **extra):
    out = {"syscall": syscall, "time": time, "proc_name": proc,
           "pid": pid, "tid": tid, "ret": ret, **extra}
    if tag is not None:
        out["file_tag"] = tag
    if offset is not None:
        out["offset"] = offset
    if path is not None:
        out["file_path"] = path
    return out


def stored(docs):
    """A store holding ``docs``, ids ``"1"``.. in order."""
    store = DocumentStore()
    store.bulk(INDEX, docs)
    return store


def detect(detector, docs, latencies=()):
    """``(emit_ns, finding)`` of ``detector`` over ``docs``, stored."""
    return detector.detect(SessionEvents(stored(docs), INDEX,
                                         latencies=latencies))


class TestStreamingStaleOffset:
    def test_confirms_after_empty_reads(self):
        docs = [doc("read", 10, proc="fb", tag="7 9 1", offset=26, ret=0,
                    path="/app.log")]
        docs += [doc("read", 20 + i, proc="fb", tag="7 9 1", offset=26,
                     ret=0) for i in range(3)]
        (emit_ns, finding), = detect(StaleOffsetDetector(confirm_after=3),
                                     docs)
        assert emit_ns == 22
        assert finding.severity == "critical"
        assert "stale offset 26" in finding.title
        assert finding.evidence["event_ids"] == ["1", "2", "3", "4"]

    def test_data_arriving_clears_suspicion(self):
        docs = [doc("read", 10, tag="t", offset=26, ret=0),
                doc("read", 20, tag="t", offset=26, ret=99)]
        assert detect(StaleOffsetDetector(confirm_after=3), docs) == []

    def test_finalize_emits_unconfirmed_suspicions(self):
        docs = [doc("read", 10, tag="t", offset=26, ret=0)]
        assert len(detect(StaleOffsetDetector(confirm_after=99), docs)) == 1

    def test_offset_zero_first_read_is_fine(self):
        docs = [doc("read", 10, tag="t", offset=0, ret=0)]
        assert detect(StaleOffsetDetector(), docs) == []

    def test_a_healthy_poll_after_4097_tags_is_not_a_resume(self):
        # 4,097 tags read from offset 0 with data, then four empty EOF
        # polls of the first: a tail that caught up.  A per-tag table
        # capped at 4,096 forgot the first tag and took its next poll
        # for a first read at a stale offset — a critical finding.
        docs = [doc("read", n, proc="tail", tag=f"t{n}", offset=0, ret=100,
                    path=f"/log/t{n}") for n in range(4097)]
        docs += [doc("read", 5000 + n, proc="tail", tag="t0", offset=100,
                     ret=0) for n in range(4)]
        assert follow_session(stored(docs), INDEX, None) == []


class TestStreamingFdLeak:
    def test_unclosed_descriptors_fire_once_at_finalize(self):
        docs = [doc("openat", i, pid=9, ret=3 + i) for i in range(6)]
        docs.append(doc("close", 6, pid=9, ret=0))
        (emit_ns, finding), = detect(FdLeakDetector(min_unclosed=4), docs)
        assert emit_ns == 6
        assert finding.title == ("pid 9: 6 opens vs 1 closes "
                                 "(5 descriptors left open)")
        assert finding.evidence == {
            "event_ids": [str(i) for i in range(1, 8)],
            "window": {"start_ns": 0, "end_ns": 6}}

    def test_early_leaker_survives_many_later_processes(self):
        # The leaker is seen first; more short-lived processes follow
        # than any per-process cap held.  Its finding must not be lost.
        docs = [doc("openat", i, pid=1, ret=3 + i) for i in range(5)]
        for pid in range(2, 1124):
            docs.append(doc("openat", 10 * pid, pid=pid, ret=3))
            docs.append(doc("close", 10 * pid + 1, pid=pid, ret=0))
        docs.append(doc("openat", 20_000, pid=1, ret=9))
        titles = [finding.title for _, finding
                  in detect(FdLeakDetector(min_unclosed=4), docs)]
        assert titles == ["pid 1: 6 opens vs 0 closes "
                          "(6 descriptors left open)"]

    def test_balanced_process_silent(self):
        docs = []
        for i in range(8):
            docs.append(doc("open", 2 * i, pid=1, ret=3))
            docs.append(doc("close", 2 * i + 1, pid=1, ret=0))
        assert detect(FdLeakDetector(min_unclosed=4), docs) == []

    def test_failed_opens_ignored(self):
        docs = [doc("open", i, pid=1, ret=-2) for i in range(10)]
        assert detect(FdLeakDetector(min_unclosed=2), docs) == []


class TestStreamingUringLag:
    def test_a_baseline_survives_1024_other_pids(self):
        # Pid 1 builds a 16-completion baseline of 1 µs lags, 1,024
        # other pids complete once each, then pid 1 lags 6 ms.  A table
        # capped at 1,024 pids forgot pid 1 and restarted its baseline,
        # so the lag went unreported.
        docs = [doc("uring_read", n, pid=1, ret=4096, duration_ns=1000)
                for n in range(16)]
        docs += [doc("uring_read", 100 + pid, pid=pid, ret=4096,
                     duration_ns=1000) for pid in range(2, 1026)]
        docs.append(doc("uring_read", 5000, pid=1, ret=4096,
                        duration_ns=6 * MS))
        (emit_ns, finding), = follow_session(stored(docs), INDEX, None)
        assert emit_ns == 5000
        assert finding.detector == "uring-completion-lag"
        assert finding.details["completions"] == 16
        assert finding.evidence["event_ids"] == [str(n)
                                                 for n in range(1, 9)]

    def test_a_zero_baseline_is_no_baseline(self):
        # Sixteen completions that took 0 ns give a mean of 0: the 6 ms
        # lag is over the floor and over any multiple of it, so it is
        # flagged, with no ratio to divide out.
        docs = [doc("uring_read", n, pid=7, ret=4096, duration_ns=0)
                for n in range(16)]
        docs.append(doc("uring_read", 100, pid=7, ret=4096,
                        duration_ns=6 * MS))
        (emit_ns, finding), = follow_session(stored(docs), INDEX, None)
        assert emit_ns == 100
        assert finding.title == ("pid 7: io_uring completion lag 6.00 ms "
                                 "has no baseline: 0 ms over 16 "
                                 "completions")
        assert finding.details["baseline_ns"] == 0
        assert finding.details["completions"] == 16
        report = diagnose_session(stored(docs), index=INDEX)
        assert [ranked.finding.title for ranked in report.findings
                if ranked.finding.detector == "uring-completion-lag"] == [
                    finding.title]


class TestStreamingWriteAmplification:
    def test_detects_amplification(self):
        docs = [doc("write", i, proc="db_bench", ret=200) for i in range(10)]
        docs += [doc("write", 100 + i, proc="rocksdb:low0", ret=1000)
                 for i in range(40)]
        (_, finding), = detect(WriteAmplificationDetector(
            client_comm="db_bench", min_client_bytes=1000), docs)
        assert "write" in finding.title
        assert finding.details["amplification"] == pytest.approx(21.0)
        assert finding.details["top_writers"][0][0] == "rocksdb:low0"

    def test_no_client_writes_no_finding(self):
        docs = [doc("write", 1, proc="rocksdb:low0", ret=4096)]
        assert detect(WriteAmplificationDetector(), docs) == []


class TestStreamingSpikeAttributor:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            SpikeBlameDetector(window_ns=0)

    def test_attributes_spike_to_background_io(self):
        # Six calm windows establish the baseline, then a spiky window
        # with heavy concurrent background I/O.
        latencies = [(w * 10 * MS + i * MS, 1 * MS)
                     for w in range(6) for i in range(10)]
        spike_base = 6 * 10 * MS
        docs = [doc("pread64", spike_base + i, proc="rocksdb:low0", tid=200,
                    ret=262_144) for i in range(20)]
        latencies += [(spike_base + i * MS, 10 * MS) for i in range(10)]
        latencies.append((spike_base + 50 * 10 * MS, 1 * MS))
        (emit_ns, finding), = detect(
            SpikeBlameDetector(window_ns=10 * MS, spike_factor=2.5), docs,
            latencies)
        assert emit_ns == spike_base + 10 * MS
        assert "p99 spike" in finding.title
        assert "rocksdb:low0" in finding.title
        assert finding.details["culprits"] == ["rocksdb:low0"]

    def test_spike_without_background_activity_is_silent(self):
        latencies = [(w * 10 * MS + i * MS, 1 * MS)
                     for w in range(6) for i in range(10)]
        latencies += [(60 * MS + i * MS, 50 * MS) for i in range(10)]
        assert detect(SpikeBlameDetector(window_ns=10 * MS), [],
                      latencies) == []


class TestDiagnosisTap:
    def test_default_battery_composition(self):
        """One detector per finding name: the one battery holds every
        detector defined in ``repro`` — every name a report can emit —
        and five of them carry the ``streaming`` label."""
        battery = [detector.name for detector in DEFAULT_DETECTORS]
        assert len(set(battery)) == len(battery)

        def defined(base):
            for cls in base.__subclasses__():
                if cls.__module__.startswith("repro."):
                    yield cls.name
                yield from defined(cls)

        names = list(defined(Detector))
        assert len(set(names)) == len(names)
        assert set(battery) == set(names) == {
            "failed-syscalls", "small-io", "random-access",
            "short-lived-files", "io-contention", "stale-offset-resume",
            "fd-leak", "latency-spike-blame", "write-amplification",
            "uring-completion-lag"}
        assert {detector.name for detector in DEFAULT_DETECTORS
                if detector.source == "streaming"} == {
            "stale-offset-resume", "fd-leak", "latency-spike-blame",
            "write-amplification", "uring-completion-lag"}
