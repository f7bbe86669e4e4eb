"""Edge cases for the blame and compare analyses.

These are the degenerate inputs the case-study tests never hit: empty
latency series, sessions that touch disjoint files, and single-event
sessions.
"""

import pytest

from repro.analysis.blame import SpikeBlame, blame_spikes, render_blame
from repro.analysis.compare import compare_sessions, session_fingerprint
from repro.analysis.dfg import compare_session_dfgs
from repro.backend import DocumentStore

MS = 1_000_000


def event(syscall, time, proc="p", tid=1, ret=0, session="s", path=None,
          offset=None):
    doc = {"syscall": syscall, "time": time, "proc_name": proc,
           "pid": 1, "tid": tid, "ret": ret, "session": session}
    if path is not None:
        doc["file_path"] = path
    if offset is not None:
        doc["offset"] = offset
    return doc


class TestBlameEdgeCases:
    def test_no_operations_no_spikes(self):
        assert blame_spikes(DocumentStore(), [], window_ns=100 * MS) == []

    def test_render_empty_report(self):
        assert render_blame([]) == "no latency spikes detected"

    def test_uniform_latency_has_no_spikes(self):
        store = DocumentStore()
        store.bulk("dio_trace", [event("read", i * MS, ret=512)
                                 for i in range(100)])
        operations = [(i * MS, 2 * MS, "read", 1) for i in range(100)]
        assert blame_spikes(store, operations, window_ns=10 * MS) == []

    def test_spike_window_with_no_trace_activity(self):
        # A spike over an empty store: blame report exists, but names
        # nobody — the analysis must not crash on missing activity.
        operations = [(i * MS, 1 * MS, "read", 1) for i in range(90)]
        operations += [(95 * MS, 500 * MS, "read", 1)]
        store = DocumentStore()
        store.bulk("dio_trace", [event("read", 10_000 * MS, ret=512)])
        reports = blame_spikes(store, operations, window_ns=10 * MS)
        assert len(reports) == 1
        assert reports[0].background == []
        assert reports[0].client_syscalls == 0

    def test_render_spike_without_culprits(self):
        report = SpikeBlame(window_start_ns=90 * MS, p99_ns=500.0 * MS,
                            background=[], client_syscalls=0)
        text = render_blame([report])
        assert "spike @ 90 ms" in text
        assert "0 background threads" in text



class TestCompareEdgeCases:
    def test_single_event_sessions_identical(self):
        store = DocumentStore()
        store.bulk("dio_trace", [event("read", 1, session="x", ret=4),
                                 event("read", 1, session="y", ret=4)])
        comparison = compare_sessions(store, "x", "y")
        assert comparison.behaviorally_identical
        assert comparison.common_prefix == 1
        assert comparison.syscall_deltas == {}

    def test_single_event_sessions_differ(self):
        store = DocumentStore()
        store.bulk("dio_trace", [event("read", 1, session="x", ret=4),
                                 event("write", 1, session="y", ret=4)])
        comparison = compare_sessions(store, "x", "y")
        assert not comparison.behaviorally_identical
        assert comparison.divergence.position == 0
        assert "read" in comparison.divergence.describe()
        assert "write" in comparison.divergence.describe()

    def test_empty_vs_nonempty_session(self):
        store = DocumentStore()
        store.bulk("dio_trace", [event("read", 1, session="x", ret=4)])
        comparison = compare_sessions(store, "missing", "x")
        assert not comparison.behaviorally_identical
        assert comparison.common_prefix == 0
        assert comparison.divergence.event_a is None
        assert "(sequence ended)" in comparison.divergence.describe()

    def test_zero_overlapping_files(self):
        # Two sessions touching disjoint files: behaviourally identical
        # under normalization (same syscall/ret shape), and so are their
        # syscall DFGs.
        store = DocumentStore()
        store.bulk("dio_trace", [
            event("write", 1, session="x", path="/a.log", ret=10),
            event("write", 2, session="x", path="/a.log", ret=10),
            event("write", 1, session="y", path="/b.sst", ret=10),
            event("write", 2, session="y", path="/b.sst", ret=10),
        ])
        comparison = compare_sessions(store, "x", "y")
        assert comparison.behaviorally_identical
        dfg = compare_session_dfgs(store, "x", "y")
        assert dfg.distance == pytest.approx(0.0)
        assert dfg.diverging_edges == []

    def test_fingerprint_of_missing_session_is_empty(self):
        store = DocumentStore()
        store.bulk("dio_trace", [event("read", 1, session="real", ret=4)])
        fingerprint = session_fingerprint(store, "ghost")
        assert fingerprint["events"] == 0
        assert fingerprint["by_syscall"] == {}
        assert fingerprint["failed_syscalls"] == 0

    def test_renamed_threads_still_align(self):
        store = DocumentStore()
        store.bulk("dio_trace", [
            event("open", 1, session="x", proc="fluent-bit", ret=3),
            event("open", 1, session="y", proc="flb-pipeline", ret=3),
        ])
        comparison = compare_sessions(store, "x", "y")
        assert comparison.behaviorally_identical
