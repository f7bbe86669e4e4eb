"""Tests for Directly-Follows-Graph mining (analysis/dfg.py)."""

import pytest

from repro.analysis.compare import session_fingerprint
from repro.analysis.dfg import (DirectlyFollowsGraph, compare_session_dfgs,
                                merged_dfg, mine_phases, segment_phases)
from repro.apps.fluentbit import FLUENTBIT_BUGGY, FLUENTBIT_FIXED
from repro.backend import DocumentStore
from repro.backend.lanes import DocBatch
from repro.experiments import run_fluentbit_case
from tests.dfg_oracle import observe

MS = 1_000_000


def event(syscall, time, proc="p", tid=1, ret=0, path=None, session="s"):
    doc = {"syscall": syscall, "time": time, "proc_name": proc,
           "pid": 1, "tid": tid, "ret": ret, "session": session}
    if path is not None:
        doc["file_path"] = path
    return doc


class TestDirectlyFollowsGraph:
    def test_edges_and_counts(self):
        graph = DirectlyFollowsGraph("g")
        observe(graph, DocBatch([event("open", 10), event("read", 20),
                                 event("read", 30), event("close", 40)]))
        assert graph.events == 4
        assert graph.node_counts == {"open": 1, "read": 2, "close": 1}
        assert graph.edges[("^", "open")].count == 1
        assert graph.edges[("read", "read")].count == 1
        assert graph.edges[("read", "read")].gap_total_ns == 10

    def test_distance_bounds(self):
        a = DirectlyFollowsGraph("a")
        b = DirectlyFollowsGraph("b")
        for graph in (a, b):
            observe(graph, DocBatch([event("open", 1), event("read", 2)]))
        assert a.distance(b) == pytest.approx(0.0)
        c = DirectlyFollowsGraph("c")
        observe(c, DocBatch([event("unlink", 1), event("mkdir", 2)]))
        assert a.distance(c) == pytest.approx(1.0)

    def test_fingerprint_deterministic(self):
        a = DirectlyFollowsGraph("a")
        observe(a, DocBatch([event("open", 1), event("read", 2),
                             event("close", 3)]))
        assert a.fingerprint() == a.fingerprint()
        assert a.fingerprint()["edges"] == {
            "^->open": 1, "open->read": 1, "read->close": 1}


class TestMining:
    @pytest.fixture()
    def store(self):
        store = DocumentStore()
        docs = []
        for i in range(10):
            docs.append(event("read", 10 * i, proc="a", tid=1))
            docs.append(event("write", 10 * i + 5, proc="b", tid=2))
        store.bulk("t", docs)
        return store

    def test_node_totals_agree_with_session_fingerprint(self):
        # compare.session_fingerprint is the count-level oracle: the
        # merged DFG's node totals must agree with its by_syscall aggs.
        case = run_fluentbit_case(FLUENTBIT_BUGGY)
        session = case.tracer.config.session_name
        graph = merged_dfg(case.store, "dio_trace", session)
        oracle = session_fingerprint(case.store, session)
        assert graph.node_counts == oracle["by_syscall"]
        assert graph.events == oracle["events"]

    def test_merged_dfg_does_not_invent_cross_thread_edges(self, store):
        # Threads strictly alternate read(a)/write(b); a naive global
        # chain would see read->write transitions, the per-thread merge
        # must not.
        graph = merged_dfg(store, "t", "s")
        assert ("read", "write") not in graph.edges
        assert graph.edges[("read", "read")].count == 9
        assert graph.events == 20


class TestPhases:
    def test_single_phase_when_stable(self):
        events = [event("read", i * 10) for i in range(100)]
        phases = segment_phases(DocBatch(events), window_events=20)
        assert len(phases) == 1
        assert phases[0].events == 100

    def test_detects_phase_change(self):
        events = [event("read", i * 10) for i in range(60)]
        events += [event("write", 600 + i * 10, path="/w.log")
                   for i in range(60)]
        phases = segment_phases(DocBatch(events), window_events=20,
                                drift_threshold=0.4)
        assert len(phases) == 2
        assert phases[0].dfg.node_counts == {"read": 60}
        assert phases[1].dfg.node_counts == {"write": 60}
        assert phases[1].drift > 0.4

    def test_mine_phases_from_store(self):
        store = DocumentStore()
        store.bulk("t", [event("read", i) for i in range(10)])
        phases = mine_phases(store, "t", session="s", window_events=4)
        assert len(phases) == 1
        assert phases[0].events == 10

    def test_rejects_tiny_window(self):
        with pytest.raises(ValueError):
            segment_phases(DocBatch([]), window_events=1)


class TestCompareSessionDFGs:
    def test_buggy_vs_fixed_fluentbit_diverge(self):
        store = DocumentStore()
        for version in (FLUENTBIT_BUGGY, FLUENTBIT_FIXED):
            case = run_fluentbit_case(version)
            for _, source in case.store.scan("dio_trace", {"match_all": {}}):
                store.bulk("dio_trace", [source])
        comparison = compare_session_dfgs(
            store, f"fluentbit-{FLUENTBIT_BUGGY}",
            f"fluentbit-{FLUENTBIT_FIXED}")
        assert comparison.distance > 0
        edges = dict(comparison.diverging_edges)
        # The buggy version's stale lseek shows up as diverging edges.
        assert any("lseek" in edge for edge in edges)

    def test_identical_sessions_distance_zero(self):
        store = DocumentStore()
        for session in ("x", "y"):
            store.bulk("t", [event("read", i, session=session)
                             for i in range(5)])
        comparison = compare_session_dfgs(store, "x", "y", index="t")
        assert comparison.distance == pytest.approx(0.0)
        assert comparison.diverging_edges == []
