"""Unit tests for the deterministic fault-injection layer."""

import pytest

from repro.backend import DocumentStore
from repro.faults import (DEFAULT_TIMEOUT_NS, FAULT_KINDS, FaultError,
                          FaultPlan, FaultWindow, FaultyStore, InjectedFault)
from repro.telemetry import MetricsRegistry


class TestFaultWindow:
    def test_basic_window(self):
        window = FaultWindow(100, 200)
        assert window.kind == "error"
        assert window.duration_ns == 100
        assert window.active_at(100)
        assert window.active_at(199)
        assert not window.active_at(200)
        assert not window.active_at(99)

    def test_validation(self):
        with pytest.raises(FaultError):
            FaultWindow(100, 100)
        with pytest.raises(FaultError):
            FaultWindow(-1, 100)
        with pytest.raises(FaultError):
            FaultWindow(0, 100, kind="meteor-strike")
        with pytest.raises(FaultError):
            FaultWindow(0, 100, kind="slowdown", slowdown_factor=1.0)
        with pytest.raises(FaultError):
            FaultWindow(0, 100, kind="timeout", timeout_ns=-1)

    def test_as_dict_includes_kind_params(self):
        assert "timeout_ns" in FaultWindow(0, 1, "timeout").as_dict()
        assert "slowdown_factor" in FaultWindow(0, 1, "slowdown").as_dict()
        assert "timeout_ns" not in FaultWindow(0, 1, "error").as_dict()


class TestFaultPlan:
    def test_overlap_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan([FaultWindow(0, 100), FaultWindow(50, 150)])

    def test_windows_sorted(self):
        plan = FaultPlan([FaultWindow(200, 300), FaultWindow(0, 100)])
        assert [w.start_ns for w in plan.windows] == [0, 200]

    def test_fault_at(self):
        plan = FaultPlan([FaultWindow(100, 200),
                          FaultWindow(300, 400, "timeout")])
        assert plan.fault_at(50) is None
        assert plan.fault_at(150).kind == "error"
        assert plan.fault_at(250) is None
        assert plan.fault_at(350).kind == "timeout"
        assert plan.fault_at(400) is None

    def test_seeded_is_deterministic(self):
        a = FaultPlan.seeded(7, horizon_ns=10**9)
        b = FaultPlan.seeded(7, horizon_ns=10**9)
        assert a.as_dict() == b.as_dict()
        assert len(a.windows) == 3

    def test_seeded_different_seeds_differ(self):
        a = FaultPlan.seeded(1, horizon_ns=10**9)
        b = FaultPlan.seeded(2, horizon_ns=10**9)
        assert a.as_dict() != b.as_dict()

    def test_seeded_windows_never_overlap(self):
        for seed in range(25):
            plan = FaultPlan.seeded(seed, horizon_ns=10**9, outages=5)
            for earlier, later in zip(plan.windows, plan.windows[1:]):
                assert earlier.end_ns <= later.start_ns

    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.windows == ()
        assert plan.fault_at(0) is None
        assert plan.total_outage_ns == 0


class TestFaultyStore:
    def _store(self, plan, now):
        inner = DocumentStore()
        return inner, FaultyStore(inner, plan, clock=lambda: now[0])

    def test_clean_passthrough(self):
        now = [0]
        inner, faulty = self._store(FaultPlan([FaultWindow(100, 200)]), now)
        assert faulty.bulk("idx", [{"a": 1}]) == 1
        assert inner.count("idx") == 1
        assert faulty.faults_injected == 0

    def test_error_window_fails_before_mutation(self):
        now = [150]
        inner, faulty = self._store(FaultPlan([FaultWindow(100, 200)]), now)
        with pytest.raises(InjectedFault) as excinfo:
            faulty.bulk("idx", [{"a": 1}])
        assert excinfo.value.kind == "error"
        assert excinfo.value.cost_ns == 0
        assert inner.documents_indexed == 0  # fails before mutation
        assert faulty.injected["error"] == 1

    def test_timeout_window_carries_cost(self):
        now = [150]
        _, faulty = self._store(
            FaultPlan([FaultWindow(100, 200, "timeout")]), now)
        with pytest.raises(InjectedFault) as excinfo:
            faulty.bulk("idx", [{"a": 1}])
        assert excinfo.value.cost_ns == DEFAULT_TIMEOUT_NS
        assert isinstance(excinfo.value, ConnectionError)

    def test_slowdown_succeeds_with_penalty(self):
        now = [150]
        plan = FaultPlan([FaultWindow(100, 200, "slowdown",
                                      slowdown_factor=4.0)])
        inner, faulty = self._store(plan, now)
        assert faulty.bulk("idx", [{"a": 1}], nominal_ns=1000) == 1
        assert inner.count("idx") == 1
        assert faulty.consume_penalty_ns() == 3000
        assert faulty.consume_penalty_ns() == 0  # claimed once
        assert faulty.penalty_ns_total == 3000

    def test_unprotected_methods_delegate(self):
        now = [150]
        inner, faulty = self._store(FaultPlan([FaultWindow(100, 200)]), now)
        inner.bulk("idx", [{"a": 1}])
        # Reads are never faulted; set_paths is outside the default
        # protect set.
        assert faulty.count("idx") == 1
        hits = faulty.search("idx")["hits"]["hits"]
        assert len(hits) == 1
        faulty.set_paths("idx", {"t": "/p"})

    def test_protect_requires_real_methods(self):
        with pytest.raises(FaultError):
            FaultyStore(DocumentStore(), FaultPlan(), clock=lambda: 0,
                        protect=("no_such_method",))

    def test_telemetry_counters(self):
        now = [150]
        _, faulty = self._store(FaultPlan([FaultWindow(100, 200)]), now)
        registry = MetricsRegistry()
        faulty.bind_telemetry(registry)
        with pytest.raises(InjectedFault):
            faulty.bulk("idx", [{}])
        assert registry.value("dio_faults_injected_total",
                              {"kind": "error"}) == 1
        assert registry.value("dio_faults_window_active") == 1
        now[0] = 500
        assert registry.value("dio_faults_window_active") == 0
        assert set(FAULT_KINDS) == set(faulty.injected)
