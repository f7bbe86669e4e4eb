"""Tests for the shipping-path resilience machinery.

Covers the three state machines (backoff, breaker, adaptive batcher),
the spill WAL, the consumer's backpressure policies, and the
end-to-end resilience experiment harness.
"""

import pytest

from repro.backend import DocumentStore
from repro.experiments.resilience import ResilienceScale, run_resilience_case
from repro.kernel import Kernel
from repro.sim import Environment
from repro.tracer import (AdaptiveBatcher, CircuitBreaker, DIOTracer,
                          DecorrelatedJitterBackoff, SpillWAL, TracerConfig)
from tests.test_failure_injection import FlakyStore, writer_workload

MS = 1_000_000


class TestDecorrelatedJitterBackoff:
    def test_delays_bounded_and_escalating(self):
        backoff = DecorrelatedJitterBackoff(base_ns=1000, cap_ns=50_000,
                                            seed=1)
        delays = [backoff.next_delay_ns() for _ in range(20)]
        assert all(1000 <= d <= 50_000 for d in delays)
        assert backoff.waits == 20
        assert backoff.waited_ns_total == sum(delays)
        # Escalation reaches the cap region eventually.
        assert max(delays) > 1000

    def test_seeded_determinism(self):
        a = DecorrelatedJitterBackoff(1000, 50_000, seed=9)
        b = DecorrelatedJitterBackoff(1000, 50_000, seed=9)
        assert [a.next_delay_ns() for _ in range(10)] == \
               [b.next_delay_ns() for _ in range(10)]

    def test_reset_returns_to_base(self):
        backoff = DecorrelatedJitterBackoff(1000, 1_000_000, seed=3)
        for _ in range(10):
            backoff.next_delay_ns()
        backoff.reset()
        # After reset the next delay is drawn from U(base, 3*base).
        assert backoff.next_delay_ns() <= 3000

    def test_validation(self):
        with pytest.raises(ValueError):
            DecorrelatedJitterBackoff(0, 100)
        with pytest.raises(ValueError):
            DecorrelatedJitterBackoff(100, 50)


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, recovery_ns=100)
        for t in (10, 20):
            breaker.record_failure(t)
            assert breaker.state == "closed"
        breaker.record_failure(30)
        assert breaker.state == "open"
        assert breaker.opened_total == 1
        assert not breaker.allows(50)

    def test_half_open_probe_then_close(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_ns=100)
        breaker.record_failure(0)
        assert breaker.state == "open"
        assert breaker.allows(100)  # recovery elapsed: admit one probe
        assert breaker.state == "half-open"
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.closed_total == 1

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(failure_threshold=5, recovery_ns=100)
        for t in range(5):
            breaker.record_failure(t)
        assert breaker.allows(200)
        breaker.record_failure(200)  # failed probe trips immediately
        assert breaker.state == "open"
        assert breaker.retry_at_ns() == 300

    def test_success_clears_failure_run(self):
        breaker = CircuitBreaker(failure_threshold=2, recovery_ns=100)
        breaker.record_failure(0)
        breaker.record_success()
        breaker.record_failure(10)
        assert breaker.state == "closed"

    def test_state_codes(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_ns=100)
        assert breaker.state_code == 0
        breaker.record_failure(0)
        assert breaker.state_code == 2
        breaker.allows(100)
        assert breaker.state_code == 1


class TestAdaptiveBatcher:
    def test_halves_and_doubles_within_bounds(self):
        batcher = AdaptiveBatcher(min_size=16, max_size=256)
        assert batcher.size == 256
        batcher.on_failure()
        assert batcher.size == 128
        for _ in range(10):
            batcher.on_failure()
        assert batcher.size == 16
        batcher.on_success()
        assert batcher.size == 32
        for _ in range(10):
            batcher.on_success()
        assert batcher.size == 256
        assert batcher.shrinks == 4  # 256->128->64->32->16
        assert batcher.grows == 4

    def test_min_clamped_to_max(self):
        batcher = AdaptiveBatcher(min_size=100, max_size=10)
        assert batcher.min_size == 10


class TestSpillWAL:
    def test_fifo_replay_order(self):
        wal = SpillWAL()
        wal.append([{"n": 1}], now_ns=10)
        wal.append([{"n": 2}, {"n": 3}], now_ns=20)
        assert len(wal._segments) == 2
        assert wal.pending_records == 3
        head = wal.peek()
        assert head.seq == 0 and head.docs[0]["n"] == 1
        assert wal.pop().seq == 0
        assert wal.pop().seq == 1
        assert wal.pending_records == 0
        assert wal.replayed_records_total == 3
        assert wal.spilled_records_total == 3


class TestBackpressurePolicies:
    def _run(self, policy):
        env = Environment()
        kernel = Kernel(env, ncpus=2)
        store = FlakyStore(failures=10_000)  # backend dead throughout
        config = TracerConfig(ship_max_retries=1,
                              ship_retry_backoff_ns=1000,
                              max_inflight_events=8,
                              backpressure_policy=policy,
                              breaker_recovery_ns=10_000_000,
                              spill_replay_failure_budget=1)
        tracer = DIOTracer(env, kernel, store, config)
        task = kernel.spawn_process("app").threads[0]
        tracer.attach()

        def main():
            yield from writer_workload(kernel, task, writes=40)
            yield from tracer.shutdown()

        env.run(until=env.process(main()))
        return tracer

    def test_block_policy_never_sheds(self):
        tracer = self._run("block")
        stats = tracer.stats
        registry = tracer.telemetry.registry
        assert registry.value("dio_consumer_shed_total") == 0
        # Nothing lost: every accepted record is shipped, staged,
        # spilled, or still in the ring.
        accounted = (stats.shipped + stats.staged_records +
                     stats.spill_pending + tracer.ring.pending_records())
        assert accounted == stats.produced

    def test_drop_policy_sheds_over_limit(self):
        tracer = self._run("drop")
        registry = tracer.telemetry.registry
        shed = registry.value("dio_consumer_shed_total")
        assert shed > 0
        stats = tracer.stats
        accounted = (stats.shipped + stats.staged_records +
                     stats.spill_pending + tracer.ring.pending_records())
        assert accounted + shed == stats.produced


class TestRetryRateRegression:
    def test_retry_rate_is_per_attempt_not_per_batch(self):
        """Regression: retry_rate used to divide retries by *batches*,
        overstating retry pressure whenever a batch needed more than
        one attempt (it could exceed 1.0).  It must be retries per
        attempted bulk request, in [0, 1]."""
        env = Environment()
        kernel = Kernel(env, ncpus=2)
        store = FlakyStore(failures=3)
        tracer = DIOTracer(env, kernel, store,
                           TracerConfig(session_name="retry-rate"))
        task = kernel.spawn_process("app").threads[0]
        tracer.attach()

        def main():
            yield from writer_workload(kernel, task)
            yield from tracer.shutdown()

        env.run(until=env.process(main()))
        stats = tracer.stats
        assert stats.ship_retries == 3
        assert stats.bulk_attempts == stats.batches + 3
        assert stats.retry_rate == 3 / stats.bulk_attempts
        assert 0.0 <= stats.retry_rate <= 1.0
        # The health report agrees with TracerStats.
        health = tracer.telemetry.health_report().as_dict()
        assert health["derived"]["retry_rate"] == pytest.approx(
            stats.retry_rate)

    def test_retry_rate_zero_without_attempts(self):
        env = Environment()
        kernel = Kernel(env, ncpus=1)
        tracer = DIOTracer(env, kernel, DocumentStore(), TracerConfig())
        assert tracer.stats.retry_rate == 0.0


class TestResilienceExperiment:
    @pytest.fixture(scope="class")
    def case(self):
        return run_resilience_case(_smoke_scale())

    def test_envelopes_hold(self, case):
        report = case.verify()
        assert report["lost"] == 0
        assert report["spill"]["records"] > 0
        assert report["spill"]["replayed"] == report["spill"]["records"]
        assert report["breaker"]["opened"] >= 1
        assert report["breaker"]["closed"] >= 1

    def test_every_fault_kind_fired(self, case):
        report = case.report()
        assert all(report["faults_injected"][kind] > 0
                   for kind in ("error", "timeout", "slowdown"))

    def test_application_isolated_from_outage(self, case):
        assert case.baseline_app_done_ns == case.app_done_ns
        assert case.drain_lag_ns > 0  # the pipeline, not the app, paid

    def test_deterministic_across_runs(self, case):
        again = run_resilience_case(_smoke_scale(), compare_baseline=False)
        a = case.report()
        b = again.report()
        for key in ("baseline_app_done_ns", "baseline_drain_lag_ns"):
            a["envelope"].pop(key)
            b["envelope"].pop(key)
        assert a == b

    def test_short_duration_plan_never_overlaps(self):
        scale = ResilienceScale(duration_ns=100 * MS)
        plan = scale.fault_plan()
        assert len(plan.windows) == 3
        for earlier, later in zip(plan.windows, plan.windows[1:]):
            assert earlier.end_ns <= later.start_ns

    def test_degenerate_duration_yields_empty_plan(self):
        # Too short to fit distinct windows: an empty plan, not a
        # FaultError from three outages all starting at t=0.
        plan = ResilienceScale(duration_ns=3).fault_plan()
        assert len(plan.windows) == 0


def _smoke_scale() -> ResilienceScale:
    """Reduced-size scenario for tests and the CI smoke job.

    The outage must comfortably outlast ``ship_max_retries`` worth of
    backoff plus one breaker recovery window (60 ms), or no batch ever
    exhausts its retries into the spill WAL.
    """
    return ResilienceScale(duration_ns=600 * MS, client_threads=2,
                           key_count=4_000, outage_ns=100 * MS)
