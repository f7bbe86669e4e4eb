"""Failure-injection tests: crashes, flaky backends, stale state."""

import pytest

from repro.backend import DocumentStore
from repro.kernel import Kernel, O_CREAT, O_WRONLY
from repro.sim import Environment
from repro.tracer import DIOTracer, TracerConfig


class FlakyStore(DocumentStore):
    """A backend that fails the first N bulk requests.

    Both bulk entry points count against the same budget (the
    consumer ships via ``bulk_columnar``, spill replay via ``bulk``).
    """

    def __init__(self, failures: int):
        super().__init__()
        self.failures_left = failures
        self.failed_requests = 0

    def _fail_next(self) -> bool:
        if self.failures_left > 0:
            self.failures_left -= 1
            self.failed_requests += 1
            return True
        return False

    def bulk(self, index, sources):
        if self._fail_next():
            raise ConnectionError("backend unavailable")
        return super().bulk(index, sources)

    def bulk_columnar(self, index, batch):
        if self._fail_next():
            raise ConnectionError("backend unavailable")
        return super().bulk_columnar(index, batch)


def writer_workload(kernel, task, writes=50):
    fd = yield from kernel.syscall(task, "open", path="/f",
                                   flags=O_CREAT | O_WRONLY)
    for _ in range(writes):
        yield from kernel.syscall(task, "write", fd=fd, data=b"x" * 32)
    yield from kernel.syscall(task, "close", fd=fd)


class TestFlakyBackend:
    def test_transient_failures_retried_without_event_loss(self):
        env = Environment()
        kernel = Kernel(env, ncpus=2)
        store = FlakyStore(failures=3)
        tracer = DIOTracer(env, kernel, store,
                           TracerConfig(session_name="flaky"))
        task = kernel.spawn_process("app").threads[0]
        tracer.attach()

        def main():
            yield from writer_workload(kernel, task)
            yield from tracer.shutdown()

        env.run(until=env.process(main()))
        assert store.failed_requests == 3
        assert tracer.stats.ship_retries == 3
        assert tracer.stats.shipped == 52
        assert store.count("dio_trace") == 52

    def test_spilling_is_not_optional(self):
        """No knob turns the dead-letter WAL off: the field and its
        TOML key are gone, and asking for either fails by name."""
        with pytest.raises(TypeError, match="spill_enabled"):
            TracerConfig(spill_enabled=False)
        with pytest.raises(ValueError,
                           match=r"'spill_enabled' in \[resilience\]"):
            TracerConfig.from_toml("[resilience]\nspill_enabled = false\n")

    def test_persistent_failure_spills_instead_of_losing(self):
        """A permanently dead backend never crashes the consumer or loses accepted records: every
        batch that exhausts its retries lands in the dead-letter WAL,
        and shutdown gives up replaying after a bounded failure
        budget, leaving the records counted in the WAL."""
        env = Environment()
        kernel = Kernel(env, ncpus=2)
        store = FlakyStore(failures=10_000)
        config = TracerConfig(ship_max_retries=3,
                              ship_retry_backoff_ns=1000,
                              breaker_recovery_ns=100_000,
                              spill_replay_failure_budget=4)
        tracer = DIOTracer(env, kernel, store, config)
        task = kernel.spawn_process("app").threads[0]
        tracer.attach()

        def main():
            yield from writer_workload(kernel, task, writes=5)
            yield from tracer.shutdown()

        env.run(until=env.process(main()))   # must not raise
        stats = tracer.stats
        assert stats.shipped == 0
        assert stats.spill_pending == stats.produced == 7
        assert stats.spilled_records == 7
        assert stats.replayed_records == 0
        assert tracer.ring.pending_records() == 0
        assert stats.staged_records == 0
        # The breaker tripped and is still open against the dead
        # backend; retry pressure is visible per *attempt*.
        assert stats.breaker_state == "open"
        assert stats.bulk_attempts == stats.ship_retries > 0
        assert stats.retry_rate == 1.0

    def test_breaker_trips_and_recovers_with_replay(self):
        """A longer outage trips the breaker OPEN; once the backend
        recovers, spilled batches are replayed — zero loss, zero
        duplicates."""
        env = Environment()
        kernel = Kernel(env, ncpus=2)
        store = FlakyStore(failures=12)
        config = TracerConfig(session_name="breaker",
                              ship_max_retries=2,
                              ship_retry_backoff_ns=1000,
                              backoff_cap_ns=100_000,
                              breaker_failure_threshold=4,
                              breaker_recovery_ns=50_000,
                              spill_replay_failure_budget=100)
        tracer = DIOTracer(env, kernel, store, config)
        task = kernel.spawn_process("app").threads[0]
        tracer.attach()

        def main():
            yield from writer_workload(kernel, task)
            yield from tracer.shutdown()

        env.run(until=env.process(main()))
        registry = tracer.telemetry.registry
        assert registry.value("dio_breaker_opened_total") >= 1
        assert registry.value("dio_breaker_closed_total") >= 1
        assert tracer.stats.breaker_state == "closed"
        assert tracer.stats.spilled_records > 0
        assert tracer.stats.replayed_records == tracer.stats.spilled_records
        assert tracer.stats.spill_pending == 0
        # Zero loss, zero duplicates.
        assert store.count("dio_trace") == tracer.stats.produced == 52

    def test_application_unaffected_by_backend_outage(self):
        """The async pipeline: app completion time must not depend on
        backend hiccups (they happen off the critical path)."""

        def run_with(failures):
            env = Environment()
            kernel = Kernel(env, ncpus=2)
            store = FlakyStore(failures=failures)
            tracer = DIOTracer(env, kernel, store,
                               TracerConfig(ship_retry_backoff_ns=1_000_000))
            task = kernel.spawn_process("app").threads[0]
            tracer.attach()
            app_done = {}

            def main():
                yield from writer_workload(kernel, task)
                app_done["at"] = env.now
                yield from tracer.shutdown()

            env.run(until=env.process(main()))
            return app_done["at"]

        assert run_with(0) == run_with(3)


class TestCrashingApplication:
    def test_tracer_survives_app_interrupted_mid_run(self):
        env = Environment()
        kernel = Kernel(env, ncpus=2)
        store = DocumentStore()
        tracer = DIOTracer(env, kernel, store)
        task = kernel.spawn_process("victim").threads[0]
        tracer.attach()

        app = env.process(writer_workload(kernel, task, writes=10_000))

        def killer():
            yield env.timeout(50_000)  # mid-run
            app.interrupt("killed")
            yield from tracer.shutdown()

        env.run(until=env.process(killer()))
        # Whatever was traced before the crash is fully shipped.
        assert tracer.stats.shipped == tracer.stats.produced
        assert store.count("dio_trace") == tracer.stats.shipped
        assert tracer.ring.pending_records() == 0

    def test_stale_inflight_entry_does_not_corrupt_future_events(self):
        """An interrupted syscall leaves a stale entry-timestamp in the
        pairing map; the next syscall of that TID must still pair to a
        sane (enter <= exit) event."""
        env = Environment()
        kernel = Kernel(env, ncpus=1)
        store = DocumentStore()
        tracer = DIOTracer(env, kernel, store)
        process = kernel.spawn_process("app")
        task = process.threads[0]
        tracer.attach()
        # Forge a stale in-flight timestamp, as if an earlier syscall
        # never reached its exit tracepoint.
        tracer._inflight.update(task.tid, 12345)

        def main():
            yield env.timeout(1_000_000)
            yield from kernel.syscall(task, "creat", path="/f")
            yield from tracer.shutdown()

        env.run(until=env.process(main()))
        doc = store.search("dio_trace")["hits"]["hits"][0]["_source"]
        assert doc["time"] <= doc["time_exit"]


class TestBackendStateAbuse:
    def test_double_shutdown_is_idempotent(self):
        env = Environment()
        kernel = Kernel(env, ncpus=1)
        store = DocumentStore()
        tracer = DIOTracer(env, kernel, store)
        task = kernel.spawn_process("app").threads[0]
        tracer.attach()

        def main():
            yield from kernel.syscall(task, "creat", path="/f")
            yield from tracer.shutdown()
            yield from tracer.shutdown()

        env.run(until=env.process(main()))
        assert store.count("dio_trace") == 1

    def test_stop_before_any_event(self):
        env = Environment()
        kernel = Kernel(env, ncpus=1)
        store = DocumentStore()
        tracer = DIOTracer(env, kernel, store)
        tracer.attach()

        def main():
            yield from tracer.shutdown()

        env.run(until=env.process(main()))
        assert tracer.stats.shipped == 0
