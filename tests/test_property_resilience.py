"""Property-based test: the hardened shipping path is exactly-once.

For ANY seeded :class:`~repro.faults.FaultPlan` whose outages end
before the simulation does (so the backend eventually recovers), the
records that reach the store — through direct ships plus spill-WAL
replays — must be exactly the records the ring buffers accepted: no
loss, no duplicates, regardless of how the outages line up with
retries, breaker probes, and backpressure.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.backend import DocumentStore
from repro.faults import FaultPlan, FaultyStore
from repro.kernel import Kernel
from repro.sim import Environment
from repro.tracer import DIOTracer, TracerConfig
from repro.workloads import mixed_rw
from tests.workload_generators import sequential_writer

MS = 1_000_000


class TestExactlyOnceUnderFaults:
    @given(plan_seed=st.integers(min_value=0, max_value=10_000),
           outages=st.integers(min_value=0, max_value=4),
           workload_seed=st.integers(min_value=0, max_value=99))
    @settings(max_examples=30, deadline=None)
    def test_no_loss_no_duplicates(self, plan_seed, outages, workload_seed):
        env = Environment()
        kernel = Kernel(env, ncpus=2)
        inner = DocumentStore()
        # Outages confined to the first ~60 virtual ms; the workload +
        # shutdown drain run well past them, so recovery always comes.
        plan = FaultPlan.seeded(plan_seed, horizon_ns=60 * MS,
                                outages=outages, mean_outage_ns=10 * MS)
        faulty = FaultyStore(inner, plan, clock=lambda: env.now)
        config = TracerConfig(session_name="prop-faults",
                              ship_max_retries=2,
                              ship_retry_backoff_ns=500_000,
                              backoff_cap_ns=4 * MS,
                              breaker_failure_threshold=2,
                              breaker_recovery_ns=3 * MS,
                              resilience_seed=plan_seed)
        tracer = DIOTracer(env, kernel, faulty, config)
        task = kernel.spawn_process("wl").threads[0]
        rng = np.random.default_rng(workload_seed)
        tracer.attach()

        def main():
            yield from sequential_writer(kernel, task, "/a",
                                         total_bytes=48 * 1024)
            yield from mixed_rw(kernel, task, "/b", rng, operations=30)
            yield from tracer.shutdown()

        env.run(until=env.process(main()))

        stats = tracer.stats
        accepted = stats.produced
        # Exactly-once: every accepted record is indexed exactly once.
        assert inner.count("dio_trace") == accepted
        assert stats.shipped == accepted
        assert stats.spill_pending == 0
        assert stats.staged_records == 0
        assert tracer.ring.pending_records() == 0
        # Whatever went through the WAL came back out of it.
        assert stats.replayed_records == stats.spilled_records
        # The store saw one document per distinct (tid, enter-time)
        # pair — a duplicate replay would collide here.
        hits = inner.search("dio_trace", size=None)["hits"]["hits"]
        keys = {(h["_source"]["tid"], h["_source"]["time"],
                 h["_source"]["syscall"]) for h in hits}
        assert len(keys) == accepted

    @given(plan_seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=10, deadline=None)
    def test_same_seed_same_outcome(self, plan_seed):
        def run():
            env = Environment()
            kernel = Kernel(env, ncpus=2)
            inner = DocumentStore()
            plan = FaultPlan.seeded(plan_seed, horizon_ns=40 * MS,
                                    outages=2, mean_outage_ns=8 * MS)
            faulty = FaultyStore(inner, plan, clock=lambda: env.now)
            tracer = DIOTracer(env, kernel, faulty,
                               TracerConfig(ship_max_retries=2,
                                            ship_retry_backoff_ns=500_000,
                                            breaker_recovery_ns=3 * MS,
                                            resilience_seed=plan_seed))
            task = kernel.spawn_process("wl").threads[0]
            tracer.attach()

            def main():
                yield from sequential_writer(kernel, task, "/a",
                                             total_bytes=32 * 1024)
                yield from tracer.shutdown()

            env.run(until=env.process(main()))
            stats = tracer.stats
            return (env.now, stats.produced, stats.shipped,
                    stats.ship_retries, stats.bulk_attempts,
                    stats.spilled_records, stats.replayed_records,
                    dict(faulty.injected))

        assert run() == run()
