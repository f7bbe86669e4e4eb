"""Property-based tests for tracer completeness and fidelity.

For arbitrary workloads composed from the generator library, an
unfiltered DIO tracer with ample buffering must ship exactly one
complete event per syscall issued — no loss, no duplication, no
field corruption.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import DocumentStore
from repro.kernel import Kernel
from repro.sim import Environment
from repro.tracer import DIOTracer, TracerConfig
from repro.workloads import metadata_storm, mixed_rw, small_appender
from tests.workload_generators import (random_reader, sequential_reader,
                                       sequential_writer)

workload_plans = st.lists(
    st.tuples(
        st.sampled_from(["seq_write", "seq_read", "random_read",
                         "append", "metadata", "mixed"]),
        st.integers(min_value=1, max_value=12),
    ),
    min_size=1, max_size=5)


def build_workload(kernel, task, plan, rng):
    prepared = set()

    def body():
        for index, (kind, scale) in enumerate(plan):
            path = f"/wl{index}"
            if kind == "seq_write":
                yield from sequential_writer(kernel, task, path,
                                             total_bytes=scale * 8192)
            elif kind == "seq_read":
                yield from sequential_writer(kernel, task, path,
                                             total_bytes=scale * 4096)
                yield from sequential_reader(kernel, task, path)
            elif kind == "random_read":
                yield from sequential_writer(kernel, task, path,
                                             total_bytes=64 * 1024)
                yield from random_reader(kernel, task, path, rng,
                                         requests=scale)
            elif kind == "append":
                yield from small_appender(kernel, task, path,
                                          appends=scale)
            elif kind == "metadata":
                yield from metadata_storm(kernel, task, f"/dir{index}",
                                          files=scale)
            elif kind == "mixed":
                yield from mixed_rw(kernel, task, path, rng,
                                    operations=scale * 3)

    return body()


class TestTracerCompleteness:
    @given(plan=workload_plans, seed=st.integers(min_value=0, max_value=99))
    @settings(max_examples=25, deadline=None)
    def test_one_complete_event_per_syscall(self, plan, seed):
        env = Environment()
        kernel = Kernel(env, ncpus=2)
        store = DocumentStore()
        tracer = DIOTracer(env, kernel, store,
                           TracerConfig(session_name="prop"))
        task = kernel.spawn_process("wl").threads[0]
        rng = np.random.default_rng(seed)
        tracer.attach()

        def main():
            yield from build_workload(kernel, task, plan, rng)
            yield from tracer.shutdown()

        env.run(until=env.process(main()))

        issued = sum(kernel.syscall_counts.values())
        assert tracer.stats.shipped == issued
        assert store.count("dio_trace") == issued
        # Per-syscall counts match the kernel's ground truth.
        response = store.search("dio_trace", size=0, aggs={
            "s": {"terms": {"field": "syscall", "size": 50}}})
        traced = {b["key"]: b["doc_count"]
                  for b in response["aggregations"]["s"]["buckets"]}
        assert traced == {k: v for k, v in kernel.syscall_counts.items()
                          if v}

    @given(plan=workload_plans)
    @settings(max_examples=15, deadline=None)
    def test_events_well_formed_and_time_ordered_per_thread(self, plan):
        env = Environment()
        kernel = Kernel(env, ncpus=2)
        store = DocumentStore()
        tracer = DIOTracer(env, kernel, store,
                           TracerConfig(session_name="prop"))
        task = kernel.spawn_process("wl").threads[0]
        rng = np.random.default_rng(7)
        tracer.attach()

        def main():
            yield from build_workload(kernel, task, plan, rng)
            yield from tracer.shutdown()

        env.run(until=env.process(main()))
        hits = store.search("dio_trace", sort=["time"],
                            size=None)["hits"]["hits"]
        previous_exit = 0
        for hit in hits:
            source = hit["_source"]
            assert source["time"] <= source["time_exit"]
            assert source["tid"] == task.tid
            # One thread: syscalls never overlap.
            assert source["time"] >= previous_exit
            previous_exit = source["time_exit"]
