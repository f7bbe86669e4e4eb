"""Tests for the synthetic workload generator library."""

import numpy as np
import pytest

from repro.backend import DocumentStore
from repro.kernel import Kernel
from repro.sim import Environment
from repro.tracer import DIOTracer, TracerConfig
from repro.workloads import metadata_storm, mixed_rw, small_appender
from tests.workload_generators import (random_reader, sequential_reader,
                                       sequential_writer)


@pytest.fixture()
def setup():
    env = Environment()
    kernel = Kernel(env, ncpus=2)
    task = kernel.spawn_process("wl").threads[0]
    return env, kernel, task


def run(env, gen):
    return env.run(until=env.process(gen))


class TestSequential:
    def test_writer_produces_exact_size(self, setup):
        env, kernel, task = setup
        written = run(env, sequential_writer(kernel, task, "/f",
                                             total_bytes=200_000,
                                             chunk_bytes=64 * 1024))
        assert written == 200_000
        assert kernel.vfs.resolve("/f").size == 200_000

    def test_reader_consumes_whole_file(self, setup):
        env, kernel, task = setup

        def scenario():
            yield from sequential_writer(kernel, task, "/f", 100_000)
            total = yield from sequential_reader(kernel, task, "/f",
                                                 chunk_bytes=8192)
            return total

        assert run(env, scenario()) == 100_000

    def test_periodic_fsync(self, setup):
        env, kernel, task = setup
        run(env, sequential_writer(kernel, task, "/f", 64 * 1024 * 4,
                                   chunk_bytes=64 * 1024, fsync_every=2))
        assert kernel.syscall_counts["fsync"] == 3  # 2 periodic + final

    def test_invalid_sizes(self, setup):
        env, kernel, task = setup
        with pytest.raises(ValueError):
            run(env, sequential_writer(kernel, task, "/f", -1))


class TestRandomAndMixed:
    def test_random_reader_counts(self, setup):
        env, kernel, task = setup
        rng = np.random.default_rng(3)

        def scenario():
            yield from sequential_writer(kernel, task, "/f", 256 * 1024)
            return (yield from random_reader(kernel, task, "/f", rng,
                                             requests=50))

        total = run(env, scenario())
        assert total == 50 * 4096
        assert kernel.syscall_counts["pread64"] == 50

    def test_mixed_rw_ratio(self, setup):
        env, kernel, task = setup
        rng = np.random.default_rng(5)

        def scenario():
            return (yield from mixed_rw(kernel, task, "/f", rng,
                                        operations=200,
                                        read_fraction=0.25))

        reads, writes = run(env, scenario())
        assert reads + writes == 200
        assert reads < writes

    def test_mixed_rw_validation(self, setup):
        env, kernel, task = setup
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            run(env, mixed_rw(kernel, task, "/f", rng, 10,
                              read_fraction=1.5))


class TestSpecialPatterns:
    def test_small_appender_grows_file(self, setup):
        env, kernel, task = setup
        total = run(env, small_appender(kernel, task, "/log", appends=100,
                                        record_bytes=80))
        assert total == 8000
        assert kernel.vfs.resolve("/log").size == 8000

    def test_metadata_storm_leaves_no_files(self, setup):
        env, kernel, task = setup
        run(env, metadata_storm(kernel, task, "/churn", files=20))
        assert kernel.vfs.resolve("/churn").children == {}
        assert kernel.syscall_counts["stat"] == 80
        assert kernel.syscall_counts["rename"] == 20


class TestWorkloadsUnderTracing:
    def test_generators_compose_with_the_tracer(self, setup):
        env, kernel, task = setup
        store = DocumentStore()
        tracer = DIOTracer(env, kernel, store,
                           TracerConfig(session_name="wl"))
        tracer.attach()
        rng = np.random.default_rng(1)

        def scenario():
            yield from sequential_writer(kernel, task, "/data", 64 * 1024)
            yield from random_reader(kernel, task, "/data", rng, 20)
            yield from metadata_storm(kernel, task, "/meta", files=5)
            yield from tracer.shutdown()

        run(env, scenario())
        assert tracer.stats.shipped == sum(kernel.syscall_counts.values())
        # Pattern classification works on the generated traffic.
        from repro.analysis import classify_file_accesses

        patterns = {p.file_path: p
                    for p in classify_file_accesses(store, "dio_trace")}
        assert patterns["/data"].reads >= 20
