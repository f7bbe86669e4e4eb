"""Tests for the vanilla/strace/sysdig baseline tracers."""

import pytest

from repro.baselines import (CAPABILITY_MATRIX, StraceTracer, SysdigTracer,
                             TOOLS, VanillaTracer, capability_table)
from repro.baselines.capabilities import tools_with
from repro.kernel import Kernel, O_CREAT, O_RDWR
from repro.kernel.syscalls import ALL_SYSCALLS
from repro.sim import Environment


def make_kernel():
    env = Environment()
    kernel = Kernel(env, ncpus=2)
    task = kernel.spawn_process("app").threads[0]
    return env, kernel, task


def io_workload(kernel, task, nwrites=20, path="/f"):
    fd = yield from kernel.syscall(task, "open", path=path,
                                   flags=O_CREAT | O_RDWR)
    for i in range(nwrites):
        yield from kernel.syscall(task, "write", fd=fd, data=b"x" * 64)
    buf = bytearray(64)
    yield from kernel.syscall(task, "pread64", fd=fd, buf=buf, offset=0)
    yield from kernel.syscall(task, "close", fd=fd)


def timed_run(env, kernel, task, tracer=None, nwrites=20):
    if tracer is not None:
        tracer.attach()

    def main():
        yield from io_workload(kernel, task, nwrites)
        if tracer is not None:
            yield from tracer.shutdown()

    done = env.process(main())
    env.run(until=done)
    return env.now


class TestVanilla:
    def test_vanilla_adds_no_handlers(self):
        env, kernel, task = make_kernel()
        tracer = VanillaTracer(env, kernel)
        tracer.attach()
        assert all(kernel.tracepoints.handlers(name) == ((), ())
                   for name in ALL_SYSCALLS)
        timed_run(env, kernel, task, tracer)


class TestStrace:
    def test_captures_every_event(self):
        env, kernel, task = make_kernel()
        tracer = StraceTracer(env, kernel)
        timed_run(env, kernel, task, tracer, nwrites=50)
        # open + 50 writes + pread + close
        assert tracer.stats.events_captured == 53
        assert tracer.stats.events_dropped == 0

    def test_output_lines_look_like_strace(self):
        env, kernel, task = make_kernel()
        tracer = StraceTracer(env, kernel)
        timed_run(env, kernel, task, tracer, nwrites=1)
        open_lines = [line for line in tracer.lines if "open(" in line]
        assert open_lines and "path='/f'" in open_lines[0]
        assert any(") = 64" in line for line in tracer.lines)

    def test_slows_down_the_application(self):
        env1, kernel1, task1 = make_kernel()
        vanilla_time = timed_run(env1, kernel1, task1, None, nwrites=100)
        env2, kernel2, task2 = make_kernel()
        strace_time = timed_run(env2, kernel2, task2,
                                StraceTracer(env2, kernel2), nwrites=100)
        assert strace_time > vanilla_time * 1.3

    def test_detach_stops_capture(self):
        env, kernel, task = make_kernel()
        tracer = StraceTracer(env, kernel)
        tracer.attach()
        tracer.stop()
        timed_run(env, kernel, task, None)
        assert tracer.stats.events_captured == 0

    def test_double_attach_rejected(self):
        env, kernel, task = make_kernel()
        tracer = StraceTracer(env, kernel)
        tracer.attach()
        with pytest.raises(RuntimeError):
            tracer.attach()


class TestSysdig:
    def test_captures_events_with_proc_name(self):
        env, kernel, task = make_kernel()
        tracer = SysdigTracer(env, kernel)
        timed_run(env, kernel, task, tracer, nwrites=10)
        assert tracer.stats.events_captured == 13
        assert all(e["proc_name"] == "app" for e in tracer.events)

    def test_resolves_paths_from_observed_opens(self):
        env, kernel, task = make_kernel()
        tracer = SysdigTracer(env, kernel)
        timed_run(env, kernel, task, tracer, nwrites=5)
        writes = [e for e in tracer.events if e["syscall"] == "write"]
        assert all(e.get("file_path") == "/f" for e in writes)
        assert tracer.stats.path_miss_ratio == 0.0

    def test_misses_paths_for_fds_opened_before_attach(self):
        env, kernel, task = make_kernel()
        tracer = SysdigTracer(env, kernel)
        fd_holder = {}

        def main():
            fd = yield from kernel.syscall(task, "open", path="/pre",
                                           flags=O_CREAT | O_RDWR)
            fd_holder["fd"] = fd
            tracer.attach()
            for _ in range(10):
                yield from kernel.syscall(task, "write", fd=fd, data=b"x")
            yield from tracer.shutdown()

        env.run(until=env.process(main()))
        writes = [e for e in tracer.events if e["syscall"] == "write"]
        assert len(writes) == 10
        assert all("file_path" not in e for e in writes)
        assert tracer.stats.path_miss_ratio == 1.0

    def test_small_buffer_drops_events(self):
        env, kernel, task = make_kernel()
        tracer = SysdigTracer(env, kernel, buffer_bytes_per_cpu=96 * 4,
                              poll_interval_ns=10_000_000)
        timed_run(env, kernel, task, tracer, nwrites=200)
        assert tracer.ring.stats.dropped > 0

    def test_cheaper_than_strace(self):
        env1, kernel1, task1 = make_kernel()
        t_sysdig = timed_run(env1, kernel1, task1,
                             SysdigTracer(env1, kernel1), nwrites=100)
        env2, kernel2, task2 = make_kernel()
        t_strace = timed_run(env2, kernel2, task2,
                             StraceTracer(env2, kernel2), nwrites=100)
        assert t_sysdig < t_strace


class TestCapabilityMatrix:
    def test_nine_tools(self):
        assert len(TOOLS) == 9
        assert set(CAPABILITY_MATRIX) == set(TOOLS)

    def test_only_dio_collects_file_offsets_among_full_pipelines(self):
        offset_tools = tools_with("f_offset")
        assert "dio" in offset_tools
        # IOscope traces offsets but has no analysis for the use case.
        assert set(offset_tools) <= {"dio", "ioscope"}

    def test_only_dio_and_longline_are_inline(self):
        assert tools_with("integrated", "I") == ["longline", "dio"]

    def test_only_dio_analyses_both_use_cases(self):
        both = [tool for tool in TOOLS
                if CAPABILITY_MATRIX[tool]["usecase_IIIB"] == "TA"
                and CAPABILITY_MATRIX[tool]["usecase_IIIC"] == "TA"]
        assert both == ["dio"]

    def test_render_contains_all_tools(self):
        text = capability_table()
        for tool in TOOLS:
            assert tool in text
        assert "TA" in text
