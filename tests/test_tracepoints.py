"""Unit tests for the tracepoint registry."""

import pytest

from repro.kernel.process import KernelProcess, Task
from repro.kernel.tracepoints import (SyscallContext, TracepointRegistry,
                                      overhead_ns)


def make_ctx(name="read"):
    process = KernelProcess(pid=1, name="p")
    task = Task(tid=2, process=process, comm="p")
    return SyscallContext(name, task, {"fd": 3}, enter_ns=10)


def fire_enter(registry, ctx):
    """What the kernel's dispatch does at sys_enter: resolve the
    syscall's handlers, run them, sum their overhead."""
    return overhead_ns(registry.handlers(ctx.name)[0], ctx)


def fire_exit(registry, ctx):
    """The same at sys_exit."""
    return overhead_ns(registry.handlers(ctx.name)[1], ctx)


class TestRegistry:
    def test_handlers_fire_in_attach_order(self):
        registry = TracepointRegistry()
        order = []
        registry.attach_enter("read", lambda ctx: order.append("a"))
        registry.attach_enter("read", lambda ctx: order.append("b"))
        fire_enter(registry, make_ctx())
        assert order == ["a", "b"]

    def test_costs_sum_and_none_is_free(self):
        registry = TracepointRegistry()
        registry.attach_exit("read", lambda ctx: 100)
        registry.attach_exit("read", lambda ctx: None)
        registry.attach_exit("read", lambda ctx: 250)
        assert fire_exit(registry, make_ctx()) == 350

    def test_per_syscall_isolation(self):
        registry = TracepointRegistry()
        registry.attach_enter("read", lambda ctx: 100)
        assert fire_enter(registry, make_ctx("write")) == 0
        assert fire_enter(registry, make_ctx("read")) == 100

    def test_detach_specific_handler(self):
        registry = TracepointRegistry()
        h1 = lambda ctx: 1
        h2 = lambda ctx: 2
        registry.attach_enter("read", h1)
        registry.attach_enter("read", h2)
        registry.detach_enter("read", h1)
        assert fire_enter(registry, make_ctx()) == 2

    def test_detach_missing_raises(self):
        registry = TracepointRegistry()
        with pytest.raises(ValueError):
            registry.detach_enter("read", lambda ctx: 0)

    def test_context_exposes_task_fields(self):
        ctx = make_ctx()
        assert ctx.pid == 1
        assert ctx.tid == 2
        assert ctx.comm == "p"
        assert ctx.retval is None
        assert ctx.exit_ns is None
