"""Unit tests for the simulated eBPF runtime."""

import pytest

from repro.ebpf import (BPFHashMap, EBPFProgram, PerCPURingBuffer,
                        ProgramType, VerifierError)
from repro.kernel.process import KernelProcess, Task
from repro.kernel.tracepoints import (SyscallContext, TracepointRegistry,
                                      overhead_ns)


def make_ctx(name="read", tid=1):
    process = KernelProcess(pid=100, name="app")
    task = Task(tid=tid, process=process, comm="app")
    return SyscallContext(name, task, {"fd": 3}, enter_ns=0)


class TestBPFHashMap:
    def test_update_lookup_delete(self):
        m = BPFHashMap(max_entries=4)
        assert m.update("k", 1)
        assert m.lookup("k") == 1
        assert m.delete("k")
        assert m.lookup("k") is None
        assert not m.delete("k")

    def test_full_map_rejects_insert(self):
        m = BPFHashMap(max_entries=2)
        assert m.update("a", 1)
        assert m.update("b", 2)
        assert not m.update("c", 3)
        assert m.failed_inserts == 1

    def test_full_map_allows_overwrite(self):
        m = BPFHashMap(max_entries=1)
        m.update("a", 1)
        assert m.update("a", 2)
        assert m.lookup("a") == 2

    def test_lru_map_evicts_oldest(self):
        m = BPFHashMap(max_entries=2, lru=True)
        m.update("a", 1)
        m.update("b", 2)
        m.lookup("a")           # refresh "a"
        m.update("c", 3)        # evicts "b"
        assert m.lookup("b") is None
        assert m.lookup("a") == 1
        assert m.evictions == 1

    def test_pop(self):
        m = BPFHashMap(max_entries=4)
        m.update("k", 5)
        assert m.pop("k") == 5
        assert m.pop("k") is None

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            BPFHashMap(max_entries=0)


class TestRingBuffer:
    def test_produce_consume_roundtrip(self):
        rb = PerCPURingBuffer(ncpus=2, capacity_bytes_per_cpu=1024)
        assert rb.produce(0, "rec1", 100)
        assert rb.produce(1, "rec2", 100)
        assert rb.consume_all() == ["rec1", "rec2"]
        assert rb.stats.consumed == 2

    def test_per_cpu_fifo_order(self):
        rb = PerCPURingBuffer(ncpus=1, capacity_bytes_per_cpu=1024)
        for i in range(5):
            rb.produce(0, i, 10)
        assert rb.consume(0) == [0, 1, 2, 3, 4]

    def test_full_buffer_drops_new_records(self):
        rb = PerCPURingBuffer(ncpus=1, capacity_bytes_per_cpu=250)
        assert rb.produce(0, "a", 100)
        assert rb.produce(0, "b", 100)
        assert not rb.produce(0, "c", 100)   # would exceed 250
        assert rb.stats.dropped == 1
        assert rb.stats.produced == 2
        # Old records are intact — only the new one was lost.
        assert rb.consume(0) == ["a", "b"]

    def test_drop_ratio(self):
        rb = PerCPURingBuffer(ncpus=1, capacity_bytes_per_cpu=100)
        rb.produce(0, "a", 100)
        rb.produce(0, "b", 100)
        assert rb.stats.drop_ratio == pytest.approx(0.5)

    def test_consume_frees_capacity(self):
        rb = PerCPURingBuffer(ncpus=1, capacity_bytes_per_cpu=100)
        rb.produce(0, "a", 100)
        assert not rb.produce(0, "b", 100)
        rb.consume(0)
        assert rb.produce(0, "b", 100)

    def test_max_records_limit(self):
        rb = PerCPURingBuffer(ncpus=1, capacity_bytes_per_cpu=10_000)
        for i in range(10):
            rb.produce(0, i, 10)
        assert rb.consume(0, max_records=3) == [0, 1, 2]
        assert rb.pending_records() == 7

    def test_buffers_are_independent_per_cpu(self):
        rb = PerCPURingBuffer(ncpus=2, capacity_bytes_per_cpu=100)
        rb.produce(0, "fill", 100)
        # CPU 1 still has room even though CPU 0 is full.
        assert rb.produce(1, "ok", 100)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PerCPURingBuffer(ncpus=0, capacity_bytes_per_cpu=10)
        with pytest.raises(ValueError):
            PerCPURingBuffer(ncpus=1, capacity_bytes_per_cpu=0)
        rb = PerCPURingBuffer(ncpus=1, capacity_bytes_per_cpu=10)
        with pytest.raises(ValueError):
            rb.produce(0, "x", 0)


class TestEBPFProgram:
    def test_program_charges_cost(self):
        prog = EBPFProgram("p", ProgramType.SYS_ENTER,
                           func=lambda ctx: None, cost_ns=500)
        assert prog(make_ctx()) == 500
        assert prog.invocations == 1

    def test_extra_cost_from_func(self):
        prog = EBPFProgram("p", ProgramType.SYS_EXIT,
                           func=lambda ctx: 300, cost_ns=200)
        assert prog(make_ctx()) == 500

    def test_attach_detach_roundtrip(self):
        registry = TracepointRegistry()
        prog = EBPFProgram("p", ProgramType.SYS_ENTER,
                           func=lambda ctx: None, cost_ns=100)
        prog.attach(registry, "read")
        prog.attach(registry, "write")
        assert registry.handlers("read") == registry.handlers("write") \
            == ((prog,), ())
        enter, _ = registry.handlers("read")
        assert overhead_ns(enter, make_ctx("read")) == 100
        prog.detach_all()
        assert registry.handlers("read") == registry.handlers("write") \
            == ((), ())

    def test_exit_program_fires_on_exit_only(self):
        registry = TracepointRegistry()
        prog = EBPFProgram("p", ProgramType.SYS_EXIT,
                           func=lambda ctx: None, cost_ns=100)
        prog.attach(registry, "read")
        enter, exit_ = registry.handlers("read")
        assert overhead_ns(enter, make_ctx("read")) == 0
        assert overhead_ns(exit_, make_ctx("read")) == 100

    def test_verifier_rejects_oversized_program(self):
        with pytest.raises(VerifierError):
            EBPFProgram("huge", ProgramType.SYS_ENTER,
                        func=lambda ctx: None, insns=2_000_000)

    def test_invalid_cost(self):
        with pytest.raises(ValueError):
            EBPFProgram("p", ProgramType.SYS_ENTER,
                        func=lambda ctx: None, cost_ns=-1)
