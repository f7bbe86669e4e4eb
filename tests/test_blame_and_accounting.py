"""Tests for /proc-style I/O accounting and spike blame analysis."""

import pytest

from repro.analysis.blame import blame_spikes, render_blame
from repro.backend import DocumentStore
from repro.kernel import Kernel, O_CREAT, O_RDWR
from repro.sim import Environment

MS = 1_000_000


class TestIOAccounting:
    def test_counters_track_reads_and_writes(self):
        env = Environment()
        kernel = Kernel(env)
        process = kernel.spawn_process("app")
        task = process.threads[0]

        def scenario():
            fd = yield from kernel.syscall(task, "open", path="/f",
                                           flags=O_CREAT | O_RDWR)
            yield from kernel.syscall(task, "write", fd=fd, data=b"x" * 100)
            yield from kernel.syscall(task, "pwrite64", fd=fd,
                                      data=b"y" * 50, offset=200)
            buf = bytearray(80)
            yield from kernel.syscall(task, "pread64", fd=fd, buf=buf,
                                      offset=0)
            yield from kernel.syscall(task, "close", fd=fd)

        env.run(until=env.process(scenario()))
        io = process.io
        assert (io.rchar, io.wchar, io.syscr, io.syscw) == (80, 150, 1, 2)

    def test_failed_syscalls_counted_without_bytes(self):
        env = Environment()
        kernel = Kernel(env)
        process = kernel.spawn_process("app")
        task = process.threads[0]

        def scenario():
            # write to a bad fd: counted as an attempt, no bytes.
            yield from kernel.syscall(task, "write", fd=99, data=b"x")

        env.run(until=env.process(scenario()))
        assert process.io.syscw == 1
        assert process.io.wchar == 0

    def test_threads_share_process_accounting(self):
        env = Environment()
        kernel = Kernel(env)
        process = kernel.spawn_process("app")
        t1 = process.threads[0]
        t2 = kernel.spawn_thread(process, comm="worker")

        def scenario():
            fd = yield from kernel.syscall(t1, "open", path="/f",
                                           flags=O_CREAT | O_RDWR)
            yield from kernel.syscall(t1, "write", fd=fd, data=b"a" * 10)
            yield from kernel.syscall(t2, "write", fd=fd, data=b"b" * 20)

        env.run(until=env.process(scenario()))
        assert process.io.wchar == 30
        assert process.io.syscw == 2


def seed_spiky_run(store):
    """Benchmark records + trace: calm window then a contended one."""
    operations = []
    # Window 0: fast ops.
    for i in range(50):
        operations.append((i * 100_000, 50_000, "read", 100))
    # Window 1 (10-20ms): slow ops.
    for i in range(20):
        operations.append((10 * MS + i * 400_000, 2_000_000, "read", 100))
    docs = []
    for i in range(50):
        docs.append({"syscall": "read", "proc_name": "db_bench", "tid": 100,
                     "pid": 1, "time": i * 100_000, "ret": 512})
    # In the spike window: compactions move lots of bytes.
    for t in range(3):
        for i in range(8):
            docs.append({"syscall": "pread64",
                         "proc_name": f"rocksdb:low{t}", "pid": 1,
                         "tid": 200 + t, "time": 10 * MS + i * 800_000,
                         "ret": 262_144})
    docs.append({"syscall": "write", "proc_name": "rocksdb:high0",
                 "pid": 1, "tid": 300, "time": 11 * MS, "ret": 4096})
    for i in range(5):
        docs.append({"syscall": "read", "proc_name": "db_bench", "tid": 100,
                     "pid": 1, "time": 10 * MS + i * MS, "ret": 512})
    store.bulk("dio_trace", docs)
    return operations


class TestBlameSpikes:
    def test_spike_window_identified_and_attributed(self):
        store = DocumentStore()
        operations = seed_spiky_run(store)
        reports = blame_spikes(store, operations, window_ns=10 * MS)
        assert len(reports) == 1
        report = reports[0]
        assert report.window_start_ns == 10 * MS
        # Compaction threads top the ranking (most bytes moved).
        assert [a.proc_name for a in report.background[:3]] == [
            "rocksdb:low0", "rocksdb:low1", "rocksdb:low2"]
        assert report.client_syscalls == 5

    def test_background_ranked_by_bytes(self):
        store = DocumentStore()
        operations = seed_spiky_run(store)
        report = blame_spikes(store, operations, window_ns=10 * MS)[0]
        moved = [activity.bytes_moved for activity in report.background]
        assert moved == sorted(moved, reverse=True)
        assert report.background[-1].proc_name == "rocksdb:high0"

    def test_no_spikes_no_reports(self):
        store = DocumentStore()
        store.ensure_index("dio_trace")
        operations = [(i * 100_000, 50_000, "read", 1) for i in range(100)]
        assert blame_spikes(store, operations, window_ns=10 * MS) == []
        assert render_blame([]) == "no latency spikes detected"

    def test_render_contains_culprits(self):
        store = DocumentStore()
        operations = seed_spiky_run(store)
        reports = blame_spikes(store, operations, window_ns=10 * MS)
        text = render_blame(reports)
        assert "rocksdb:low0" in text
        assert "spike @" in text

    def test_end_to_end_on_real_run(self):
        """On the actual RocksDB case, spikes blame rocksdb threads."""
        from repro.experiments import run_rocksdb_case
        from repro.experiments.rocksdb_case import RocksDBScale

        case = run_rocksdb_case(RocksDBScale(duration_ns=1000 * MS))
        reports = blame_spikes(case.store, case.bench.records(),
                               window_ns=100 * MS, session=case.session,
                               spike_factor=2.0)
        assert reports, "expected at least one spike"
        culprits = {name for report in reports
                    for name in (a.proc_name
                                 for a in report.background[:3])}
        assert any(name.startswith("rocksdb:") for name in culprits)
