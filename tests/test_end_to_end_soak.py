"""End-to-end soak: the whole stack under one mixed, multi-process run.

One kernel hosts four concurrent applications (an LSM store with
background threads, a log writer, its tailer, and a metadata-churning
batch job) on two mounted devices, traced by DIO.  Afterwards the run
is validated against global invariants across every subsystem, the
detector battery is exercised, and the captured session is replayed on
a fresh kernel.
"""

import numpy as np
import pytest

from repro.analysis import diagnose_session
from repro.apps.fluentbit import FLUENTBIT_FIXED, FluentBit
from repro.apps.rocksdb import DBBench, DBOptions, RocksDB
from repro.backend import DocumentStore, export_session, import_session
from repro.kernel import BlockDevice, Kernel
from repro.sim import Environment
from repro.tracer import DIOTracer, TraceReplayer, TracerConfig
from repro.workloads import metadata_storm, small_appender

SECOND = 1_000_000_000
MS = 1_000_000


@pytest.fixture(scope="module")
def soak():
    env = Environment()
    kernel = Kernel(env, ncpus=4)
    kernel.add_mount("/logs", BlockDevice(env, name="logdisk",
                                          bandwidth_bytes_per_sec=10**8))
    store = DocumentStore()
    tracer = DIOTracer(env, kernel, store,
                       TracerConfig(session_name="soak"))
    tracer.attach()

    # App 1: the LSM store + clients.
    db_process = kernel.spawn_process("db_bench")
    db = RocksDB(kernel, db_process, DBOptions(
        memtable_bytes=64 * 1024, l0_compaction_trigger=2,
        sstable_bytes=32 * 1024, compaction_threads=3))
    bench = DBBench(kernel, db, client_threads=4, key_count=2_000,
                    value_size=128, seed=3)

    # App 2 + 3: a log producer and its tailer.
    logger_task = kernel.spawn_process("logger").threads[0]
    tail = FluentBit(kernel, "/logs/app.log", version=FLUENTBIT_FIXED,
                     poll_interval_ns=20 * MS)
    tail.start()

    # App 4: metadata churn.
    batch_task = kernel.spawn_process("batchjob").threads[0]

    def main():
        yield from db.open(bench.client_tasks[0])
        yield from bench.load()
        clients = bench.run(duration_ns=150 * MS)
        log_proc = env.process(small_appender(
            kernel, logger_task, "/logs/app.log", appends=150,
            record_bytes=60))
        meta_proc = env.process(metadata_storm(
            kernel, batch_task, "/scratch", files=30))
        result = yield from clients.wait()
        yield log_proc
        yield meta_proc
        yield env.timeout(100 * MS)          # let the tailer catch up
        tail.stop()
        db.close()
        yield from tracer.shutdown()
        return result

    result = env.run(until=env.process(main()))
    return {"env": env, "kernel": kernel, "store": store,
            "tracer": tracer, "db": db, "bench_result": result,
            "tail": tail}


class TestGlobalInvariants:
    def test_every_syscall_became_exactly_one_event(self, soak):
        issued = sum(soak["kernel"].syscall_counts.values())
        assert soak["tracer"].stats.shipped == issued
        assert soak["store"].count("dio_trace") == issued

    def test_no_background_crashes(self, soak):
        soak["db"].check_health()

    def test_all_processes_visible_in_trace(self, soak):
        response = soak["store"].search("dio_trace", size=0, aggs={
            "p": {"terms": {"field": "proc_name", "size": 50}}})
        names = {b["key"] for b in response["aggregations"]["p"]["buckets"]}
        assert {"db_bench", "logger", "flb-pipeline",
                "batchjob"} <= names

    def test_tailer_delivered_all_log_bytes(self, soak):
        assert soak["tail"].delivered_bytes == 150 * 60

    def test_log_io_went_to_the_log_device(self, soak):
        log_dev = soak["kernel"].vfs.resolve("/logs/app.log").dev
        assert log_dev != soak["kernel"].vfs.dev

    def test_correlation_fully_resolved(self, soak):
        report = soak["tracer"].correlation_report
        assert report.unresolved_ratio <= 0.01

    def test_clients_made_progress(self, soak):
        assert soak["bench_result"].op_count > 500
        assert soak["db"].stats.flushes >= 1
        assert soak["db"].stats.compactions >= 1


class TestAnalysisOnSoak:
    def test_detectors_run_clean_of_crashes(self, soak):
        report = diagnose_session(soak["store"], "soak")
        # No data-loss style critical findings in a healthy run.
        assert all(r.finding.severity != "critical" for r in report.findings)

    def test_session_roundtrip_and_replay(self, soak, tmp_path):
        path = tmp_path / "soak.jsonl"
        exported = export_session(soak["store"], "soak", path)
        fresh_store = DocumentStore()
        import_session(fresh_store, path)
        assert fresh_store.count("dio_trace") == exported

        replay_kernel = Kernel(Environment())
        replay_kernel.add_mount(
            "/logs", BlockDevice(replay_kernel.env, name="logdisk"))
        replayer = TraceReplayer.from_session(fresh_store, replay_kernel,
                                              "soak")
        report = replay_kernel.env.run(
            until=replay_kernel.env.process(replayer.run()))
        assert report.issued > 0
        # Most returns match; divergence can only come from events whose
        # fds were opened before tracing (there are none here) or
        # interleaving-dependent reads.
        assert report.fidelity > 0.9
