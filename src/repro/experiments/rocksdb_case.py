"""§III-C: RocksDB tail-latency diagnosis (Fig. 3 and Fig. 4).

Runs db_bench (8 client threads, YCSB-A mix, Zipfian keys) against the
LSM store with 1 flush + 7 compaction threads, traced by DIO capturing
only ``open``/``read``/``write``/``close``-family data syscalls — the
configuration the paper uses.  The returned result carries the client
latency records (Fig. 3), the traced events (Fig. 4), and the ground
truth background-activity log for validation.

Scaled down from the paper's 5-hour run to a few virtual seconds: the
simulator preserves the mechanism (shared-disk contention between
compaction bursts and foreground I/O), not the wall-clock scale.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple, Optional

from repro.apps.rocksdb import DBBench, DBOptions, RocksDB
from repro.apps.rocksdb.db_bench import BenchResult
from repro.backend import DocumentStore
from repro.kernel import BlockDevice, Kernel, PageCache
from repro.sim import Environment
from repro.tracer import DIOTracer, TracerConfig
from repro.visualizer import DIODashboards

SECOND = 1_000_000_000
MS = 1_000_000

#: The syscall scope the paper configures for this use case.
DATA_SYSCALL_SCOPE = frozenset({
    "open", "openat", "creat", "read", "pread64", "readv",
    "write", "pwrite64", "writev", "close",
})


@dataclasses.dataclass
class RocksDBScale:
    """Scaled-down stand-in for the paper's testbed and 5-hour run."""

    duration_ns: int = 3 * SECOND
    client_threads: int = 8
    key_count: int = 50_000
    value_size: int = 512
    read_fraction: float = 0.5
    seed: int = 42
    #: Device model: modest bandwidth and a shallow queue, so large
    #: compaction requests visibly delay foreground 4 KiB reads.
    bandwidth_bytes_per_sec: int = 150_000_000
    queue_depth: int = 2
    max_request_bytes: int = 512 * 1024
    #: Page cache smaller than the dataset so reads reach the disk.
    cache_bytes: int = 4 * 1024 * 1024
    ncpus: int = 4
    #: Table-cache capacity (max open SSTable fds).
    max_open_tables: int = 64
    #: Memtable capacity; also the WAL rotation granularity.
    memtable_bytes: int = 2 * 1024 * 1024

    def db_options(self) -> DBOptions:
        """LSM sizing that produces episodic compaction bursts.

        Calibrated so that windows with >= 5 active compaction threads
        alternate with calm windows — the Fig. 3 / Fig. 4 shape.
        """
        return DBOptions(
            memtable_bytes=self.memtable_bytes,
            level_bytes_base=1024 * 1024,
            level_multiplier=4,
            sstable_bytes=256 * 1024,
            compaction_read_chunk_bytes=512 * 1024,
            write_chunk_bytes=512 * 1024,
            compaction_threads=7,
            op_cpu_ns=6_000,
            max_open_tables=self.max_open_tables,
        )


class RocksDBCaseResult(NamedTuple):
    """Everything Fig. 3 / Fig. 4 need."""

    bench: BenchResult
    db: RocksDB
    store: Optional[DocumentStore]
    tracer: Optional[DIOTracer]
    dashboards: Optional[DIODashboards]
    kernel: Kernel

    @property
    def session(self) -> Optional[str]:
        return self.tracer.config.session_name if self.tracer else None


def build_kernel(scale: RocksDBScale) -> Kernel:
    """The simulated testbed for this experiment."""
    env = Environment()
    device = BlockDevice(env,
                         bandwidth_bytes_per_sec=scale.bandwidth_bytes_per_sec,
                         queue_depth=scale.queue_depth,
                         max_request_bytes=scale.max_request_bytes)
    kernel = Kernel(env, device=device, ncpus=scale.ncpus)
    kernel.cache = PageCache(env, device, capacity_bytes=scale.cache_bytes)
    return kernel


def run_rocksdb_case(scale: Optional[RocksDBScale] = None,
                     trace: bool = True,
                     session_name: str = "rocksdb-ycsb-a",
                     tracer_config: Optional[TracerConfig] = None
                     ) -> RocksDBCaseResult:
    """Run db_bench under (optional) DIO tracing; returns the results."""
    scale = scale or RocksDBScale()
    kernel = build_kernel(scale)
    env = kernel.env

    process = kernel.spawn_process("db_bench")
    db = RocksDB(kernel, process, scale.db_options())
    bench = DBBench(kernel, db,
                    client_threads=scale.client_threads,
                    key_count=scale.key_count,
                    value_size=scale.value_size,
                    read_fraction=scale.read_fraction,
                    seed=scale.seed)

    store: Optional[DocumentStore] = None
    tracer: Optional[DIOTracer] = None
    if trace:
        store = DocumentStore()
        config = tracer_config or TracerConfig(
            syscalls=DATA_SYSCALL_SCOPE,
            pids=frozenset({process.pid}),
            session_name=session_name,
        )
        tracer = DIOTracer(env, kernel, store, config)

    def main():
        yield from db.open(bench.client_tasks[0])
        yield from bench.load()
        if tracer is not None:
            tracer.attach()
        handle = bench.run(duration_ns=scale.duration_ns)
        result = yield from handle.wait()
        db.close()
        if tracer is not None:
            yield from tracer.shutdown()
        return result

    result = env.run(until=env.process(main()))
    dashboards = (DIODashboards(store, tracer.config.index,
                                session=tracer.config.session_name)
                  if tracer is not None else None)
    return RocksDBCaseResult(result, db, store, tracer, dashboards, kernel)
