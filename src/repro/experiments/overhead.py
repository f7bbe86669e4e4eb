"""§III-D: tracing overhead and event handling (Table II).

Runs the *same* db_bench workload under four deployments — vanilla,
Sysdig, DIO, strace — on identical seeds and measures:

- total execution time on the virtual clock (Table II rows), and
- reporting fidelity: the fraction of events without a resolved file
  path (DIO ≤ 5% vs Sysdig 45% in the paper), plus DIO's ring-buffer
  discard ratio (≈3.5% in the paper's RocksDB runs).

In a closed-loop benchmark, slower syscalls mean fewer operations per
second; with a fixed *operation budget* per client the execution time
stretches exactly the way the paper's fixed-size benchmark does.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.apps.rocksdb import DBBench, RocksDB
from repro.backend import DocumentStore
from repro.baselines import StraceTracer, SysdigTracer, VanillaTracer
from repro.experiments.rocksdb_case import (DATA_SYSCALL_SCOPE, RocksDBScale,
                                            build_kernel)
from repro.tracer import DIOTracer, TracerConfig

SECOND = 1_000_000_000

#: Deployment order of Table II.
DEPLOYMENTS = ("vanilla", "sysdig", "dio", "strace")


def overhead_scale() -> RocksDBScale:
    """The testbed variant for Table II.

    The paper's overhead numbers come from a syscall-frequency-bound
    run (549M syscalls; an NVMe data disk soaking up the I/O), where
    per-syscall tracer cost translates directly into execution time.
    A deep-queue, high-bandwidth device keeps the closed loop CPU/
    syscall-bound instead of disk-queue-bound.
    """
    return RocksDBScale(
        bandwidth_bytes_per_sec=2_000_000_000,
        queue_depth=8,
        cache_bytes=4 * 1024 * 1024,
        key_count=50_000,
        value_size=512,
        # A tight table cache keeps open/close churn going for the
        # whole run, so a tracer that loses open events keeps paying
        # for it — the effect behind Sysdig's 45% unresolved paths.
        max_open_tables=24,
        # Frequent WAL rotation spreads WAL open events over the run,
        # smoothing how many WAL segments each tracer can resolve.
        memtable_bytes=512 * 1024,
    )


class DeploymentRun(NamedTuple):
    """One Table II cell group."""

    name: str
    execution_time_ns: int
    ops: int
    path_miss_ratio: Optional[float]
    drop_ratio: Optional[float]


class OverheadResult(NamedTuple):
    """All four runs plus derived overhead factors."""

    runs: dict[str, DeploymentRun]

    @property
    def vanilla_time(self) -> int:
        return self.runs["vanilla"].execution_time_ns

    def overhead(self, name: str) -> float:
        """Execution-time factor relative to vanilla (Table II row 3)."""
        return self.runs[name].execution_time_ns / self.vanilla_time

    def table2_rows(self) -> list[list]:
        """Rows of the rendered Table II."""
        rows = []
        for name in DEPLOYMENTS:
            run = self.runs[name]
            rows.append([
                name,
                f"{run.execution_time_ns / 1e9:.3f} s",
                f"{self.overhead(name):.2f}x",
                ("-" if run.path_miss_ratio is None
                 else f"{run.path_miss_ratio * 100:.1f}%"),
                ("-" if run.drop_ratio is None
                 else f"{run.drop_ratio * 100:.2f}%"),
            ])
        return rows


def _run_one(deployment: str, scale: RocksDBScale, ops_per_thread: int,
             dio_ring_bytes: Optional[int]) -> DeploymentRun:
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

    store = DocumentStore()
    if deployment == "vanilla":
        tracer = VanillaTracer(env, kernel)
    elif deployment == "sysdig":
        # 15 us/event models sysdig's user-space format-and-write path;
        # the slow consumer behind a small buffer is what loses the
        # open events whose fds later lack paths.  The buffer is scaled
        # down by roughly the same factor as the workload (the paper's
        # run is hours long; ours is virtual seconds), keeping the
        # pressure ratio comparable: 8 MiB -> 32 KiB.
        tracer = SysdigTracer(env, kernel, syscalls=DATA_SYSCALL_SCOPE,
                              consume_ns_per_event=3_500,
                              buffer_bytes_per_cpu=16 * 1024)
    elif deployment == "strace":
        tracer = StraceTracer(env, kernel, syscalls=DATA_SYSCALL_SCOPE)
    elif deployment == "dio":
        # DIO's ring is scaled down by roughly the same factor as the
        # workload duration (paper: 256 MiB per CPU for an hours-long
        # run); 1152 KiB reproduces the paper's ~3.5% discard ratio.
        config = TracerConfig(
            syscalls=DATA_SYSCALL_SCOPE,
            session_name="table2-dio",
            ring_capacity_bytes_per_cpu=(dio_ring_bytes if dio_ring_bytes
                                         else 1152 * 1024))
        tracer = DIOTracer(env, kernel, store, config)
    else:
        raise ValueError(f"unknown deployment {deployment!r}")

    def main():
        yield from db.open(bench.client_tasks[0])
        yield from bench.load()
        # Tracing covers the measured benchmark phase, as in the paper:
        # fds the database opened beforehand (hot tables) have no open
        # event in the trace.  DIO recovers their paths from later
        # re-opens of the same files via file tags; an fd-instance
        # tracker like sysdig's cannot.  db_bench issues a Flush()
        # between the load and measured phases, which also switches to
        # a fresh WAL.
        tracer.attach()
        yield from db.flush(bench.client_tasks[0])
        start = env.now
        handle = bench.run_ops(ops_per_thread)
        result = yield from handle.wait()
        elapsed = env.now - start
        db.close()
        yield from tracer.shutdown()
        return result, elapsed

    result, elapsed = env.run(until=env.process(main()))

    path_miss: Optional[float] = None
    drop_ratio: Optional[float] = None
    if deployment == "sysdig":
        path_miss = tracer.stats.path_miss_ratio
        drop_ratio = tracer.ring.stats.drop_ratio
    elif deployment == "dio":
        report = tracer.correlation_report
        path_miss = report.unresolved_ratio if report else None
        drop_ratio = tracer.stats.drop_ratio
    return DeploymentRun(deployment, elapsed, result.op_count,
                         path_miss, drop_ratio)


def run_overhead_comparison(scale: Optional[RocksDBScale] = None,
                            ops_per_thread: int = 3_000,
                            dio_ring_bytes: Optional[int] = None,
                            deployments: tuple = DEPLOYMENTS) -> OverheadResult:
    """Run the Table II comparison; identical workload per deployment."""
    scale = scale or overhead_scale()
    runs = {}
    for deployment in deployments:
        runs[deployment] = _run_one(deployment, scale, ops_per_thread,
                                    dio_ring_bytes)
    return OverheadResult(runs)
