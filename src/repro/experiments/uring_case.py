"""The io_uring blind-spot case study: classic vs ring-aware tracing.

Runs the Kafka-style :class:`~repro.apps.uringlog.UringLogApp` under
four deployments on identical schedules:

- ``classic-app`` — the syscall-per-record port, traced normally (the
  pre-io_uring world; every I/O operation is a visible syscall);
- ``uring-untraced`` — the io_uring port with no tracer attached (the
  overhead baseline);
- ``uring-classic`` — the io_uring port under a classic tracer, which
  sees only the ``io_uring_enter`` doorbells (the blind spot);
- ``uring-ring-aware`` — the io_uring port with ``ring_mode =
  "ring-aware"``, which also emits per-SQE/CQE completion events.

The derived numbers are the acceptance gates of the comparison: the
classic visibility ratio on the ring workload (how little of the
per-operation I/O a strace-style observer sees), the ring-aware ingest
overhead against the untraced run, and byte-identical file/pagecache
outcomes between the classic and io_uring ports.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple, Optional

from repro.apps.uringlog import UringLogApp
from repro.backend import DocumentStore
from repro.kernel import Kernel
from repro.sim import Environment
from repro.tracer import DIOTracer, TracerConfig

#: Deployment order of the comparison.
URING_DEPLOYMENTS = ("classic-app", "uring-untraced", "uring-classic",
                     "uring-ring-aware")

#: Store-visible event names that carry actual I/O on the log file.
_PER_OP_IO = ("pwrite64", "fsync", "uring_write", "uring_fsync")
#: The only I/O-carrying *syscall* a classic tracer sees on the ring
#: port: the submission doorbell.
_DOORBELL = "io_uring_enter"


class UringScale(NamedTuple):
    """Workload size; defaults are the quick-comparison shape."""

    batches: int = 24
    batch_size: int = 8
    record_size: int = 256
    fsync_every: int = 4

    @property
    def records(self) -> int:
        return self.batches * self.batch_size


class UringCaseRun(NamedTuple):
    """One deployment's outcome."""

    name: str
    app_mode: str
    ring_mode: Optional[str]
    execution_time_ns: int
    records_confirmed: int
    file_sha256: str
    file_size: int
    dirty_blocks: int
    wchar: int
    store_events: int
    per_op_events: int
    doorbell_events: int

    @property
    def io_events(self) -> int:
        """I/O-carrying events visible in the store for this run."""
        return self.per_op_events + self.doorbell_events


class UringComparison(NamedTuple):
    """All four runs plus the derived acceptance-gate numbers."""

    runs: dict[str, UringCaseRun]

    @property
    def classic_visibility_ratio(self) -> float:
        """Per-op I/O events a classic tracer sees on the ring port,
        as a fraction of what the ring-aware mode sees."""
        aware = self.runs["uring-ring-aware"].io_events
        if aware == 0:
            return 1.0
        return self.runs["uring-classic"].io_events / aware

    @property
    def ring_aware_overhead(self) -> float:
        """Execution-time factor of ring-aware tracing vs untraced."""
        base = self.runs["uring-untraced"].execution_time_ns
        return self.runs["uring-ring-aware"].execution_time_ns / base

    @property
    def outcomes_match(self) -> bool:
        """Classic and io_uring ports leave identical durable state."""
        classic = self.runs["classic-app"]
        for name in ("uring-untraced", "uring-classic",
                     "uring-ring-aware"):
            run = self.runs[name]
            if (run.file_sha256, run.file_size, run.dirty_blocks,
                    run.wchar) != (classic.file_sha256, classic.file_size,
                                   classic.dirty_blocks, classic.wchar):
                return False
        return True

    def as_dict(self) -> dict:
        """JSON-friendly form for the CLI and CI smoke assertions."""
        return {
            "runs": {name: run._asdict()
                     for name, run in self.runs.items()},
            "classic_visibility_ratio": self.classic_visibility_ratio,
            "ring_aware_overhead": self.ring_aware_overhead,
            "outcomes_match": self.outcomes_match,
        }


def _count(store: Optional[DocumentStore], syscalls) -> int:
    if store is None:
        return 0
    return store.count("dio_trace",
                       {"terms": {"syscall": list(syscalls)}})


def _run_one(deployment: str, scale: UringScale) -> UringCaseRun:
    env = Environment()
    kernel = Kernel(env)
    app_mode = "classic" if deployment == "classic-app" else "uring"
    app = UringLogApp(kernel, mode=app_mode, batches=scale.batches,
                      batch_size=scale.batch_size,
                      record_size=scale.record_size,
                      fsync_every=scale.fsync_every)

    store: Optional[DocumentStore] = None
    tracer: Optional[DIOTracer] = None
    ring_mode: Optional[str] = None
    if deployment in ("uring-classic", "uring-ring-aware", "classic-app"):
        ring_mode = ("ring-aware" if deployment == "uring-ring-aware"
                     else "classic")
        store = DocumentStore()
        config = TracerConfig(session_name=f"uring-case-{deployment}",
                              ring_mode=ring_mode)
        tracer = DIOTracer(env, kernel, store, config)

    def main():
        if tracer is not None:
            tracer.attach()
        start = env.now
        handle = env.process(app.run())
        yield handle
        elapsed = env.now - start
        if tracer is not None:
            yield from tracer.shutdown()
        return elapsed

    elapsed = env.run(until=env.process(main()))

    inode = kernel.vfs.resolve(app.path)
    data = inode.contents()
    cache = kernel._cache_for(inode)
    return UringCaseRun(
        name=deployment,
        app_mode=app_mode,
        ring_mode=ring_mode,
        execution_time_ns=elapsed,
        records_confirmed=app.records_confirmed,
        file_sha256=hashlib.sha256(data).hexdigest(),
        file_size=len(data),
        dirty_blocks=cache.dirty_blocks(inode.ino),
        wchar=app.process.io.wchar,
        store_events=(store.count("dio_trace") if store is not None
                      else 0),
        per_op_events=_count(store, _PER_OP_IO),
        doorbell_events=_count(store, (_DOORBELL,)),
    )


def run_uring_comparison(
        scale: Optional[UringScale] = None,
        deployments: tuple = URING_DEPLOYMENTS) -> UringComparison:
    """Run the classic-vs-ring comparison on identical workloads."""
    scale = scale or UringScale()
    runs = {}
    for deployment in deployments:
        runs[deployment] = _run_one(deployment, scale)
    return UringComparison(runs)
