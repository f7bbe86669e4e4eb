"""The ``db_bench`` client harness (paper §III-C methodology).

Reproduces the SILK/paper testing setup: 8 client threads in a closed
loop issuing a 50/50 read/update mix (YCSB workload A) over a Zipfian
key distribution, measuring per-operation latency on the virtual
clock.  Client threads run in a process named ``db_bench``, so DIO's
per-thread aggregation (Fig. 4) distinguishes them from the
``rocksdb:*`` background threads of the same process.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from typing import Iterator, Optional

import numpy as np

from repro.kernel import Kernel
from repro.kernel.process import Task

from repro.apps.rocksdb.db import RocksDB

#: YCSB's default Zipfian skew.
ZIPFIAN_THETA = 0.99

#: YCSB core-workload read fractions (the rest are updates).
#: The paper's §III-C methodology uses workload A.
YCSB_WORKLOADS = {
    "A": 0.5,    # update heavy: 50/50 read/update
    "B": 0.95,   # read mostly: 95/5
    "C": 1.0,    # read only
}


#: Uniform doubles drawn from a generator per refill of a stream.
DRAW_BLOCK = 1024


def uniform_stream(rng: np.random.Generator) -> Iterator[float]:
    """The doubles successive ``rng.random()`` calls would return.

    Drawn ``DRAW_BLOCK`` at a time — ``Generator.random(n)`` yields the
    same values as ``n`` scalar calls — so a per-operation draw costs a
    ``next()`` rather than a numpy scalar call.  The stream owns the
    generator: draws taken past it would skip the rest of a block.
    """
    while True:
        yield from rng.random(DRAW_BLOCK).tolist()


class ZipfianGenerator:
    """Zipfian item sampling with YCSB-style scrambling.

    Ranks are mapped through an FNV-style hash so the hottest keys are
    scattered across the key space instead of clustering at one end —
    matching YCSB's *scrambled* Zipfian and keeping hot keys spread
    over many SSTables.

    :meth:`next` and :meth:`sample` consume one stream of uniform
    draws in order, so any interleaving of the two yields the items
    the same number of ``next()`` calls alone would.
    """

    def __init__(self, item_count: int, theta: float = ZIPFIAN_THETA,
                 seed: int = 0):
        if item_count <= 0:
            raise ValueError(f"item_count must be positive, got {item_count}")
        if not 0 < theta < 1:
            raise ValueError(f"theta must be in (0, 1), got {theta}")
        self.item_count = item_count
        self.theta = theta
        self._uniforms = uniform_stream(np.random.default_rng(seed))
        weights = 1.0 / np.power(np.arange(1, item_count + 1), theta)
        # Plain lists: ``bisect_left`` on one is ``np.searchsorted`` on
        # the array without the per-call wrapper.
        self._cumulative = np.cumsum(weights / weights.sum()).tolist()
        # Scramble rank -> item id with a fixed permutation.
        permute_rng = np.random.default_rng(0xD10)
        self._permutation = permute_rng.permutation(item_count).tolist()

    def _item(self, uniform: float) -> int:
        rank = bisect_left(self._cumulative, uniform)
        return self._permutation[min(rank, self.item_count - 1)]

    def next(self) -> int:
        """Sample one item id in ``[0, item_count)``."""
        return self._item(next(self._uniforms))

    def sample(self, n: int) -> np.ndarray:
        """Sample ``n`` item ids at once."""
        return np.fromiter(map(self._item, islice(self._uniforms, n)),
                           dtype=np.int64, count=n)


class BenchResult:
    """Per-operation latency records from one benchmark run."""

    def __init__(self) -> None:
        #: (start_ns, latency_ns, op, tid) per completed operation.
        self.operations: list[tuple[int, int, str, int]] = []
        self.started_ns = 0
        self.finished_ns = 0

    @property
    def op_count(self) -> int:
        return len(self.operations)

    @property
    def duration_ns(self) -> int:
        return self.finished_ns - self.started_ns

    @property
    def throughput_ops_per_sec(self) -> float:
        """Aggregate client throughput."""
        if self.duration_ns <= 0:
            return 0.0
        return self.op_count / (self.duration_ns / 1e9)

    def latencies(self, op: Optional[str] = None) -> np.ndarray:
        """Latency array (ns), optionally for one op type."""
        values = [lat for _, lat, kind, _ in self.operations
                  if op is None or kind == op]
        return np.asarray(values, dtype=np.int64)

    def records(self) -> list[tuple[int, int, str, int]]:
        """All records sorted by start time."""
        return sorted(self.operations)

    def report(self) -> str:
        """db_bench-style latency report per operation type."""
        from repro.analysis.latency import latency_summary

        kinds = sorted({kind for _, _, kind, _ in self.operations})
        lines = [f"{self.op_count:,} operations in "
                 f"{self.duration_ns / 1e9:.3f} s "
                 f"({self.throughput_ops_per_sec:,.0f} ops/s)"]
        for kind in kinds:
            summary = latency_summary(self.operations, op=kind)
            lines.append(
                f"{kind:>8}: count {summary['count']:,}  "
                f"mean {summary['mean_ns'] / 1e3:.1f} us  "
                f"p50 {summary['p50_ns'] / 1e3:.1f} us  "
                f"p99 {summary['p99_ns'] / 1e3:.1f} us  "
                f"max {summary['max_ns'] / 1e3:.1f} us")
        return "\n".join(lines)


def key_name(index: int) -> str:
    """db_bench-style fixed-width key."""
    return f"user{index:012d}"


class DBBench:
    """Closed-loop read/update benchmark over a :class:`RocksDB`."""

    def __init__(self, kernel: Kernel, db: RocksDB,
                 client_threads: int = 8,
                 key_count: int = 50_000,
                 value_size: int = 512,
                 read_fraction: float = 0.5,
                 theta: float = ZIPFIAN_THETA,
                 seed: int = 42):
        if not 0 <= read_fraction <= 1:
            raise ValueError(f"read_fraction out of range: {read_fraction}")
        self.kernel = kernel
        self.env = kernel.env
        self.db = db
        self.key_count = key_count
        self.value_size = value_size
        self.read_fraction = read_fraction
        self.theta = theta
        self.seed = seed
        self.client_tasks: list[Task] = []
        process = db.process
        for i in range(client_threads):
            if i == 0 and process.threads[0].comm == process.name:
                self.client_tasks.append(process.threads[0])
            else:
                self.client_tasks.append(
                    kernel.spawn_thread(process, comm=process.name))

    @classmethod
    def ycsb(cls, kernel: Kernel, db: RocksDB, workload: str = "A",
             **kwargs) -> "DBBench":
        """Create a bench configured for a YCSB core workload (A/B/C)."""
        try:
            read_fraction = YCSB_WORKLOADS[workload.upper()]
        except KeyError:
            raise ValueError(
                f"unknown YCSB workload {workload!r}; "
                f"supported: {sorted(YCSB_WORKLOADS)}") from None
        kwargs["read_fraction"] = read_fraction
        return cls(kernel, db, **kwargs)

    # ------------------------------------------------------------------

    def load(self, fraction: float = 1.0):
        """Process generator: pre-populate ``fraction`` of the key space."""
        count = int(self.key_count * fraction)
        value = b"\x2a" * self.value_size
        items = [(key_name(i), value) for i in range(count)]
        yield from self.db.bulk_load(self.client_tasks[0], items)

    def run(self, duration_ns: int) -> "BenchRun":
        """Run clients in a closed loop for ``duration_ns`` virtual time."""
        return self._start(deadline=self.env.now + duration_ns,
                           max_ops=None)

    def run_ops(self, ops_per_thread: int) -> "BenchRun":
        """Run clients until each completed ``ops_per_thread`` operations.

        A fixed operation budget makes execution *time* the dependent
        variable — the setup of the paper's Table II overhead runs.
        """
        if ops_per_thread <= 0:
            raise ValueError(f"ops_per_thread must be positive: {ops_per_thread}")
        return self._start(deadline=None, max_ops=ops_per_thread)

    def _start(self, deadline: Optional[int],
               max_ops: Optional[int]) -> "BenchRun":
        result = BenchResult()
        result.started_ns = self.env.now
        procs = []
        for i, task in enumerate(self.client_tasks):
            rng = np.random.default_rng(self.seed + 1000 * i)
            zipf = ZipfianGenerator(self.key_count, self.theta,
                                    seed=self.seed + i)
            procs.append(self.env.process(
                self._client_loop(task, rng, zipf, result, deadline, max_ops)))
        return BenchRun(self.env, procs, result)

    def _client_loop(self, task: Task, rng, zipf: ZipfianGenerator,
                     result: BenchResult, deadline: Optional[int],
                     max_ops: Optional[int]):
        value = b"\x2a" * self.value_size
        uniforms = uniform_stream(rng)
        completed = 0
        while ((deadline is None or self.env.now < deadline)
               and (max_ops is None or completed < max_ops)):
            key = key_name(zipf.next())
            is_read = next(uniforms) < self.read_fraction
            start = self.env.now
            if is_read:
                yield from self.db.get(task, key)
                op = "read"
            else:
                yield from self.db.put(task, key, value)
                op = "update"
            result.operations.append(
                (start, self.env.now - start, op, task.tid))
            completed += 1
        result.finished_ns = max(result.finished_ns, self.env.now)


class BenchRun:
    """Handle to a running benchmark: wait for completion."""

    def __init__(self, env, procs, result: BenchResult):
        self.env = env
        self._procs = procs
        self.result = result

    def wait(self):
        """Process generator: block until every client thread finished."""
        yield self.env.all_of(self._procs)
        return self.result
