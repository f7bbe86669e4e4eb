"""The LSM-tree engine: write path, read path, flush, compactions.

Thread model (as configured in the paper's §III-C):

- client threads call :meth:`RocksDB.put` / :meth:`RocksDB.get`;
- one high-priority flush thread (``rocksdb:high0``) persists frozen
  memtables as L0 SSTables;
- a pool of low-priority compaction threads (``rocksdb:low0..6``)
  serves a FIFO queue of compaction jobs; L0→L1 compactions are
  exclusive, deeper-level compactions run in parallel.

Write stalls: a ``put`` blocks while too many immutable memtables are
queued or L0 holds ``l0_stop_trigger`` files.  Because flushes and
L0→L1 compactions compete with the other compaction threads for the
shared block device, heavy compaction phases slow flushes down and the
stall time surfaces as client tail latency — the phenomenon the paper
diagnoses with DIO.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from typing import Iterable, Optional

from repro.kernel import Kernel, O_APPEND, O_CREAT, O_WRONLY
from repro.kernel.process import KernelProcess, Task
from repro.sim import Lock, Store

from repro.apps.rocksdb.memtable import MemTable
from repro.apps.rocksdb.options import DBOptions
from repro.apps.rocksdb.sstable import SSTable


class DBStats:
    """Counters and the background-activity log."""

    def __init__(self) -> None:
        self.puts = 0
        self.gets = 0
        self.flushes = 0
        self.compactions = 0
        self.stall_ns = 0
        self.stall_events = 0
        self.compaction_bytes_read = 0
        self.compaction_bytes_written = 0
        #: Ground-truth background activity: dicts with kind, thread,
        #: start_ns, end_ns, level, bytes.
        self.activity: list[dict] = []


class RocksDB:
    """A single-node LSM key-value store over the simulated kernel."""

    def __init__(self, kernel: Kernel, process: KernelProcess,
                 options: Optional[DBOptions] = None):
        self.kernel = kernel
        self.env = kernel.env
        self.process = process
        self.options = options or DBOptions()
        opts = self.options

        self.flush_task: Task = kernel.spawn_thread(process, comm="rocksdb:high0")
        self.compaction_tasks: list[Task] = [
            kernel.spawn_thread(process, comm=f"rocksdb:low{i}")
            for i in range(opts.compaction_threads)
        ]

        self.memtable = MemTable()
        self._immutable_list: list[MemTable] = []
        self._flush_queue = Store(self.env,
                                  capacity=opts.max_immutable_memtables)
        #: levels[0] is newest-first; levels[1:] sorted by smallest key.
        self.levels: list[list[SSTable]] = [[] for _ in range(opts.max_level + 1)]

        self._jobs = Store(self.env)
        self._pending_levels: set[int] = set()
        #: Tables currently serving as inputs of a running compaction;
        #: a job that would touch a locked table is skipped and retried.
        self._compacting: set[SSTable] = set()
        self._l0_lock = Lock(self.env)
        self._level_cursor: dict[int, int] = {}
        #: LRU of tables with open fds (RocksDB's table cache).
        self._table_cache: OrderedDict[SSTable, None] = OrderedDict()
        self._stall_waiters: list = []
        self._sequence = 0
        self._file_number = 0
        self._wal_fd: Optional[int] = None
        self._wal_number = 0
        self._wal_path: Optional[str] = None
        self._bg_procs: list = []
        self._bg_errors: list[BaseException] = []
        self._opened = False
        self.stats = DBStats()

    # ------------------------------------------------------------------
    # Lifecycle

    def open(self, task: Task):
        """Process generator: create the db dir + WAL, start bg threads."""
        if self._opened:
            raise RuntimeError("database already open")
        kernel, opts = self.kernel, self.options
        yield from kernel.syscall(task, "mkdir", path=opts.db_path)
        yield from self._open_new_wal(task)
        self._bg_procs.append(self.env.process(self._flush_loop()))
        for comp_task in self.compaction_tasks:
            self._bg_procs.append(
                self.env.process(self._compaction_loop(comp_task)))
        for proc in self._bg_procs:
            proc.callbacks.append(self._on_bg_exit)
        self._opened = True

    def _on_bg_exit(self, proc) -> None:
        # Background threads only finish via shutdown interrupts; any
        # other exit is a crash that must not pass silently.
        if not proc.ok:
            self._bg_errors.append(proc.value)

    def check_health(self) -> None:
        """Raise the first background-thread failure, if any occurred."""
        if self._bg_errors:
            raise RuntimeError("background thread crashed") from self._bg_errors[0]

    def close(self) -> None:
        """Stop background threads; raises if any of them had crashed."""
        for proc in self._bg_procs:
            if proc.is_alive:
                proc.interrupt("shutdown")
        self._bg_procs.clear()
        self._opened = False
        self.check_health()

    # ------------------------------------------------------------------
    # Write path

    def _next_file(self, level: int) -> tuple[str, int]:
        self._file_number += 1
        return (f"{self.options.db_path}/{self._file_number:06d}.sst",
                self._file_number)

    def _open_new_wal(self, task: Task):
        """Process generator: start a fresh WAL file.

        RocksDB switches to a new WAL whenever the memtable rotates and
        deletes the old one once its memtable is durable.  Beyond
        durability, the steady stream of WAL ``open`` events is what
        lets trace analysis resolve WAL writes to a path.
        """
        self._wal_number += 1
        wal_dir = self.options.wal_dir or self.options.db_path
        path = f"{wal_dir}/{self.options.wal_name}.{self._wal_number:04d}"
        fd = yield from self.kernel.syscall(
            task, "open", path=path, flags=O_CREAT | O_WRONLY | O_APPEND)
        if fd < 0:
            raise RuntimeError(f"cannot open WAL {path}: {fd}")
        old_fd, old_path = self._wal_fd, self._wal_path
        self._wal_fd, self._wal_path = fd, path
        if old_fd is not None:
            yield from self.kernel.syscall(task, "close", fd=old_fd)
            yield from self.kernel.syscall(task, "unlink", path=old_path)

    def _wake_stalled(self) -> None:
        waiters, self._stall_waiters = self._stall_waiters, []
        for event in waiters:
            event.succeed(None)

    def put(self, task: Task, key: str, value: bytes):
        """Process generator: insert/overwrite ``key``."""
        if not self._opened:
            raise RuntimeError("database is not open")
        opts = self.options
        yield opts.op_cpu_ns
        # Write stall: L0 is saturated; wait for compactions to drain it.
        while len(self.levels[0]) >= opts.l0_stop_trigger:
            event = self.env.event()
            self._stall_waiters.append(event)
            stall_start = self.env.now
            yield event
            self.stats.stall_ns += self.env.now - stall_start
            self.stats.stall_events += 1

        yield from self.kernel.syscall(task, "write", fd=self._wal_fd,
                                       data=b"\x00" * (len(key) + len(value) + 12))
        if opts.wal_sync:
            yield from self.kernel.syscall(task, "fsync", fd=self._wal_fd)

        self._sequence += 1
        self.memtable.put(key, value, self._sequence)
        self.stats.puts += 1

        if self.memtable.approximate_bytes >= opts.memtable_bytes:
            full = self.memtable
            full.freeze()
            self.memtable = MemTable()
            self._immutable_list.append(full)
            # Memtable rotation switches to a fresh WAL file.
            yield from self._open_new_wal(task)
            # Blocks when max_immutable_memtables are already queued —
            # the flush-side write stall.
            stall_start = self.env.now
            yield self._flush_queue.put(full)
            waited = self.env.now - stall_start
            if waited:
                self.stats.stall_ns += waited
                self.stats.stall_events += 1

    def flush(self, task: Task):
        """Process generator: RocksDB's ``Flush()`` — rotate the WAL and
        hand the current memtable (if any) to the flush thread."""
        if not self._opened:
            raise RuntimeError("database is not open")
        yield from self._open_new_wal(task)
        if len(self.memtable) > 0:
            full = self.memtable
            full.freeze()
            self.memtable = MemTable()
            self._immutable_list.append(full)
            yield self._flush_queue.put(full)

    # ------------------------------------------------------------------
    # Read path

    def get(self, task: Task, key: str):
        """Process generator: point lookup; returns value or ``None``."""
        if not self._opened:
            raise RuntimeError("database is not open")
        self.stats.gets += 1
        yield self.options.op_cpu_ns
        found = self.memtable.get(key)
        best = found  # (sequence, value)
        for memtable in reversed(self._immutable_list):
            if best is not None:
                break
            best = memtable.get(key)
        if best is not None:
            return best[1]

        # L0 files overlap; scan newest-first, stop at first hit (it has
        # the highest sequence for this key among older files).
        for table in list(self.levels[0]):
            if table.may_contain(key):
                return (yield from self._read_through_cache(task, table, key))
        for level in range(1, len(self.levels)):
            table = self._find_table(level, key)
            if table is not None and table.may_contain(key):
                return (yield from self._read_through_cache(task, table, key))
        return None

    def _read_through_cache(self, task: Task, table: SSTable, key: str):
        """Process generator: point read honouring the table cache.

        Opening a table that was not cached may evict (close) the
        least-recently-used open table — RocksDB's ``max_open_files``
        behaviour, and the source of steady open/close churn.
        """
        was_closed = table._fd is None
        _, value = yield from table.read_value(self.kernel, task, key)
        self._table_cache.pop(table, None)
        self._table_cache[table] = None
        if was_closed:
            yield from self._evict_tables(task)
        return value

    def _evict_tables(self, task: Task):
        """Process generator: close LRU table fds over the cache limit."""
        limit = self.options.max_open_tables
        skipped = []
        rounds = len(self._table_cache)
        while len(self._table_cache) > limit and rounds > 0:
            rounds -= 1
            table, _ = self._table_cache.popitem(last=False)
            if table.refs > 0:
                # In use right now; keep it open and re-queue as recent.
                skipped.append(table)
                continue
            if table._fd is not None and not table.obsolete:
                fd, table._fd = table._fd, None
                yield from self.kernel.syscall(task, "close", fd=fd)
        for table in skipped:
            self._table_cache[table] = None

    def _find_table(self, level: int, key: str) -> Optional[SSTable]:
        tables = self.levels[level]
        if not tables:
            return None
        position = bisect.bisect_right([t.smallest for t in tables], key) - 1
        if position < 0:
            return None
        table = tables[position]
        return table if key <= table.largest else None

    # ------------------------------------------------------------------
    # Flush thread (rocksdb:high0)

    def _flush_loop(self):
        kernel, opts = self.kernel, self.options
        task = self.flush_task
        while True:
            memtable = yield self._flush_queue.get()
            start = self.env.now
            path, number = self._next_file(0)
            table = SSTable(path, 0, number, memtable.sorted_entries())
            yield from table.write_to_disk(kernel, task, opts.write_chunk_bytes)
            self.levels[0].insert(0, table)
            if memtable in self._immutable_list:
                self._immutable_list.remove(memtable)
            self.stats.flushes += 1
            self.stats.activity.append({
                "kind": "flush", "thread": task.comm, "level": 0,
                "start_ns": start, "end_ns": self.env.now,
                "bytes": table.file_size,
            })
            self._wake_stalled()
            self._maybe_schedule_compactions()

    # ------------------------------------------------------------------
    # Compactions (rocksdb:low0..6)

    def _maybe_schedule_compactions(self) -> None:
        opts = self.options
        if (len(self.levels[0]) >= opts.l0_compaction_trigger
                and 0 not in self._pending_levels):
            self._pending_levels.add(0)
            self._jobs.try_put(0)
        for level in range(1, opts.max_level):
            size = sum(t.file_size for t in self.levels[level])
            if (size > opts.level_target_bytes(level)
                    and level not in self._pending_levels):
                self._pending_levels.add(level)
                self._jobs.try_put(level)

    #: Retry delay when a job finds its inputs locked by another job.
    COMPACTION_RETRY_NS = 1_000_000

    def _compaction_loop(self, task: Task):
        while True:
            job = yield self._jobs.get()
            if isinstance(job, tuple) and job[0] == "sub":
                # A subcompaction slice of a running L0->L1 job.
                yield from self._run_subcompaction(task, job[1])
                continue
            level = job
            did_work = False
            try:
                if level == 0:
                    yield self._l0_lock.acquire()
                    try:
                        did_work = yield from self._compact(task, 0)
                    finally:
                        self._l0_lock.release()
                else:
                    did_work = yield from self._compact(task, level)
            finally:
                self._pending_levels.discard(level)
            self._wake_stalled()
            if not did_work:
                # Inputs were locked by a concurrent job; back off so
                # rescheduling cannot spin at a single instant.
                yield self.COMPACTION_RETRY_NS
            self._maybe_schedule_compactions()

    def _pick_inputs(self, level: int):
        """Choose compaction inputs, skipping tables already locked by
        a concurrent job; returns ``(upper, lower)`` or ``None``."""
        if level == 0:
            inputs_upper = [t for t in self.levels[0]
                            if t not in self._compacting]
        else:
            tables = [t for t in self.levels[level]
                      if t not in self._compacting]
            if not tables:
                return None
            cursor = self._level_cursor.get(level, 0) % len(tables)
            self._level_cursor[level] = cursor + 1
            inputs_upper = [tables[cursor]]
        if not inputs_upper:
            return None
        smallest = min(t.smallest for t in inputs_upper)
        largest = max(t.largest for t in inputs_upper)
        inputs_lower = [t for t in self.levels[level + 1]
                        if t.overlaps(smallest, largest)]
        if any(t in self._compacting for t in inputs_lower):
            return None
        return inputs_upper, inputs_lower

    def _compact(self, task: Task, level: int):
        """Process generator: one compaction; ``True`` if work was done."""
        start = self.env.now
        picked = self._pick_inputs(level)
        if picked is None:
            return False
        inputs_upper, inputs_lower = picked
        next_level = level + 1
        for table in inputs_upper + inputs_lower:
            self._compacting.add(table)
        try:
            yield from self._run_compaction(
                task, level, next_level, inputs_upper, inputs_lower, start)
        finally:
            for table in inputs_upper + inputs_lower:
                self._compacting.discard(table)
        return True

    def _run_compaction(self, task: Task, level: int, next_level: int,
                        inputs_upper: list, inputs_lower: list, start: int):
        kernel, opts = self.kernel, self.options
        if (level == 0 and opts.max_subcompactions > 1
                and len(inputs_lower) >= 2):
            yield from self._run_split_l0(task, inputs_upper, inputs_lower,
                                          start)
            return
        # Read every input file (sequential, large chunks, cold data).
        merged: dict[str, tuple[int, bytes]] = {}
        bytes_read = 0
        for table in inputs_lower + inputs_upper:
            entries = yield from table.read_all(
                kernel, task, opts.compaction_read_chunk_bytes)
            bytes_read += table.file_size
            for key, seq, value in entries:
                current = merged.get(key)
                if current is None or seq > current[0]:
                    merged[key] = (seq, value)

        entries = [(key, seq, value)
                   for key, (seq, value) in sorted(merged.items())]
        yield opts.merge_cpu_ns_per_entry * len(entries)

        # Write output files at the next level.
        outputs: list[SSTable] = []
        batch: list[tuple[str, int, bytes]] = []
        batch_bytes = 0
        bytes_written = 0

        def build(batch_entries):
            path, number = self._next_file(next_level)
            return SSTable(path, next_level, number, batch_entries)

        for entry in entries:
            batch.append(entry)
            batch_bytes += len(entry[0]) + len(entry[2]) + 16
            if batch_bytes >= opts.sstable_bytes:
                outputs.append(build(batch))
                batch, batch_bytes = [], 0
        if batch:
            outputs.append(build(batch))
        for table in outputs:
            yield from table.write_to_disk(kernel, task, opts.write_chunk_bytes)
            bytes_written += table.file_size

        # Install: replace inputs with outputs.
        if level == 0:
            self.levels[0] = [t for t in self.levels[0]
                              if t not in inputs_upper]
        else:
            self.levels[level] = [t for t in self.levels[level]
                                  if t not in inputs_upper]
        survivors = [t for t in self.levels[next_level]
                     if t not in inputs_lower]
        self.levels[next_level] = sorted(survivors + outputs,
                                         key=lambda t: t.smallest)
        for table in inputs_upper + inputs_lower:
            yield from table.close_and_delete(kernel, task)

        self.stats.compactions += 1
        self.stats.compaction_bytes_read += bytes_read
        self.stats.compaction_bytes_written += bytes_written
        self.stats.activity.append({
            "kind": "compaction", "thread": task.comm, "level": level,
            "start_ns": start, "end_ns": self.env.now,
            "bytes": bytes_read + bytes_written,
        })

    # ------------------------------------------------------------------
    # Subcompactions (RocksDB's max_subcompactions)

    def _run_split_l0(self, task: Task, inputs_upper: list,
                      inputs_lower: list, start: int):
        """Partition an L0->L1 compaction into parallel key-range slices.

        The L1 inputs (non-overlapping, sorted) are split into
        contiguous groups; each slice merges its L1 group with the
        matching key range of *every* L0 file.  Slices are offered to
        the shared compaction thread pool, so a big L0 backlog lights
        up several ``rocksdb:low*`` threads at once — a direct source
        of the paper's >= 5-concurrent-threads intervals.
        """
        opts = self.options
        lower_sorted = sorted(inputs_lower, key=lambda t: t.smallest)
        k = min(opts.max_subcompactions, len(lower_sorted))
        # Contiguous groups, chunked evenly preserving key order.
        per_group = (len(lower_sorted) + k - 1) // k
        groups = [lower_sorted[i * per_group:(i + 1) * per_group]
                  for i in range(k)]
        groups = [g for g in groups if g]
        k = len(groups)

        barrier = self.env.event()
        shared = {
            "remaining": k,
            "barrier": barrier,
            "outputs": [],
        }
        specs = []
        for i, group in enumerate(groups):
            lo = None if i == 0 else group[0].smallest
            hi = None if i == k - 1 else groups[i + 1][0].smallest
            specs.append({
                "claimed": False,
                "lo": lo,
                "hi": hi,
                "upper": inputs_upper,
                "lower_group": group,
                "shared": shared,
            })
        for spec in specs[1:]:
            self._jobs.try_put(("sub", spec))
        # The coordinator works through any slice nobody claimed yet,
        # so the job completes even on a single-thread pool.
        for spec in specs:
            if not spec["claimed"]:
                yield from self._run_subcompaction(task, spec)
        yield barrier

        outputs = sorted(shared["outputs"], key=lambda t: t.smallest)
        self.levels[0] = [t for t in self.levels[0]
                          if t not in inputs_upper]
        survivors = [t for t in self.levels[1] if t not in inputs_lower]
        self.levels[1] = sorted(survivors + outputs,
                                key=lambda t: t.smallest)
        for table in inputs_upper + inputs_lower:
            yield from table.close_and_delete(self.kernel, task)
        self.stats.compactions += 1

    def _run_subcompaction(self, task: Task, spec: dict):
        """Process generator: execute one L0->L1 slice."""
        if spec["claimed"]:
            return
        spec["claimed"] = True
        kernel, opts = self.kernel, self.options
        shared = spec["shared"]
        start = self.env.now
        lo, hi = spec["lo"], spec["hi"]

        merged: dict[str, tuple[int, bytes]] = {}
        bytes_read = 0
        for table in spec["lower_group"]:
            entries = yield from table.read_all(
                kernel, task, opts.compaction_read_chunk_bytes)
            bytes_read += table.file_size
            for key, seq, value in entries:
                current = merged.get(key)
                if current is None or seq > current[0]:
                    merged[key] = (seq, value)
        for table in spec["upper"]:
            entries = yield from table.read_range(
                kernel, task, lo, hi, opts.compaction_read_chunk_bytes)
            bytes_read += table.range_bytes(lo, hi)
            for key, seq, value in entries:
                current = merged.get(key)
                if current is None or seq > current[0]:
                    merged[key] = (seq, value)

        entries = [(key, seq, value)
                   for key, (seq, value) in sorted(merged.items())]
        yield opts.merge_cpu_ns_per_entry * len(entries)

        outputs = []
        batch: list[tuple[str, int, bytes]] = []
        batch_bytes = 0
        bytes_written = 0
        for entry in entries:
            batch.append(entry)
            batch_bytes += len(entry[0]) + len(entry[2]) + 16
            if batch_bytes >= opts.sstable_bytes:
                path, number = self._next_file(1)
                outputs.append(SSTable(path, 1, number, batch))
                batch, batch_bytes = [], 0
        if batch:
            path, number = self._next_file(1)
            outputs.append(SSTable(path, 1, number, batch))
        for table in outputs:
            yield from table.write_to_disk(kernel, task,
                                           opts.write_chunk_bytes)
            bytes_written += table.file_size

        shared["outputs"].extend(outputs)
        self.stats.compaction_bytes_read += bytes_read
        self.stats.compaction_bytes_written += bytes_written
        self.stats.activity.append({
            "kind": "compaction", "thread": task.comm, "level": 0,
            "start_ns": start, "end_ns": self.env.now,
            "bytes": bytes_read + bytes_written, "subcompaction": True,
        })
        shared["remaining"] -= 1
        if shared["remaining"] == 0:
            shared["barrier"].succeed()

    # ------------------------------------------------------------------
    # Bulk loading (pre-populating a database for benchmarks)

    def bulk_load(self, task: Task, items: Iterable[tuple[str, bytes]],
                  level: Optional[int] = None):
        """Process generator: install sorted data directly as SSTables.

        Stands in for opening a pre-existing database directory; the
        table files are genuinely written to disk, but the write path
        (WAL/memtable/flush) is bypassed.
        """
        opts = self.options
        sorted_items = sorted(items)
        if not sorted_items:
            return
        total_bytes = sum(len(k) + len(v) + 16 for k, v in sorted_items)
        if level is None:
            level = 1
            while (level < opts.max_level
                   and total_bytes > opts.level_target_bytes(level)):
                level += 1
        batch: list[tuple[str, int, bytes]] = []
        batch_bytes = 0
        tables: list[SSTable] = []
        for key, value in sorted_items:
            batch.append((key, 0, value))
            batch_bytes += len(key) + len(value) + 16
            if batch_bytes >= opts.sstable_bytes:
                path, number = self._next_file(level)
                tables.append(SSTable(path, level, number, batch))
                batch, batch_bytes = [], 0
        if batch:
            path, number = self._next_file(level)
            tables.append(SSTable(path, level, number, batch))
        for table in tables:
            yield from table.write_to_disk(self.kernel, task,
                                           opts.write_chunk_bytes)
        self.levels[level] = sorted(self.levels[level] + tables,
                                    key=lambda t: t.smallest)
