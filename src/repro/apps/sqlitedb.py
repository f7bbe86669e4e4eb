"""A SQLite-flavoured embedded database (paper §V extension study).

The paper's future work proposes expanding DIO to further applications,
*"potentially uncovering new I/O patterns and unidentified issues"*.
This module provides that next application: a page-oriented embedded
database with SQLite's two durability strategies, whose I/O patterns
differ in exactly the ways DIO's detectors surface:

- **DELETE journal mode** (SQLite's default rollback journal): every
  transaction creates a ``<db>-journal`` file, writes the pre-images of
  the touched pages, fsyncs it, updates the database pages in place,
  fsyncs the database, and deletes the journal.  Two fsyncs and a
  created-then-deleted file *per transaction* — heavy short-lived file
  churn and synchronous latency.
- **WAL mode**: transactions append page frames to a single write-ahead
  log with one fsync, and a periodic checkpoint folds the WAL back into
  the database and truncates it.

Both modes run on the simulated kernel through real syscalls, so DIO
traces them and the comparison/detector machinery tells them apart.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.kernel import (Kernel, O_APPEND, O_CREAT, O_EXCL, O_RDWR,
                          O_WRONLY)
from repro.kernel.process import Task

#: Database page size.
PAGE_SIZE = 4096
#: Rollback-journal header size.
JOURNAL_HEADER = 512
#: Per-frame overhead in the WAL (frame header).
WAL_FRAME_HEADER = 24

#: Supported journal modes.
JOURNAL_DELETE = "delete"
JOURNAL_WAL = "wal"


class MiniSQLiteStats:
    """Counters for assertions and reports."""

    __slots__ = ("transactions", "fsyncs", "journals_created",
                 "journals_deleted", "checkpoints", "pages_written")

    def __init__(self) -> None:
        self.transactions = 0
        self.fsyncs = 0
        self.journals_created = 0
        self.journals_deleted = 0
        self.checkpoints = 0
        self.pages_written = 0


class MiniSQLite:
    """A single-connection embedded database over the simulated kernel."""

    def __init__(self, kernel: Kernel, path: str,
                 journal_mode: str = JOURNAL_DELETE,
                 wal_checkpoint_pages: int = 64):
        if journal_mode not in (JOURNAL_DELETE, JOURNAL_WAL):
            raise ValueError(f"unknown journal mode {journal_mode!r}")
        self.kernel = kernel
        self.env = kernel.env
        self.path = path
        self.journal_mode = journal_mode
        self.wal_checkpoint_pages = wal_checkpoint_pages
        self._db_fd: Optional[int] = None
        self._wal_fd: Optional[int] = None
        self._wal_pages = 0
        self.stats = MiniSQLiteStats()

    @property
    def journal_path(self) -> str:
        return f"{self.path}-journal"

    @property
    def wal_path(self) -> str:
        return f"{self.path}-wal"

    # ------------------------------------------------------------------
    # Lifecycle

    def open(self, task: Task):
        """Process generator: open (creating) the database file."""
        if self._db_fd is not None:
            raise RuntimeError("database already open")
        fd = yield from self.kernel.syscall(task, "open", path=self.path,
                                            flags=O_CREAT | O_RDWR)
        if fd < 0:
            raise RuntimeError(f"cannot open database: {fd}")
        self._db_fd = fd
        if self.journal_mode == JOURNAL_WAL:
            wal = yield from self.kernel.syscall(
                task, "open", path=self.wal_path,
                flags=O_CREAT | O_RDWR | O_APPEND)
            if wal < 0:
                raise RuntimeError(f"cannot open WAL: {wal}")
            self._wal_fd = wal

    def close(self, task: Task):
        """Process generator: close database (checkpointing WAL first)."""
        if self.journal_mode == JOURNAL_WAL and self._wal_pages:
            yield from self.checkpoint(task)
        if self._wal_fd is not None:
            yield from self.kernel.syscall(task, "close", fd=self._wal_fd)
            self._wal_fd = None
        if self._db_fd is not None:
            yield from self.kernel.syscall(task, "close", fd=self._db_fd)
            self._db_fd = None

    # ------------------------------------------------------------------
    # Transactions

    def write_transaction(self, task: Task, pages: Iterable[int]):
        """Process generator: atomically update the given page numbers."""
        if self._db_fd is None:
            raise RuntimeError("database is not open")
        pages = sorted(set(pages))
        if not pages:
            return
        if self.journal_mode == JOURNAL_DELETE:
            yield from self._commit_with_rollback_journal(task, pages)
        else:
            yield from self._commit_to_wal(task, pages)
        self.stats.transactions += 1
        self.stats.pages_written += len(pages)

    def _commit_with_rollback_journal(self, task: Task, pages: list[int]):
        kernel = self.kernel
        # 1. Create the rollback journal and save pre-images.
        journal_fd = yield from kernel.syscall(
            task, "open", path=self.journal_path,
            flags=O_CREAT | O_EXCL | O_WRONLY)
        if journal_fd < 0:
            raise RuntimeError(f"cannot create journal: {journal_fd}")
        self.stats.journals_created += 1
        yield from kernel.syscall(task, "write", fd=journal_fd,
                                  data=b"\xd9" * JOURNAL_HEADER)
        for page in pages:
            buf = bytearray(PAGE_SIZE)
            yield from kernel.syscall(task, "pread64", fd=self._db_fd,
                                      buf=buf, offset=page * PAGE_SIZE)
            yield from kernel.syscall(task, "write", fd=journal_fd,
                                      data=bytes(buf))
        # 2. The journal must be durable before touching the database.
        yield from kernel.syscall(task, "fsync", fd=journal_fd)
        self.stats.fsyncs += 1
        # 3. Update the database pages in place.
        for page in pages:
            yield from kernel.syscall(task, "pwrite64", fd=self._db_fd,
                                      data=b"\x42" * PAGE_SIZE,
                                      offset=page * PAGE_SIZE)
        yield from kernel.syscall(task, "fsync", fd=self._db_fd)
        self.stats.fsyncs += 1
        # 4. Commit point: delete the journal.
        yield from kernel.syscall(task, "close", fd=journal_fd)
        yield from kernel.syscall(task, "unlink", path=self.journal_path)
        self.stats.journals_deleted += 1

    def _commit_to_wal(self, task: Task, pages: list[int]):
        kernel = self.kernel
        frame = b"\x57" * (PAGE_SIZE + WAL_FRAME_HEADER)
        for _ in pages:
            yield from kernel.syscall(task, "write", fd=self._wal_fd,
                                      data=frame)
        yield from kernel.syscall(task, "fsync", fd=self._wal_fd)
        self.stats.fsyncs += 1
        self._wal_pages += len(pages)
        if self._wal_pages >= self.wal_checkpoint_pages:
            yield from self.checkpoint(task)

    def checkpoint(self, task: Task):
        """Process generator: fold the WAL into the database file."""
        if self.journal_mode != JOURNAL_WAL:
            raise RuntimeError("checkpoint requires WAL mode")
        kernel = self.kernel
        # Read the WAL back and apply the frames to the main file.
        remaining = self._wal_pages * (PAGE_SIZE + WAL_FRAME_HEADER)
        offset = 0
        while remaining > 0:
            chunk = min(remaining, 16 * (PAGE_SIZE + WAL_FRAME_HEADER))
            buf = bytearray(chunk)
            yield from kernel.syscall(task, "pread64", fd=self._wal_fd,
                                      buf=buf, offset=offset)
            offset += chunk
            remaining -= chunk
        for page in range(self._wal_pages):
            yield from kernel.syscall(task, "pwrite64", fd=self._db_fd,
                                      data=b"\x42" * PAGE_SIZE,
                                      offset=(page % 128) * PAGE_SIZE)
        yield from kernel.syscall(task, "fsync", fd=self._db_fd)
        self.stats.fsyncs += 1
        # Reset the WAL.
        yield from kernel.syscall(task, "ftruncate", fd=self._wal_fd,
                                  length=0)
        self._wal_pages = 0
        self.stats.checkpoints += 1
