"""SSTables: immutable sorted files on the simulated filesystem.

The file's *bytes* are written through real ``write`` syscalls (so
flushes and compactions exert genuine I/O pressure on the shared block
device), while the key index is kept in memory by the table object —
standing in for RocksDB's table-cache + loaded index blocks.  Point
reads issue a ``pread64`` of the 4 KiB data block containing the key,
which is exactly the I/O RocksDB performs after an index lookup.
"""

from __future__ import annotations

import bisect
from typing import Optional

from repro.kernel import Kernel, O_CREAT, O_RDONLY, O_WRONLY
from repro.kernel.process import Task

#: Data block size: one pread per point lookup.
BLOCK_SIZE = 4096


class SSTable:
    """Metadata and in-memory index for one on-disk table file."""

    __slots__ = ("path", "level", "file_size", "smallest", "largest",
                 "_keys", "_offsets", "_values", "_fd", "file_number",
                 "refs", "obsolete")

    def __init__(self, path: str, level: int, file_number: int,
                 entries: list[tuple[str, int, bytes]]):
        """``entries`` must be ``(key, sequence, value)`` sorted by key."""
        if not entries:
            raise ValueError("SSTable cannot be empty")
        self.path = path
        self.level = level
        self.file_number = file_number
        self._keys: list[str] = []
        self._offsets: list[int] = []
        self._values: dict[str, tuple[int, bytes]] = {}
        offset = 0
        for key, seq, value in entries:
            self._keys.append(key)
            self._offsets.append(offset)
            self._values[key] = (seq, value)
            offset += len(key) + len(value) + 16  # entry framing overhead
        self.file_size = offset
        self.smallest = entries[0][0]
        self.largest = entries[-1][0]
        self._fd: Optional[int] = None
        #: Readers currently inside read_value/read_all.
        self.refs = 0
        #: Set when the table was compacted away; the path is unlinked
        #: but (POSIX) the open fd stays valid for in-flight readers.
        self.obsolete = False

    def may_contain(self, key: str) -> bool:
        """Bloom-filter stand-in: exact membership, no false positives."""
        return key in self._values

    def overlaps(self, smallest: str, largest: str) -> bool:
        """True if the key ranges intersect."""
        return not (self.largest < smallest or largest < self.smallest)

    def block_offset(self, key: str) -> int:
        """Byte offset of the data block holding ``key``."""
        position = bisect.bisect_left(self._keys, key)
        if position >= len(self._keys) or self._keys[position] != key:
            raise KeyError(key)
        return (self._offsets[position] // BLOCK_SIZE) * BLOCK_SIZE

    def entries(self) -> list[tuple[str, int, bytes]]:
        """All entries sorted by key (the compaction input iterator)."""
        return [(key, *self._values[key]) for key in self._keys]

    # ------------------------------------------------------------------
    # I/O

    def write_to_disk(self, kernel: Kernel, task: Task, chunk_bytes: int):
        """Process generator: persist the table (open/write*/fsync/close)."""
        fd = yield from kernel.syscall(task, "open", path=self.path,
                                       flags=O_CREAT | O_WRONLY)
        if fd < 0:
            raise RuntimeError(f"cannot create sstable {self.path}: {fd}")
        remaining = self.file_size
        while remaining > 0:
            chunk = min(remaining, chunk_bytes)
            yield from kernel.syscall(task, "write", fd=fd, data=b"\x00" * chunk)
            remaining -= chunk
        yield from kernel.syscall(task, "fsync", fd=fd)
        yield from kernel.syscall(task, "close", fd=fd)

    def open_for_read(self, kernel: Kernel, task: Task):
        """Process generator: ensure the table handle is open.

        Returns ``True`` when an fd is available.  A table that was
        compacted away before it was ever opened cannot be opened any
        more; readers then fall back to the in-memory index (the moral
        equivalent of RocksDB's still-pinned table-cache entry).
        """
        if self._fd is not None:
            return True
        fd = yield from kernel.syscall(task, "open", path=self.path,
                                       flags=O_RDONLY)
        if fd < 0:
            if self.obsolete:
                return False
            raise RuntimeError(f"cannot open sstable {self.path}: {fd}")
        self._fd = fd
        return True

    def _release(self, kernel: Kernel, task: Task):
        """Process generator: drop one reference; last reader of an
        obsolete table closes the fd (keeping POSIX unlink semantics:
        the inode lived exactly as long as someone held it open)."""
        self.refs -= 1
        if self.obsolete and self.refs == 0 and self._fd is not None:
            fd, self._fd = self._fd, None
            yield from kernel.syscall(task, "close", fd=fd)

    def read_value(self, kernel: Kernel, task: Task, key: str):
        """Process generator: point lookup; returns (sequence, value).

        Issues the ``pread64`` of the data block containing the key.
        """
        self.refs += 1
        try:
            opened = yield from self.open_for_read(kernel, task)
            if opened:
                buf = bytearray(BLOCK_SIZE)
                yield from kernel.syscall(task, "pread64", fd=self._fd,
                                          buf=buf,
                                          offset=self.block_offset(key))
            return self._values[key]
        finally:
            yield from self._release(kernel, task)

    def read_all(self, kernel: Kernel, task: Task, chunk_bytes: int):
        """Process generator: sequential scan (the compaction read)."""
        self.refs += 1
        try:
            opened = yield from self.open_for_read(kernel, task)
            if opened:
                offset = 0
                while offset < self.file_size:
                    chunk = min(self.file_size - offset, chunk_bytes)
                    buf = bytearray(chunk)
                    yield from kernel.syscall(task, "pread64", fd=self._fd,
                                              buf=buf, offset=offset)
                    offset += chunk
            return self.entries()
        finally:
            yield from self._release(kernel, task)

    def entries_in_range(self, lo: Optional[str],
                         hi: Optional[str]) -> list[tuple[str, int, bytes]]:
        """Entries with ``lo <= key < hi`` (``None`` = unbounded)."""
        start = 0 if lo is None else bisect.bisect_left(self._keys, lo)
        stop = len(self._keys) if hi is None else bisect.bisect_left(self._keys, hi)
        return [(key, *self._values[key]) for key in self._keys[start:stop]]

    def range_bytes(self, lo: Optional[str], hi: Optional[str]) -> int:
        """File bytes occupied by the ``[lo, hi)`` key range."""
        start = 0 if lo is None else bisect.bisect_left(self._keys, lo)
        stop = len(self._keys) if hi is None else bisect.bisect_left(self._keys, hi)
        if start >= stop:
            return 0
        begin = self._offsets[start]
        end = (self.file_size if stop >= len(self._keys)
               else self._offsets[stop])
        return end - begin

    def read_range(self, kernel: Kernel, task: Task,
                   lo: Optional[str], hi: Optional[str], chunk_bytes: int):
        """Process generator: sequential read of one key range.

        The subcompaction read path: each subcompaction reads only its
        slice of every input file.
        """
        self.refs += 1
        try:
            opened = yield from self.open_for_read(kernel, task)
            nbytes = self.range_bytes(lo, hi)
            if opened and nbytes > 0:
                start = (0 if lo is None
                         else bisect.bisect_left(self._keys, lo))
                offset = self._offsets[start] if start < len(self._offsets) else 0
                done = 0
                while done < nbytes:
                    chunk = min(nbytes - done, chunk_bytes)
                    buf = bytearray(chunk)
                    yield from kernel.syscall(task, "pread64", fd=self._fd,
                                              buf=buf, offset=offset + done)
                    done += chunk
            return self.entries_in_range(lo, hi)
        finally:
            yield from self._release(kernel, task)

    def close_and_delete(self, kernel: Kernel, task: Task):
        """Process generator: unlink the table file (post-compaction).

        The path disappears immediately; if readers still hold the fd,
        the last one out closes it (see :meth:`_release`).
        """
        self.obsolete = True
        yield from kernel.syscall(task, "unlink", path=self.path)
        if self.refs == 0 and self._fd is not None:
            fd, self._fd = self._fd, None
            yield from kernel.syscall(task, "close", fd=fd)
