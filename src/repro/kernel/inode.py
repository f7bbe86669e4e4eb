"""Inodes and inode-number allocation.

Inode numbers are recycled lowest-first, like ext4's bitmap allocator.
This detail is load-bearing: the Fluent Bit data-loss bug diagnosed in
the paper (§III-B) only manifests when a newly created file receives the
inode number of a recently deleted one.
"""

from __future__ import annotations

import enum
import heapq
from typing import Optional


class FileType(enum.Enum):
    """File types distinguishable by DIO's *file type* enrichment."""

    REGULAR = "regular"
    DIRECTORY = "directory"
    SYMLINK = "symlink"
    PIPE = "pipe"
    SOCKET = "socket"
    BLOCK_DEVICE = "block device"
    CHAR_DEVICE = "char device"
    UNKNOWN = "unknown"


class Inode:
    """An in-memory inode: identity, type, metadata, and file contents.

    ``generation`` distinguishes successive files that reuse the same
    inode number (as real filesystems do via ``i_generation``); the
    tracer's file tag relies on it to tell recycled inodes apart.
    """

    __slots__ = (
        "ino", "dev", "file_type", "generation", "nlink", "size",
        "data", "children", "symlink_target", "xattrs",
        "birth_ns", "mtime_ns", "ctime_ns", "atime_ns", "open_count",
    )

    def __init__(self, ino: int, dev: int, file_type: FileType,
                 generation: int, now_ns: int):
        self.ino = ino
        self.dev = dev
        self.file_type = file_type
        self.generation = generation
        self.nlink = 1
        self.size = 0
        #: Regular-file contents.  A plain ``bytearray`` keeps semantics
        #: simple; workloads in this repo stay in the MiB range.
        self.data = bytearray() if file_type is FileType.REGULAR else None
        #: name -> Inode mapping for directories.
        self.children: Optional[dict] = {} if file_type is FileType.DIRECTORY else None
        self.symlink_target: Optional[str] = None
        self.xattrs: dict[str, bytes] = {}
        self.birth_ns = now_ns
        self.mtime_ns = now_ns
        self.ctime_ns = now_ns
        self.atime_ns = now_ns
        self.open_count = 0

    @property
    def is_dir(self) -> bool:
        return self.file_type is FileType.DIRECTORY

    @property
    def is_regular(self) -> bool:
        return self.file_type is FileType.REGULAR

    def read_bytes(self, offset: int, count: int) -> bytes:
        """Read up to ``count`` bytes at ``offset`` (b'' at/after EOF)."""
        if not self.is_regular:
            raise TypeError(f"read from non-regular inode {self.ino}")
        if offset >= self.size or count <= 0:
            return b""
        return bytes(self.data[offset:offset + count])

    def write_bytes(self, offset: int, payload: bytes, now_ns: int) -> int:
        """Write ``payload`` at ``offset``, zero-filling any hole."""
        if not self.is_regular:
            raise TypeError(f"write to non-regular inode {self.ino}")
        if offset > len(self.data):
            self.data.extend(b"\x00" * (offset - len(self.data)))
        end = offset + len(payload)
        self.data[offset:end] = payload
        self.size = len(self.data)
        self.mtime_ns = now_ns
        return len(payload)

    def truncate(self, length: int, now_ns: int) -> None:
        """Grow or shrink the file to ``length`` bytes."""
        if not self.is_regular:
            raise TypeError(f"truncate of non-regular inode {self.ino}")
        if length < len(self.data):
            del self.data[length:]
        else:
            self.data.extend(b"\x00" * (length - len(self.data)))
        self.size = length
        self.mtime_ns = now_ns


class InodeAllocator:
    """Allocates inode numbers, recycling freed ones lowest-first."""

    def __init__(self, first_ino: int = 2):
        # ino 1 is reserved (bad blocks on ext*), 2 is the root dir.
        self._next = first_ino
        self._free: list[int] = []
        self._generations: dict[int, int] = {}

    def allocate(self) -> tuple[int, int]:
        """Return ``(ino, generation)`` for a fresh inode."""
        if self._free:
            ino = heapq.heappop(self._free)
        else:
            ino = self._next
            self._next += 1
        generation = self._generations.get(ino, 0) + 1
        self._generations[ino] = generation
        return ino, generation

    def free(self, ino: int) -> None:
        """Return ``ino`` to the pool for reuse."""
        heapq.heappush(self._free, ino)
