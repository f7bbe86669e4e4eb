"""A block-granular LRU page cache in front of the block device.

Reads of uncached blocks go to the device; writes dirty cache blocks
and are flushed by ``fsync``/``fdatasync`` (or when eviction needs to
reclaim a dirty block).  The cache is what lets buffered writes stay
fast while compaction reads/writes of cold data hit the disk — the mix
that produces the RocksDB contention pattern in the paper's §III-C.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict

from repro.sim import Environment

from repro.kernel.blockdev import BlockDevice

#: Cache block size (bytes), mirroring the kernel page size.
BLOCK_SIZE = 4096


class PageCacheStats:
    """Hit/miss and writeback counters."""

    __slots__ = ("hits", "misses", "writebacks", "bytes_written_back", "evictions")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.bytes_written_back = 0
        self.evictions = 0


class PageCache:
    """LRU cache of ``(ino, block_index)`` entries with dirty tracking."""

    def __init__(self, env: Environment, device: BlockDevice,
                 capacity_bytes: int = 64 * 1024 * 1024):
        if capacity_bytes < BLOCK_SIZE:
            raise ValueError("cache capacity below one block")
        self.env = env
        self.device = device
        self.capacity_blocks = capacity_bytes // BLOCK_SIZE
        #: (ino, block) keys ordered by recency (LRU at the front).
        self._blocks: OrderedDict[tuple[int, int], None] = OrderedDict()
        #: ino -> set of dirty block indices; the fsync working set.
        self._dirty: defaultdict[int, set[int]] = defaultdict(set)
        self.stats = PageCacheStats()

    @staticmethod
    def _block_range(offset: int, nbytes: int) -> range:
        if nbytes <= 0:
            return range(0)
        first = offset // BLOCK_SIZE
        last = (offset + nbytes - 1) // BLOCK_SIZE
        return range(first, last + 1)

    def _touch(self, key: tuple[int, int]) -> None:
        if key in self._blocks:
            self._blocks.move_to_end(key)
        else:
            self._blocks[key] = None

    def _is_dirty(self, key: tuple[int, int]) -> bool:
        ino, block = key
        return block in self._dirty.get(ino, ())

    def _evict(self):
        """Process generator: shrink the cache back under capacity."""
        while len(self._blocks) > self.capacity_blocks:
            key, _ = self._blocks.popitem(last=False)
            self.stats.evictions += 1
            if self._is_dirty(key):
                # Dirty blocks must be written back before reclaim.
                ino, block = key
                self._dirty[ino].discard(block)
                self.stats.writebacks += 1
                self.stats.bytes_written_back += BLOCK_SIZE
                yield from self.device.write(BLOCK_SIZE)

    def read(self, ino: int, offset: int, nbytes: int):
        """Process generator: charge the I/O cost of a file read.

        Cached blocks are free (the syscall layer charges CPU cost);
        missing blocks are fetched from the device in one request.
        """
        miss_blocks = 0
        for block in self._block_range(offset, nbytes):
            key = (ino, block)
            if key in self._blocks:
                self.stats.hits += 1
            else:
                self.stats.misses += 1
                miss_blocks += 1
            self._touch(key)
        if miss_blocks:
            yield from self.device.read(miss_blocks * BLOCK_SIZE)
            yield from self._evict()

    def write(self, ino: int, offset: int, nbytes: int):
        """Process generator: buffer a write, evicting if needed."""
        dirty = self._dirty[ino]
        for block in self._block_range(offset, nbytes):
            self._touch((ino, block))
            dirty.add(block)
        yield from self._evict()

    def fsync(self, ino: int):
        """Process generator: write back all dirty blocks of ``ino``."""
        dirty = self._dirty.get(ino)
        if not dirty:
            return
        count = len(dirty)
        dirty.clear()
        self.stats.writebacks += count
        self.stats.bytes_written_back += count * BLOCK_SIZE
        yield from self.device.write(count * BLOCK_SIZE)

    def drop_inode(self, ino: int) -> None:
        """Forget all blocks of a deleted inode without writeback."""
        stale = [key for key in self._blocks if key[0] == ino]
        for key in stale:
            del self._blocks[key]
        self._dirty.pop(ino, None)

    def dirty_blocks(self, ino: int | None = None) -> int:
        """Number of dirty blocks, optionally for a single inode."""
        if ino is not None:
            return len(self._dirty.get(ino, ()))
        return sum(len(blocks) for blocks in self._dirty.values())

