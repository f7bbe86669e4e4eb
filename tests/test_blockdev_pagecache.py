"""Dedicated unit tests for the block device and page cache models."""

import pytest

from repro.kernel import BlockDevice, PageCache
from repro.kernel.pagecache import BLOCK_SIZE
from repro.sim import Environment


@pytest.fixture()
def env():
    return Environment()


def run(env, gen):
    return env.run(until=env.process(gen))


class TestBlockDevice:
    def test_service_time_model(self, env):
        device = BlockDevice(env, base_latency_ns=10_000,
                             bandwidth_bytes_per_sec=1_000_000_000)
        assert device.service_time_ns(0) == 10_000
        assert device.service_time_ns(1_000_000) == 10_000 + 1_000_000

    def test_transfer_takes_service_time(self, env):
        device = BlockDevice(env, base_latency_ns=20_000,
                             bandwidth_bytes_per_sec=500_000_000)

        def scenario():
            yield from device.read(1_000_000)

        run(env, scenario())
        # 1 MB at 2 ns/byte, split into 2 chunks paying base latency each.
        assert env.now == 20_000 * 2 + 2_000_000

    def test_queue_depth_limits_parallelism(self, env):
        device = BlockDevice(env, queue_depth=1, base_latency_ns=1000,
                             bandwidth_bytes_per_sec=10**9,
                             max_request_bytes=10**9)
        finish_times = []

        def requester():
            yield from device.read(1000)
            finish_times.append(env.now)

        for _ in range(3):
            env.process(requester())
        env.run()
        # Strictly serialized: distinct, increasing completion times.
        assert len(set(finish_times)) == 3
        assert finish_times == sorted(finish_times)

    def test_large_request_split_bounds_monopoly(self, env):
        """A small read queued behind a huge write must not wait for
        the whole transfer — only for the current chunk."""
        device = BlockDevice(env, queue_depth=1, base_latency_ns=0,
                             bandwidth_bytes_per_sec=100_000_000,
                             max_request_bytes=256 * 1024)
        read_done = {}

        def big_writer():
            yield from device.write(16 * 1024 * 1024)

        def small_reader():
            yield env.timeout(1000)  # arrive mid-write
            yield from device.read(4096)
            read_done["at"] = env.now

        env.process(big_writer())
        env.process(small_reader())
        env.run()
        whole_write_ns = 16 * 1024 * 1024 * 10
        assert read_done["at"] < whole_write_ns / 4

    def test_stats_accounting(self, env):
        device = BlockDevice(env)

        def scenario():
            yield from device.write(10_000)
            yield from device.read(5_000)

        run(env, scenario())
        assert device.stats.writes == 1
        assert device.stats.reads == 1
        assert device.stats.bytes_written == 10_000
        assert device.stats.bytes_read == 5_000
        assert device.stats.busy_ns > 0

    def test_invalid_parameters(self, env):
        with pytest.raises(ValueError):
            BlockDevice(env, bandwidth_bytes_per_sec=0)
        device = BlockDevice(env)
        with pytest.raises(ValueError):
            run(env, device.read(-1))


class TestPageCache:
    def make(self, env, capacity_blocks=16):
        device = BlockDevice(env, base_latency_ns=10_000,
                             bandwidth_bytes_per_sec=10**9)
        cache = PageCache(env, device,
                          capacity_bytes=capacity_blocks * BLOCK_SIZE)
        return device, cache

    def test_second_read_is_a_hit(self, env):
        device, cache = self.make(env)

        def scenario():
            yield from cache.read(1, 0, BLOCK_SIZE)
            first_reads = device.stats.reads
            yield from cache.read(1, 0, BLOCK_SIZE)
            return first_reads, device.stats.reads

        first, second = run(env, scenario())
        assert first == second  # no extra device read
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_write_is_buffered_until_fsync(self, env):
        device, cache = self.make(env)

        def scenario():
            yield from cache.write(1, 0, 3 * BLOCK_SIZE)
            buffered = device.stats.bytes_written
            yield from cache.fsync(1)
            return buffered, device.stats.bytes_written

        before, after = run(env, scenario())
        assert before == 0
        assert after == 3 * BLOCK_SIZE
        assert cache.dirty_blocks(1) == 0

    def test_fsync_is_per_inode(self, env):
        device, cache = self.make(env)

        def scenario():
            yield from cache.write(1, 0, BLOCK_SIZE)
            yield from cache.write(2, 0, BLOCK_SIZE)
            yield from cache.fsync(1)

        run(env, scenario())
        assert cache.dirty_blocks(1) == 0
        assert cache.dirty_blocks(2) == 1

    def test_lru_eviction_writes_back_dirty(self, env):
        device, cache = self.make(env, capacity_blocks=4)

        def scenario():
            yield from cache.write(1, 0, 4 * BLOCK_SIZE)   # fill with dirty
            yield from cache.read(2, 0, 2 * BLOCK_SIZE)    # evicts 2 dirty

        run(env, scenario())
        assert cache.stats.evictions >= 2
        assert cache.stats.writebacks >= 2
        assert len(cache._blocks) <= 4

    def test_drop_inode_discards_without_writeback(self, env):
        device, cache = self.make(env)

        def scenario():
            yield from cache.write(1, 0, 2 * BLOCK_SIZE)

        run(env, scenario())
        cache.drop_inode(1)
        assert cache.dirty_blocks() == 0
        assert device.stats.bytes_written == 0

    def test_partial_block_ranges(self, env):
        device, cache = self.make(env)

        def scenario():
            # 100 bytes spanning a block boundary touches 2 blocks.
            yield from cache.read(1, BLOCK_SIZE - 50, 100)

        run(env, scenario())
        assert cache.stats.misses == 2

    def test_zero_length_io_touches_nothing(self, env):
        device, cache = self.make(env)

        def scenario():
            yield from cache.read(1, 0, 0)
            yield from cache.write(1, 0, 0)

        run(env, scenario())
        assert cache.stats.hits + cache.stats.misses == 0
        assert len(cache._blocks) == 0

    def test_capacity_validation(self, env):
        device = BlockDevice(env)
        with pytest.raises(ValueError):
            PageCache(env, device, capacity_bytes=100)
