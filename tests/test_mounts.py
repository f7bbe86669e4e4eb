"""Tests for multi-device mounts (the testbed's multiple disks)."""

import pytest

from repro.kernel import BlockDevice, Kernel, O_CREAT, O_RDWR, O_WRONLY
from repro.kernel.errno import Errno
from repro.sim import Environment


@pytest.fixture()
def setup():
    env = Environment()
    fast = BlockDevice(env, name="nvme0", bandwidth_bytes_per_sec=10**9,
                       base_latency_ns=10_000)
    kernel = Kernel(env, device=fast, ncpus=2)
    slow = BlockDevice(env, name="sata0", bandwidth_bytes_per_sec=10**8,
                       base_latency_ns=100_000)
    dev_no = kernel.add_mount("/slow", slow, cache_bytes=1024 * 1024)
    task = kernel.spawn_process("app").threads[0]
    return env, kernel, task, fast, slow, dev_no


def run(env, gen):
    return env.run(until=env.process(gen))


class TestDeviceAssignment:
    def test_files_get_the_mounts_device_number(self, setup):
        env, kernel, task, fast, slow, dev_no = setup
        root_file = kernel.vfs.create("/root_file")
        slow_file = kernel.vfs.create("/slow/slow_file")
        assert root_file.dev == kernel.vfs.dev
        assert slow_file.dev == dev_no

    def test_longest_prefix_wins(self, setup):
        env, kernel, task, fast, slow, dev_no = setup
        extra = BlockDevice(env, name="nvme1")
        nested = kernel.add_mount("/slow/fastcorner", extra)
        inode = kernel.vfs.create("/slow/fastcorner/f")
        assert inode.dev == nested

    def test_stat_reports_mount_device(self, setup):
        env, kernel, task, fast, slow, dev_no = setup

        def scenario():
            fd = yield from kernel.syscall(task, "open", path="/slow/f",
                                           flags=O_CREAT | O_WRONLY)
            st = {}
            yield from kernel.syscall(task, "fstat", fd=fd, statbuf=st)
            return st

        st = run(env, scenario())
        assert st["st_dev"] == dev_no


class TestIORouting:
    def test_io_hits_the_mounted_device(self, setup):
        env, kernel, task, fast, slow, dev_no = setup

        def scenario():
            fd = yield from kernel.syscall(task, "open", path="/slow/f",
                                           flags=O_CREAT | O_RDWR)
            yield from kernel.syscall(task, "write", fd=fd,
                                      data=b"z" * 100_000)
            yield from kernel.syscall(task, "fsync", fd=fd)
            yield from kernel.syscall(task, "close", fd=fd)

        before_fast = fast.stats.bytes_written
        run(env, scenario())
        assert slow.stats.bytes_written >= 100_000
        # The root device saw only the mountpoint's own metadata.
        assert fast.stats.bytes_written - before_fast <= 1024

    def test_slow_mount_is_actually_slower(self, setup):
        env, kernel, task, fast, slow, dev_no = setup

        def timed_write(path):
            start = env.now
            fd = yield from kernel.syscall(task, "open", path=path,
                                           flags=O_CREAT | O_RDWR)
            yield from kernel.syscall(task, "write", fd=fd,
                                      data=b"z" * 1_000_000)
            yield from kernel.syscall(task, "fsync", fd=fd)
            yield from kernel.syscall(task, "close", fd=fd)
            return env.now - start

        fast_ns = run(env, timed_write("/on_fast"))
        slow_ns = run(env, timed_write("/slow/on_slow"))
        assert slow_ns > 3 * fast_ns

    def test_separate_caches(self, setup):
        env, kernel, task, fast, slow, dev_no = setup

        def scenario():
            fd = yield from kernel.syscall(task, "open", path="/slow/f",
                                           flags=O_CREAT | O_RDWR)
            yield from kernel.syscall(task, "write", fd=fd, data=b"x" * 8192)

        run(env, scenario())
        # The dirty blocks live in the mount's cache, not the root's.
        assert kernel.cache.dirty_blocks() == 0
        mount_cache = kernel._io_backends[dev_no][1]
        assert mount_cache.dirty_blocks() == 2


class TestCrossDeviceSemantics:
    def test_rename_across_devices_is_exdev(self, setup):
        env, kernel, task, fast, slow, dev_no = setup

        def scenario():
            yield from kernel.syscall(task, "creat", path="/f")
            ret = yield from kernel.syscall(task, "rename", oldpath="/f",
                                            newpath="/slow/f")
            return ret

        assert run(env, scenario()) == -int(Errno.EXDEV)

    def test_rename_within_a_mount_works(self, setup):
        env, kernel, task, fast, slow, dev_no = setup

        def scenario():
            yield from kernel.syscall(task, "creat", path="/slow/a")
            return (yield from kernel.syscall(task, "rename",
                                              oldpath="/slow/a",
                                              newpath="/slow/b"))

        assert run(env, scenario()) == 0

    def test_file_tags_distinguish_devices(self, setup):
        """Same inode numbers on different devices -> different tags."""
        from repro.backend import DocumentStore
        from repro.tracer import DIOTracer

        env, kernel, task, fast, slow, dev_no = setup
        store = DocumentStore()
        tracer = DIOTracer(env, kernel, store)
        tracer.attach()

        def scenario():
            for path in ("/a", "/slow/a"):
                fd = yield from kernel.syscall(task, "open", path=path,
                                               flags=O_CREAT | O_WRONLY)
                yield from kernel.syscall(task, "write", fd=fd, data=b"x")
                yield from kernel.syscall(task, "close", fd=fd)
            yield from tracer.shutdown()

        run(env, scenario())
        hits = store.search("dio_trace", size=None)["hits"]["hits"]
        tags = {h["_source"].get("file_tag") for h in hits
                if h["_source"].get("file_tag")}
        devs = {tag.split()[0] for tag in tags}
        assert len(devs) == 2


class TestRocksDBWalDir:
    def test_wal_files_land_on_the_wal_mount(self, setup):
        from repro.apps.rocksdb import DBOptions, RocksDB

        env, kernel, task, fast, slow, dev_no = setup
        process = kernel.spawn_process("db")
        options = DBOptions(wal_dir="/slow", memtable_bytes=4096)
        db = RocksDB(kernel, process, options)

        def scenario():
            yield from db.open(process.threads[0])
            for i in range(50):
                yield from db.put(process.threads[0], f"k{i:04d}",
                                  b"v" * 100)
            db.close()

        run(env, scenario())
        wal_files = [name for name in sorted(kernel.vfs.resolve("/slow")
                                             .children)
                     if name.startswith("LOG.wal")]
        assert wal_files
        assert kernel.vfs.resolve(f"/slow/{wal_files[0]}").dev == dev_no
