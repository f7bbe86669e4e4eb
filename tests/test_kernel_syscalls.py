"""Integration tests for the syscall layer on the simulated kernel."""

import pytest

from repro.kernel import (Kernel, O_APPEND, O_CREAT, O_EXCL, O_RDONLY,
                          O_RDWR, O_TRUNC, O_WRONLY, SEEK_CUR, SEEK_END,
                          SEEK_SET, SYSCALLS)
from repro.kernel.errno import Errno
from repro.kernel.syscalls import (ALL_SYSCALLS, DATA_SYSCALLS,
                                   DIRECTORY_SYSCALLS, METADATA_SYSCALLS,
                                   S_IFIFO, S_IFSOCK, URING_SYSCALLS,
                                   XATTR_SYSCALLS, AT_REMOVEDIR)
from repro.sim import Environment


@pytest.fixture()
def setup():
    env = Environment()
    kernel = Kernel(env)
    process = kernel.spawn_process("testapp")
    return env, kernel, process.threads[0]


def run(env, gen):
    """Drive a syscall generator to completion, returning its value."""
    return env.run(until=env.process(gen))


class TestTableISyscallSet:
    def test_exactly_42_syscalls(self):
        assert len(SYSCALLS) == 42

    def test_category_partition(self):
        assert len(DATA_SYSCALLS) == 6
        assert len(METADATA_SYSCALLS) == 19
        assert len(XATTR_SYSCALLS) == 12
        assert len(DIRECTORY_SYSCALLS) == 5

    def test_categories_are_disjoint(self):
        total = (len(DATA_SYSCALLS) + len(METADATA_SYSCALLS)
                 + len(XATTR_SYSCALLS) + len(DIRECTORY_SYSCALLS))
        assert total == len(SYSCALLS)

    def test_category_lookup(self):
        assert "read" in DATA_SYSCALLS
        assert "stat" in METADATA_SYSCALLS
        assert "getxattr" in XATTR_SYSCALLS
        assert "mkdir" in DIRECTORY_SYSCALLS
        assert "io_uring_enter" in URING_SYSCALLS
        assert "clone" not in ALL_SYSCALLS

    def test_uring_surface_kept_outside_table1(self):
        # Table I stays at 42: the ring control syscalls live in their
        # own set so classic-set consumers (and anything seeded from
        # it) are unchanged.
        assert len(URING_SYSCALLS) == 3
        assert not URING_SYSCALLS & SYSCALLS
        assert ALL_SYSCALLS == SYSCALLS | URING_SYSCALLS

    def test_every_syscall_has_an_implementation(self):
        env = Environment()
        kernel = Kernel(env)
        for name in ALL_SYSCALLS:
            assert hasattr(kernel, f"_sys_{name}"), name

    def test_unknown_syscall_rejected(self, setup):
        env, kernel, task = setup
        with pytest.raises(ValueError):
            next(kernel.syscall(task, "execve"))


class TestOpenClose:
    def test_open_create_write_read(self, setup):
        env, kernel, task = setup

        def scenario():
            fd = yield from kernel.syscall(
                task, "open", path="/f", flags=O_CREAT | O_RDWR)
            assert fd >= 3
            n = yield from kernel.syscall(task, "write", fd=fd, data=b"hello")
            assert n == 5
            yield from kernel.syscall(task, "lseek", fd=fd, offset=0,
                                      whence=SEEK_SET)
            buf = bytearray(16)
            n = yield from kernel.syscall(task, "read", fd=fd, buf=buf)
            assert n == 5
            assert bytes(buf[:n]) == b"hello"
            ret = yield from kernel.syscall(task, "close", fd=fd)
            assert ret == 0

        run(env, scenario())

    def test_open_missing_returns_negative_enoent(self, setup):
        env, kernel, task = setup

        def scenario():
            ret = yield from kernel.syscall(task, "open", path="/missing",
                                            flags=O_RDONLY)
            assert ret == -int(Errno.ENOENT)

        run(env, scenario())

    def test_open_excl_on_existing(self, setup):
        env, kernel, task = setup

        def scenario():
            yield from kernel.syscall(task, "open", path="/f",
                                      flags=O_CREAT | O_WRONLY)
            ret = yield from kernel.syscall(
                task, "open", path="/f", flags=O_CREAT | O_EXCL | O_WRONLY)
            assert ret == -int(Errno.EEXIST)

        run(env, scenario())

    def test_open_trunc_clears_content(self, setup):
        env, kernel, task = setup

        def scenario():
            fd = yield from kernel.syscall(task, "open", path="/f",
                                           flags=O_CREAT | O_WRONLY)
            yield from kernel.syscall(task, "write", fd=fd, data=b"content")
            yield from kernel.syscall(task, "close", fd=fd)
            fd = yield from kernel.syscall(task, "open", path="/f",
                                           flags=O_WRONLY | O_TRUNC)
            yield from kernel.syscall(task, "close", fd=fd)
            st = {}
            yield from kernel.syscall(task, "stat", path="/f", statbuf=st)
            assert st["st_size"] == 0

        run(env, scenario())

    def test_close_bad_fd(self, setup):
        env, kernel, task = setup

        def scenario():
            ret = yield from kernel.syscall(task, "close", fd=99)
            assert ret == -int(Errno.EBADF)

        run(env, scenario())

    def test_creat_equivalent_to_open_trunc(self, setup):
        env, kernel, task = setup

        def scenario():
            fd = yield from kernel.syscall(task, "creat", path="/f")
            n = yield from kernel.syscall(task, "write", fd=fd, data=b"x")
            assert n == 1

        run(env, scenario())

    def test_lowest_free_fd_reused(self, setup):
        env, kernel, task = setup

        def scenario():
            fd1 = yield from kernel.syscall(task, "open", path="/a",
                                            flags=O_CREAT | O_WRONLY)
            fd2 = yield from kernel.syscall(task, "open", path="/b",
                                            flags=O_CREAT | O_WRONLY)
            yield from kernel.syscall(task, "close", fd=fd1)
            fd3 = yield from kernel.syscall(task, "open", path="/c",
                                            flags=O_CREAT | O_WRONLY)
            assert fd3 == fd1
            assert fd2 != fd3

        run(env, scenario())


class TestReadWriteOffsets:
    def test_sequential_reads_advance_offset(self, setup):
        env, kernel, task = setup

        def scenario():
            fd = yield from kernel.syscall(task, "open", path="/f",
                                           flags=O_CREAT | O_RDWR)
            yield from kernel.syscall(task, "write", fd=fd, data=b"abcdef")
            yield from kernel.syscall(task, "lseek", fd=fd, offset=0,
                                      whence=SEEK_SET)
            buf = bytearray(3)
            yield from kernel.syscall(task, "read", fd=fd, buf=buf)
            assert bytes(buf) == b"abc"
            yield from kernel.syscall(task, "read", fd=fd, buf=buf)
            assert bytes(buf) == b"def"
            n = yield from kernel.syscall(task, "read", fd=fd, buf=buf)
            assert n == 0  # EOF

        run(env, scenario())

    def test_pread_pwrite_do_not_move_offset(self, setup):
        env, kernel, task = setup

        def scenario():
            fd = yield from kernel.syscall(task, "open", path="/f",
                                           flags=O_CREAT | O_RDWR)
            yield from kernel.syscall(task, "pwrite64", fd=fd,
                                      data=b"0123456789", offset=0)
            buf = bytearray(4)
            n = yield from kernel.syscall(task, "pread64", fd=fd, buf=buf,
                                          offset=6)
            assert n == 4
            assert bytes(buf) == b"6789"
            pos = yield from kernel.syscall(task, "lseek", fd=fd, offset=0,
                                            whence=SEEK_CUR)
            assert pos == 0

        run(env, scenario())

    def test_append_mode_writes_at_end(self, setup):
        env, kernel, task = setup

        def scenario():
            fd = yield from kernel.syscall(task, "open", path="/f",
                                           flags=O_CREAT | O_WRONLY)
            yield from kernel.syscall(task, "write", fd=fd, data=b"base")
            yield from kernel.syscall(task, "close", fd=fd)
            fd = yield from kernel.syscall(task, "open", path="/f",
                                           flags=O_WRONLY | O_APPEND)
            yield from kernel.syscall(task, "write", fd=fd, data=b"+tail")
            st = {}
            yield from kernel.syscall(task, "fstat", fd=fd, statbuf=st)
            assert st["st_size"] == 9

        run(env, scenario())

    def test_writev_readv(self, setup):
        env, kernel, task = setup

        def scenario():
            fd = yield from kernel.syscall(task, "open", path="/f",
                                           flags=O_CREAT | O_RDWR)
            n = yield from kernel.syscall(task, "writev", fd=fd,
                                          datas=[b"ab", b"cd", b"ef"])
            assert n == 6
            yield from kernel.syscall(task, "lseek", fd=fd, offset=0,
                                      whence=SEEK_SET)
            bufs = [bytearray(2), bytearray(2)]
            n = yield from kernel.syscall(task, "readv", fd=fd, bufs=bufs)
            assert n == 4
            assert bytes(bufs[0]) == b"ab"
            assert bytes(bufs[1]) == b"cd"

        run(env, scenario())

    def test_write_to_readonly_fd(self, setup):
        env, kernel, task = setup

        def scenario():
            yield from kernel.syscall(task, "creat", path="/f")
            fd = yield from kernel.syscall(task, "open", path="/f",
                                           flags=O_RDONLY)
            ret = yield from kernel.syscall(task, "write", fd=fd, data=b"x")
            assert ret == -int(Errno.EBADF)

        run(env, scenario())

    def test_lseek_whences(self, setup):
        env, kernel, task = setup

        def scenario():
            fd = yield from kernel.syscall(task, "open", path="/f",
                                           flags=O_CREAT | O_RDWR)
            yield from kernel.syscall(task, "write", fd=fd, data=b"0123456789")
            pos = yield from kernel.syscall(task, "lseek", fd=fd, offset=2,
                                            whence=SEEK_SET)
            assert pos == 2
            pos = yield from kernel.syscall(task, "lseek", fd=fd, offset=3,
                                            whence=SEEK_CUR)
            assert pos == 5
            pos = yield from kernel.syscall(task, "lseek", fd=fd, offset=-1,
                                            whence=SEEK_END)
            assert pos == 9
            ret = yield from kernel.syscall(task, "lseek", fd=fd, offset=-100,
                                            whence=SEEK_SET)
            assert ret == -int(Errno.EINVAL)

        run(env, scenario())


class TestMetadataSyscalls:
    def test_stat_reports_identity_and_size(self, setup):
        env, kernel, task = setup

        def scenario():
            fd = yield from kernel.syscall(task, "open", path="/f",
                                           flags=O_CREAT | O_WRONLY)
            yield from kernel.syscall(task, "write", fd=fd, data=b"12345")
            st = {}
            yield from kernel.syscall(task, "stat", path="/f", statbuf=st)
            assert st["st_size"] == 5
            assert st["st_dev"] == kernel.vfs.dev
            assert st["st_file_type"] == "regular"

        run(env, scenario())

    def test_rename_and_unlink(self, setup):
        env, kernel, task = setup

        def scenario():
            yield from kernel.syscall(task, "creat", path="/old")
            ret = yield from kernel.syscall(task, "rename", oldpath="/old",
                                            newpath="/new")
            assert ret == 0
            ret = yield from kernel.syscall(task, "unlink", path="/new")
            assert ret == 0
            ret = yield from kernel.syscall(task, "unlink", path="/new")
            assert ret == -int(Errno.ENOENT)

        run(env, scenario())

    def test_unlinkat_removedir(self, setup):
        env, kernel, task = setup

        def scenario():
            yield from kernel.syscall(task, "mkdir", path="/d")
            ret = yield from kernel.syscall(task, "unlinkat", path="/d",
                                            flags=AT_REMOVEDIR)
            assert ret == 0
            st = {}
            ret = yield from kernel.syscall(task, "stat", path="/d", statbuf=st)
            assert ret == -int(Errno.ENOENT)

        run(env, scenario())

    def test_truncate_and_ftruncate(self, setup):
        env, kernel, task = setup

        def scenario():
            fd = yield from kernel.syscall(task, "open", path="/f",
                                           flags=O_CREAT | O_RDWR)
            yield from kernel.syscall(task, "write", fd=fd, data=b"0123456789")
            yield from kernel.syscall(task, "ftruncate", fd=fd, length=4)
            st = {}
            yield from kernel.syscall(task, "fstat", fd=fd, statbuf=st)
            assert st["st_size"] == 4
            yield from kernel.syscall(task, "truncate", path="/f", length=8)
            yield from kernel.syscall(task, "stat", path="/f", statbuf=st)
            assert st["st_size"] == 8

        run(env, scenario())

    def test_fsync_writes_back_dirty_blocks(self, setup):
        env, kernel, task = setup

        def scenario():
            fd = yield from kernel.syscall(task, "open", path="/f",
                                           flags=O_CREAT | O_WRONLY)
            yield from kernel.syscall(task, "write", fd=fd,
                                      data=b"x" * 10000)
            before = kernel.cache.dirty_blocks()
            assert before > 0
            yield from kernel.syscall(task, "fsync", fd=fd)
            assert kernel.cache.dirty_blocks() == 0

        run(env, scenario())
        assert kernel.device.stats.bytes_written > 0

    def test_fstatfs(self, setup):
        env, kernel, task = setup

        def scenario():
            fd = yield from kernel.syscall(task, "creat", path="/f")
            st = {}
            ret = yield from kernel.syscall(task, "fstatfs", fd=fd, statbuf=st)
            assert ret == 0
            assert st["f_bsize"] == 4096

        run(env, scenario())


class TestXattrs:
    def test_set_get_list_remove(self, setup):
        env, kernel, task = setup

        def scenario():
            yield from kernel.syscall(task, "creat", path="/f")
            ret = yield from kernel.syscall(task, "setxattr", path="/f",
                                            name="user.tag", value=b"v1")
            assert ret == 0
            buf = bytearray(16)
            size = yield from kernel.syscall(task, "getxattr", path="/f",
                                             name="user.tag", buf=buf)
            assert bytes(buf[:size]) == b"v1"
            listing = bytearray(64)
            size = yield from kernel.syscall(task, "listxattr", path="/f",
                                             buf=listing)
            assert b"user.tag" in bytes(listing[:size])
            ret = yield from kernel.syscall(task, "removexattr", path="/f",
                                            name="user.tag")
            assert ret == 0
            ret = yield from kernel.syscall(task, "getxattr", path="/f",
                                            name="user.tag")
            assert ret == -int(Errno.ENODATA)

        run(env, scenario())

    def test_fd_variants(self, setup):
        env, kernel, task = setup

        def scenario():
            fd = yield from kernel.syscall(task, "creat", path="/f")
            yield from kernel.syscall(task, "fsetxattr", fd=fd,
                                      name="user.k", value=b"val")
            buf = bytearray(8)
            size = yield from kernel.syscall(task, "fgetxattr", fd=fd,
                                             name="user.k", buf=buf)
            assert bytes(buf[:size]) == b"val"
            size = yield from kernel.syscall(task, "flistxattr", fd=fd,
                                             buf=bytearray(64))
            assert size > 0
            ret = yield from kernel.syscall(task, "fremovexattr", fd=fd,
                                            name="user.k")
            assert ret == 0

        run(env, scenario())

    def test_symlink_variants_do_not_follow(self, setup):
        env, kernel, task = setup
        kernel.vfs.create("/real")
        kernel.vfs.symlink("/real", "/lnk")

        def scenario():
            yield from kernel.syscall(task, "lsetxattr", path="/lnk",
                                      name="user.on_link", value=b"1")
            # Following getxattr must NOT see the link's attribute.
            ret = yield from kernel.syscall(task, "getxattr", path="/lnk",
                                            name="user.on_link")
            assert ret == -int(Errno.ENODATA)
            size = yield from kernel.syscall(task, "lgetxattr", path="/lnk",
                                             name="user.on_link")
            assert size == 1
            yield from kernel.syscall(task, "llistxattr", path="/lnk",
                                      buf=bytearray(64))
            ret = yield from kernel.syscall(task, "lremovexattr", path="/lnk",
                                            name="user.on_link")
            assert ret == 0

        run(env, scenario())


class TestDirectoryManagement:
    def test_mkdir_mkdirat_rmdir(self, setup):
        env, kernel, task = setup

        def scenario():
            ret = yield from kernel.syscall(task, "mkdir", path="/d1")
            assert ret == 0
            ret = yield from kernel.syscall(task, "mkdirat", path="/d1/d2")
            assert ret == 0
            ret = yield from kernel.syscall(task, "rmdir", path="/d1")
            assert ret == -int(Errno.ENOTEMPTY)
            yield from kernel.syscall(task, "rmdir", path="/d1/d2")
            ret = yield from kernel.syscall(task, "rmdir", path="/d1")
            assert ret == 0

        run(env, scenario())

    def test_mknod_creates_special_files(self, setup):
        env, kernel, task = setup

        def scenario():
            ret = yield from kernel.syscall(task, "mknod", path="/fifo",
                                            mode=S_IFIFO)
            assert ret == 0
            ret = yield from kernel.syscall(task, "mknodat", path="/sock",
                                            mode=S_IFSOCK)
            assert ret == 0
            st = {}
            yield from kernel.syscall(task, "stat", path="/fifo", statbuf=st)
            assert st["st_file_type"] == "pipe"
            yield from kernel.syscall(task, "stat", path="/sock", statbuf=st)
            assert st["st_file_type"] == "socket"

        run(env, scenario())


class TestTimeAccounting:
    def test_syscalls_consume_virtual_time(self, setup):
        env, kernel, task = setup

        def scenario():
            yield from kernel.syscall(task, "creat", path="/f")

        run(env, scenario())
        assert env.now > 0

    def test_disk_io_slower_than_cache_hit(self, setup):
        env, kernel, task = setup
        durations = {}

        def scenario():
            fd = yield from kernel.syscall(task, "open", path="/f",
                                           flags=O_CREAT | O_RDWR)
            yield from kernel.syscall(task, "write", fd=fd, data=b"z" * 65536)
            yield from kernel.syscall(task, "fsync", fd=fd)
            # Cache hit: blocks were just written.
            start = env.now
            buf = bytearray(65536)
            yield from kernel.syscall(task, "pread64", fd=fd, buf=buf, offset=0)
            durations["hit"] = env.now - start
            # Force misses by dropping the inode's cached blocks.
            kernel.cache.drop_inode(kernel.vfs.resolve("/f").ino)
            start = env.now
            yield from kernel.syscall(task, "pread64", fd=fd, buf=buf, offset=0)
            durations["miss"] = env.now - start

        run(env, scenario())
        assert durations["miss"] > durations["hit"] * 2

    def test_syscall_counts_recorded(self, setup):
        env, kernel, task = setup

        def scenario():
            fd = yield from kernel.syscall(task, "creat", path="/f")
            yield from kernel.syscall(task, "write", fd=fd, data=b"a")
            yield from kernel.syscall(task, "write", fd=fd, data=b"b")

        run(env, scenario())
        assert kernel.syscall_counts["creat"] == 1
        assert kernel.syscall_counts["write"] == 2
