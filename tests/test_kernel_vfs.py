"""Unit tests for the virtual file system layer."""

import pytest

from repro.kernel.errno import Errno, KernelError
from repro.kernel.inode import FileType, InodeAllocator
from repro.kernel.vfs import VirtualFileSystem


@pytest.fixture()
def vfs():
    return VirtualFileSystem(dev=0x700000)


class TestInodeAllocator:
    def test_sequential_allocation(self):
        alloc = InodeAllocator()
        assert alloc.allocate()[0] == 2
        assert alloc.allocate()[0] == 3

    def test_lowest_free_recycled_first(self):
        alloc = InodeAllocator()
        inos = [alloc.allocate()[0] for _ in range(4)]  # 2, 3, 4, 5
        alloc.free(inos[2])
        alloc.free(inos[0])
        assert alloc.allocate()[0] == inos[0]
        assert alloc.allocate()[0] == inos[2]

    def test_generation_increases_on_reuse(self):
        alloc = InodeAllocator()
        ino, gen1 = alloc.allocate()
        alloc.free(ino)
        ino2, gen2 = alloc.allocate()
        assert ino2 == ino
        assert gen2 == gen1 + 1


class TestCreateResolve:
    def test_create_and_resolve_file(self, vfs):
        inode = vfs.create("/a.txt")
        assert vfs.resolve("/a.txt") is inode
        assert inode.file_type is FileType.REGULAR

    def test_resolve_missing_raises_enoent(self, vfs):
        with pytest.raises(KernelError) as exc:
            vfs.resolve("/missing")
        assert exc.value.errno == Errno.ENOENT

    def test_nested_paths(self, vfs):
        vfs.mkdir("/dir")
        vfs.mkdir("/dir/sub")
        inode = vfs.create("/dir/sub/f")
        assert vfs.resolve("/dir/sub/f") is inode

    def test_file_component_in_middle_is_enotdir(self, vfs):
        vfs.create("/plain")
        with pytest.raises(KernelError) as exc:
            vfs.resolve("/plain/child")
        assert exc.value.errno == Errno.ENOTDIR

    def test_relative_path_rejected(self, vfs):
        with pytest.raises(KernelError) as exc:
            vfs.resolve("relative")
        assert exc.value.errno == Errno.EINVAL

    def test_exclusive_create_on_existing_raises(self, vfs):
        vfs.create("/f")
        with pytest.raises(KernelError) as exc:
            vfs.create("/f", exclusive=True)
        assert exc.value.errno == Errno.EEXIST

    def test_nonexclusive_create_returns_existing(self, vfs):
        first = vfs.create("/f")
        assert vfs.create("/f") is first

    def test_root_resolves_to_root(self, vfs):
        assert vfs.resolve("/") is vfs.root

    def test_name_too_long(self, vfs):
        with pytest.raises(KernelError) as exc:
            vfs.create("/" + "x" * 300)
        assert exc.value.errno == Errno.ENAMETOOLONG


class TestUnlinkRecycling:
    def test_unlink_removes_entry(self, vfs):
        vfs.create("/f")
        vfs.unlink("/f")
        assert vfs.lookup("/f") is None

    def test_unlink_missing_raises(self, vfs):
        with pytest.raises(KernelError) as exc:
            vfs.unlink("/nope")
        assert exc.value.errno == Errno.ENOENT

    def test_unlink_directory_raises_eisdir(self, vfs):
        vfs.mkdir("/d")
        with pytest.raises(KernelError) as exc:
            vfs.unlink("/d")
        assert exc.value.errno == Errno.EISDIR

    def test_inode_number_recycled_to_new_file(self, vfs):
        """The exact mechanism behind the Fluent Bit data-loss bug."""
        old = vfs.create("/app.log")
        old_ino = old.ino
        vfs.unlink("/app.log")
        new = vfs.create("/app.log")
        assert new.ino == old_ino
        assert new.generation == old.generation + 1

    def test_open_inode_survives_unlink_until_close(self, vfs):
        inode = vfs.create("/f")
        vfs.inode_opened(inode)
        vfs.unlink("/f")
        # Inode number must NOT be recycled while the file is open.
        other = vfs.create("/other")
        assert other.ino != inode.ino
        vfs.inode_closed(inode)
        recycled = vfs.create("/again")
        assert recycled.ino == inode.ino


class TestRename:
    def test_rename_moves_entry(self, vfs):
        inode = vfs.create("/a")
        vfs.rename("/a", "/b")
        assert vfs.lookup("/a") is None
        assert vfs.resolve("/b") is inode

    def test_rename_replaces_target(self, vfs):
        src = vfs.create("/src")
        vfs.create("/dst")
        vfs.rename("/src", "/dst")
        assert vfs.resolve("/dst") is src

    def test_rename_missing_source(self, vfs):
        with pytest.raises(KernelError) as exc:
            vfs.rename("/no", "/where")
        assert exc.value.errno == Errno.ENOENT

    def test_rename_dir_over_nonempty_dir_fails(self, vfs):
        vfs.mkdir("/a")
        vfs.mkdir("/b")
        vfs.create("/b/file")
        with pytest.raises(KernelError) as exc:
            vfs.rename("/a", "/b")
        assert exc.value.errno == Errno.ENOTEMPTY

    def test_rename_across_directories(self, vfs):
        vfs.mkdir("/d1")
        vfs.mkdir("/d2")
        inode = vfs.create("/d1/f")
        vfs.rename("/d1/f", "/d2/f")
        assert vfs.resolve("/d2/f") is inode


class TestDirectories:
    def test_rmdir_empty(self, vfs):
        vfs.mkdir("/d")
        vfs.rmdir("/d")
        assert vfs.lookup("/d") is None

    def test_rmdir_nonempty_fails(self, vfs):
        vfs.mkdir("/d")
        vfs.create("/d/f")
        with pytest.raises(KernelError) as exc:
            vfs.rmdir("/d")
        assert exc.value.errno == Errno.ENOTEMPTY

    def test_rmdir_file_fails(self, vfs):
        vfs.create("/f")
        with pytest.raises(KernelError) as exc:
            vfs.rmdir("/f")
        assert exc.value.errno == Errno.ENOTDIR

    def test_mkdir_existing_fails(self, vfs):
        vfs.mkdir("/d")
        with pytest.raises(KernelError) as exc:
            vfs.mkdir("/d")
        assert exc.value.errno == Errno.EEXIST

    def test_nlink_accounting(self, vfs):
        assert vfs.root.nlink == 2
        vfs.mkdir("/d")
        assert vfs.root.nlink == 3
        vfs.rmdir("/d")
        assert vfs.root.nlink == 2


class TestSymlinks:
    def test_symlink_resolution(self, vfs):
        target = vfs.create("/real")
        vfs.symlink("/real", "/link")
        assert vfs.resolve("/link") is target

    def test_nofollow_returns_symlink(self, vfs):
        vfs.create("/real")
        link = vfs.symlink("/real", "/link")
        assert vfs.resolve("/link", follow_symlinks=False) is link

    def test_symlink_loop_raises_eloop(self, vfs):
        vfs.symlink("/b", "/a")
        vfs.symlink("/a", "/b")
        with pytest.raises(KernelError) as exc:
            vfs.resolve("/a")
        assert exc.value.errno == Errno.ELOOP

    def test_symlink_in_directory_component(self, vfs):
        vfs.mkdir("/real_dir")
        vfs.create("/real_dir/f")
        vfs.symlink("/real_dir", "/lnk")
        assert vfs.resolve("/lnk/f") is vfs.resolve("/real_dir/f")


class TestFileData:
    def test_write_read_roundtrip(self, vfs):
        inode = vfs.create("/f")
        inode.write_bytes(0, b"hello world", 1)
        assert inode.read_bytes(0, 5) == b"hello"
        assert inode.size == 11

    def test_read_past_eof_returns_empty(self, vfs):
        inode = vfs.create("/f")
        inode.write_bytes(0, b"abc", 1)
        assert inode.read_bytes(10, 5) == b""

    def test_write_with_hole_zero_fills(self, vfs):
        inode = vfs.create("/f")
        inode.write_bytes(5, b"x", 1)
        assert inode.read_bytes(0, 6) == b"\x00\x00\x00\x00\x00x"

    def test_truncate_shrink_and_grow(self, vfs):
        inode = vfs.create("/f")
        inode.write_bytes(0, b"abcdef", 1)
        inode.truncate(3, 2)
        assert inode.read_bytes(0, 10) == b"abc"
        inode.truncate(5, 3)
        assert inode.read_bytes(0, 10) == b"abc\x00\x00"
