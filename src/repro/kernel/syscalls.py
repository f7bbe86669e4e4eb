"""The system-call interface: 42 storage-related syscalls.

This is the boundary DIO instruments.  Applications (simulation
processes) invoke syscalls with::

    fd = yield from kernel.syscall(task, "open", path="/tmp/a", flags=O_RDWR)

Every invocation fires the ``sys_enter``/``sys_exit`` tracepoints with a
:class:`~repro.kernel.tracepoints.SyscallContext`, charges the CPU cost
of the call plus whatever synchronous overhead attached tracers report,
and performs real I/O cost accounting through the page cache and block
device.  Failures surface POSIX-style as negative ``-errno`` return
values (and are visible to tracers exactly like successes).

The supported set matches the paper's Table I: 6 data syscalls,
19 metadata syscalls, 12 extended-attribute syscalls, and 5 directory
management syscalls — 42 in total.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sim import Environment

from repro.kernel.blockdev import BlockDevice
from repro.kernel.errno import Errno, KernelError
from repro.kernel.inode import FileType, Inode
from repro.kernel.pagecache import PageCache
from repro.kernel.process import (KernelProcess, OpenFileDescription,
                                  ProcessTable, Task)
from repro.kernel.tracepoints import (SyscallContext, TracepointRegistry,
                                      overhead_ns)
from repro.kernel.uring import (CQE, IOSQE_FIXED_FILE, IOSQE_IO_LINK,
                                IORING_ENTER_GETEVENTS,
                                IORING_REGISTER_BUFFERS,
                                IORING_REGISTER_FILES,
                                IORING_UNREGISTER_BUFFERS,
                                IORING_UNREGISTER_FILES, URING_MAX_ENTRIES,
                                URING_OP_EVENTS, URING_OP_FSYNC,
                                URING_OP_READ, URING_OP_WRITE,
                                URING_SQE_SUBMIT_NS, IoUring, SQE)
from repro.kernel.vfs import VirtualFileSystem

# --- open(2) flag bits (octal, as in Linux) --------------------------------
O_RDONLY = 0o0
O_WRONLY = 0o1
O_RDWR = 0o2
O_ACCMODE = 0o3
O_CREAT = 0o100
O_EXCL = 0o200
O_TRUNC = 0o1000
O_APPEND = 0o2000
O_DIRECTORY = 0o200000

# --- lseek whence ------------------------------------------------------------
SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2

# --- *at() constants ---------------------------------------------------------
AT_FDCWD = -100
AT_REMOVEDIR = 0x200
AT_SYMLINK_NOFOLLOW = 0x100

# --- mknod mode bits ---------------------------------------------------------
S_IFREG = 0o100000
S_IFSOCK = 0o140000
S_IFBLK = 0o060000
S_IFDIR = 0o040000
S_IFCHR = 0o020000
S_IFIFO = 0o010000
S_IFMT = 0o170000

_MODE_TO_FILETYPE = {
    S_IFREG: FileType.REGULAR,
    S_IFSOCK: FileType.SOCKET,
    S_IFBLK: FileType.BLOCK_DEVICE,
    S_IFCHR: FileType.CHAR_DEVICE,
    S_IFIFO: FileType.PIPE,
    S_IFDIR: FileType.DIRECTORY,
}
_FILETYPE_TO_MODE = {ft: mode for mode, ft in _MODE_TO_FILETYPE.items()}
_FILETYPE_TO_MODE[FileType.SYMLINK] = 0o120000

#: Syscalls grouped the way the paper's Table I groups them.
DATA_SYSCALLS = frozenset({
    "read", "pread64", "readv", "write", "pwrite64", "writev",
})
METADATA_SYSCALLS = frozenset({
    "open", "openat", "creat", "close", "lseek", "truncate", "ftruncate",
    "rename", "renameat", "renameat2", "unlink", "unlinkat",
    "fsync", "fdatasync", "stat", "lstat", "fstat", "fstatat", "fstatfs",
})
XATTR_SYSCALLS = frozenset({
    "getxattr", "lgetxattr", "fgetxattr",
    "setxattr", "lsetxattr", "fsetxattr",
    "listxattr", "llistxattr", "flistxattr",
    "removexattr", "lremovexattr", "fremovexattr",
})
DIRECTORY_SYSCALLS = frozenset({
    "mknod", "mknodat", "mkdir", "mkdirat", "rmdir",
})

#: The full supported set (42 syscalls, as in the paper's Table I).
SYSCALLS = DATA_SYSCALLS | METADATA_SYSCALLS | XATTR_SYSCALLS | DIRECTORY_SYSCALLS

#: The io_uring control surface (beyond the paper's Table I): the only
#: syscalls a ring-based application issues for its data path.  Kept
#: separate from ``SYSCALLS`` so Table I assertions and anything
#: seeded from the classic set (e.g. the DST mixed-syscall pool) stay
#: byte-identical.
URING_SYSCALLS = frozenset({
    "io_uring_setup", "io_uring_enter", "io_uring_register",
})

#: Everything the kernel dispatches: Table I plus the ring surface.
ALL_SYSCALLS = SYSCALLS | URING_SYSCALLS


class Kernel:
    """The simulated kernel: VFS + page cache + device + syscall ABI."""

    def __init__(self, env: Environment,
                 vfs: Optional[VirtualFileSystem] = None,
                 device: Optional[BlockDevice] = None,
                 cache: Optional[PageCache] = None,
                 ncpus: int = 4,
                 syscall_cpu_ns: int = 1200,
                 copy_ns_per_byte: float = 0.05):
        self.env = env
        self.vfs = vfs or VirtualFileSystem(clock=lambda: env.now)
        self.device = device or BlockDevice(env)
        self.cache = cache or PageCache(env, self.device)
        self.tracepoints = TracepointRegistry()
        #: Syscalls resolved so far: name -> ``_resolve(name)``; an
        #: attach or detach drops them all.
        self._dispatch: dict[str, tuple] = {}
        self.tracepoints.subscribe(self._dispatch.clear)
        self.processes = ProcessTable()
        self.ncpus = ncpus
        #: Fixed CPU cost of entering/dispatching any syscall.
        self.syscall_cpu_ns = syscall_cpu_ns
        #: Per-byte user/kernel copy cost for data syscalls.
        self.copy_ns_per_byte = copy_ns_per_byte
        #: Total syscalls executed, by name.
        self.syscall_counts: dict[str, int] = {}
        #: Observers of VFS namespace changes: callables receiving
        #: ``(op, path, inode)`` for "create", "unlink", and "rename".
        #: This is the minimal inotify-like facility applications such
        #: as the Fluent Bit tail plugin use to react to deletions.
        self._vfs_watchers: list = []

        #: Extra mounted devices: dev number -> (BlockDevice, PageCache).
        #: The root device/cache stay on ``self.device``/``self.cache``.
        self._io_backends: dict[int, tuple[BlockDevice, PageCache]] = {}

        #: Live io_uring instances, keyed ``(pid, ring_fd)``; dropped
        #: when the ring fd is closed.
        self._urings: dict[tuple[int, int], IoUring] = {}
        #: Kernel-side completion observers: callables receiving
        #: ``(ctx, sqe, cqe, ring)`` at CQE-post time.  This is the
        #: hook the ring-aware tracer mode attaches to — classic
        #: tracers (syscall tracepoints only) never see these.
        self._uring_observers: list = []
        #: io_uring lifecycle counters (the DST ring twin compares them).
        self.uring_stats: dict[str, int] = {
            "setups": 0, "sqes_submitted": 0, "cqes_posted": 0,
            "cq_overflows": 0, "chain_cancellations": 0,
        }
        #: Anonymous-inode numbering for ring fds (dev 0 keeps them
        #: disjoint from every VFS inode).
        self._next_anon_ino = 1

    # ------------------------------------------------------------------
    # Mounts (the testbed's multiple disks)

    def add_mount(self, prefix: str, device: BlockDevice,
                  cache_bytes: int = 64 * 1024 * 1024,
                  dev_no: Optional[int] = None) -> int:
        """Mount ``device`` under ``prefix``; returns its device number.

        Files created under ``prefix`` live on (and do I/O against)
        ``device`` with its own page-cache arena; renames across the
        boundary fail with ``EXDEV``.  The mountpoint directory is
        created if missing.
        """
        if self.vfs.lookup(prefix) is None:
            self.vfs.mkdir(prefix)
        if dev_no is None:
            dev_no = self.vfs.dev + 1 + len(self._io_backends)
        cache = PageCache(self.env, device, capacity_bytes=cache_bytes)
        self.vfs.mount(prefix, dev_no)
        self._io_backends[dev_no] = (device, cache)
        return dev_no

    def _cache_for(self, inode: Inode) -> PageCache:
        backend = self._io_backends.get(inode.dev)
        return backend[1] if backend else self.cache

    def _device_for(self, inode: Inode) -> BlockDevice:
        backend = self._io_backends.get(inode.dev)
        return backend[0] if backend else self.device

    def _device_for_path(self, path: str) -> BlockDevice:
        backend = self._io_backends.get(self.vfs.dev_for_path(path))
        return backend[0] if backend else self.device

    def add_vfs_watcher(self, callback) -> None:
        """Subscribe ``callback(op, path, inode)`` to namespace changes."""
        self._vfs_watchers.append(callback)

    def remove_vfs_watcher(self, callback) -> None:
        """Unsubscribe a previously added watcher."""
        self._vfs_watchers.remove(callback)

    def _notify_watchers(self, op: str, path: str, inode) -> None:
        for callback in self._vfs_watchers:
            callback(op, path, inode)

    # ------------------------------------------------------------------
    # Process management

    def spawn_process(self, name: str) -> KernelProcess:
        """Create a process (and its main thread) named ``name``."""
        return self.processes.spawn_process(name, ncpus=self.ncpus)

    def spawn_thread(self, process: KernelProcess,
                     comm: Optional[str] = None) -> Task:
        """Create an extra thread in ``process`` with thread name ``comm``."""
        return self.processes.spawn_thread(process, comm, ncpus=self.ncpus)

    # ------------------------------------------------------------------
    # Syscall dispatch

    def syscall(self, task: Task, name: str, /, **args: Any):
        """Process generator: execute syscall ``name`` for ``task``.

        Returns the syscall's return value; errors are returned as
        ``-errno`` rather than raised, as the kernel ABI does.
        """
        impl, transfers, on_enter, _ = (self._dispatch.get(name)
                                        or self._resolve(name))
        counts = self.syscall_counts
        counts[name] = counts.get(name, 0) + 1

        env = self.env
        ctx = SyscallContext(name, task, args, enter_ns=env.now)
        if on_enter:
            enter_overhead = overhead_ns(on_enter, ctx)
            if enter_overhead > 0:
                yield enter_overhead

        try:
            retval = yield from impl(task, ctx, **args)
        except KernelError as error:
            retval = -int(error.errno)

        # Data syscalls move the process's /proc-style I/O counters and
        # pay the per-byte user/kernel copy.
        cpu = self.syscall_cpu_ns
        if transfers is not None:
            io = task.process.io
            moved = retval if retval is not None and retval > 0 else 0
            if transfers == "read":
                io.syscr += 1
                io.rchar += moved
            else:
                io.syscw += 1
                io.wchar += moved
            cpu += int(moved * self.copy_ns_per_byte)
        if cpu > 0:
            yield cpu

        ctx.retval = retval
        ctx.exit_ns = env.now
        # Looked up again: a program attached or detached while the
        # call ran decides whether its exit is seen.
        on_exit = (self._dispatch.get(name) or self._resolve(name))[3]
        if on_exit:
            exit_overhead = overhead_ns(on_exit, ctx)
            if exit_overhead > 0:
                yield exit_overhead
        return retval

    _READ_SYSCALLS = frozenset({"read", "pread64", "readv"})

    def _resolve(self, name: str) -> tuple:
        """Look a syscall up once: ``(implementation, transfers,
        enter handlers, exit handlers)``.

        ``transfers`` is ``"read"``/``"write"`` for the six data
        syscalls and ``None`` for everything else; the handler tuples
        are empty when no program is attached.
        """
        if name not in ALL_SYSCALLS:
            raise ValueError(f"unsupported syscall {name!r}")
        transfers = None
        if name in DATA_SYSCALLS:
            transfers = "read" if name in self._READ_SYSCALLS else "write"
        entry = self._dispatch[name] = (getattr(self, f"_sys_{name}"),
                                        transfers,
                                        *self.tracepoints.handlers(name))
        return entry

    # ------------------------------------------------------------------
    # Enrichment helpers

    @staticmethod
    def _note_inode(ctx: SyscallContext, inode: Inode,
                    offset: Optional[int] = None,
                    fd_based: bool = True) -> None:
        """Expose kernel context for the tracer's enrichment."""
        ctx.inode = inode
        ctx.offset = offset
        ctx.fd_based = fd_based

    def _resolve_for_ctx(self, ctx: SyscallContext, path: str,
                         follow: bool = True) -> Inode:
        inode = self.vfs.resolve(path, follow_symlinks=follow)
        self._note_inode(ctx, inode, fd_based=False)
        return inode

    # ------------------------------------------------------------------
    # open / close family

    def _do_open(self, task: Task, ctx: SyscallContext, path: str,
                 flags: int, mode: int):
        created = False
        if flags & O_CREAT:
            if flags & O_EXCL:
                inode = self.vfs.create(path, FileType.REGULAR, exclusive=True)
                created = True
            else:
                existing = self.vfs.lookup(path)
                inode = self.vfs.create(path, FileType.REGULAR)
                created = existing is None
        else:
            inode = self.vfs.resolve(path)
        if flags & O_DIRECTORY and not inode.is_dir:
            raise KernelError(Errno.ENOTDIR, path)
        if inode.is_dir and (flags & O_ACCMODE) != O_RDONLY:
            raise KernelError(Errno.EISDIR, path)
        if flags & O_TRUNC and inode.is_regular and not created:
            inode.truncate(0, self.env.now)
            self._cache_for(inode).drop_inode(inode.ino)

        accmode = flags & O_ACCMODE
        description = OpenFileDescription(
            inode,
            flags,
            readable=accmode in (O_RDONLY, O_RDWR),
            writable=accmode in (O_WRONLY, O_RDWR),
            append=bool(flags & O_APPEND),
            path_hint=path,
        )
        fd = task.fds.install(description)
        self.vfs.inode_opened(inode)
        self._note_inode(ctx, inode, fd_based=True)
        # Creating a dirent costs one metadata write.
        if created:
            self._notify_watchers("create", path, inode)
            yield from self._device_for(inode).write(512)
        return fd

    def _sys_open(self, task, ctx, path: str, flags: int = O_RDONLY,
                  mode: int = 0o644):
        return (yield from self._do_open(task, ctx, path, flags, mode))

    def _sys_openat(self, task, ctx, dirfd: int = AT_FDCWD, path: str = "",
                    flags: int = O_RDONLY, mode: int = 0o644):
        return (yield from self._do_open(task, ctx, path, flags, mode))

    def _sys_creat(self, task, ctx, path: str, mode: int = 0o644):
        return (yield from self._do_open(
            task, ctx, path, O_CREAT | O_WRONLY | O_TRUNC, mode))

    def _sys_close(self, task, ctx, fd: int):
        description = task.fds.remove(fd)
        inode = description.inode
        self._note_inode(ctx, inode, fd_based=True)
        self._urings.pop((task.pid, fd), None)
        self.vfs.inode_closed(inode)
        if inode.nlink == 0 and inode.open_count == 0:
            self._cache_for(inode).drop_inode(inode.ino)
        return 0
        yield  # pragma: no cover - makes this a generator

    # ------------------------------------------------------------------
    # data syscalls

    def _sys_read(self, task, ctx, fd: int, buf: bytearray):
        description = task.fds.get(fd)
        if not description.readable:
            raise KernelError(Errno.EBADF, f"fd {fd} not readable")
        inode = description.inode
        if inode.is_dir:
            raise KernelError(Errno.EISDIR, description.path_hint)
        offset = description.offset
        self._note_inode(ctx, inode, offset=offset)
        data = inode.read_bytes(offset, len(buf))
        yield from self._cache_for(inode).read(inode.ino, offset, len(data))
        buf[:len(data)] = data
        description.offset = offset + len(data)
        return len(data)

    def _sys_pread64(self, task, ctx, fd: int, buf: bytearray, offset: int):
        description = task.fds.get(fd)
        if not description.readable:
            raise KernelError(Errno.EBADF, f"fd {fd} not readable")
        if offset < 0:
            raise KernelError(Errno.EINVAL, f"offset {offset}")
        inode = description.inode
        self._note_inode(ctx, inode, offset=offset)
        data = inode.read_bytes(offset, len(buf))
        yield from self._cache_for(inode).read(inode.ino, offset, len(data))
        buf[:len(data)] = data
        return len(data)

    def _sys_readv(self, task, ctx, fd: int, bufs: list):
        description = task.fds.get(fd)
        if not description.readable:
            raise KernelError(Errno.EBADF, f"fd {fd} not readable")
        inode = description.inode
        offset = description.offset
        self._note_inode(ctx, inode, offset=offset)
        total = 0
        for buf in bufs:
            data = inode.read_bytes(offset + total, len(buf))
            if not data:
                break
            buf[:len(data)] = data
            total += len(data)
            if len(data) < len(buf):
                break
        yield from self._cache_for(inode).read(inode.ino, offset, total)
        description.offset = offset + total
        return total

    def _do_write(self, ctx, description: OpenFileDescription,
                  offset: int, data: bytes):
        inode = description.inode
        self._note_inode(ctx, inode, offset=offset)
        written = inode.write_bytes(offset, data, self.env.now)
        yield from self._cache_for(inode).write(inode.ino, offset, written)
        return written

    def _sys_write(self, task, ctx, fd: int, data: bytes):
        description = task.fds.get(fd)
        if not description.writable:
            raise KernelError(Errno.EBADF, f"fd {fd} not writable")
        offset = description.inode.size if description.append else description.offset
        written = yield from self._do_write(ctx, description, offset, data)
        description.offset = offset + written
        return written

    def _sys_pwrite64(self, task, ctx, fd: int, data: bytes, offset: int):
        description = task.fds.get(fd)
        if not description.writable:
            raise KernelError(Errno.EBADF, f"fd {fd} not writable")
        if offset < 0:
            raise KernelError(Errno.EINVAL, f"offset {offset}")
        return (yield from self._do_write(ctx, description, offset, data))

    def _sys_writev(self, task, ctx, fd: int, datas: list):
        description = task.fds.get(fd)
        if not description.writable:
            raise KernelError(Errno.EBADF, f"fd {fd} not writable")
        payload = b"".join(datas)
        offset = description.inode.size if description.append else description.offset
        written = yield from self._do_write(ctx, description, offset, payload)
        description.offset = offset + written
        return written

    # ------------------------------------------------------------------
    # offsets, sizes, durability

    def _sys_lseek(self, task, ctx, fd: int, offset: int, whence: int = SEEK_SET):
        description = task.fds.get(fd)
        inode = description.inode
        if inode.file_type in (FileType.PIPE, FileType.SOCKET):
            raise KernelError(Errno.ESPIPE, description.path_hint)
        if whence == SEEK_SET:
            new_offset = offset
        elif whence == SEEK_CUR:
            new_offset = description.offset + offset
        elif whence == SEEK_END:
            new_offset = inode.size + offset
        else:
            raise KernelError(Errno.EINVAL, f"whence {whence}")
        if new_offset < 0:
            raise KernelError(Errno.EINVAL, f"offset {new_offset}")
        description.offset = new_offset
        self._note_inode(ctx, inode, offset=new_offset)
        return new_offset
        yield  # pragma: no cover

    def _sys_truncate(self, task, ctx, path: str, length: int):
        inode = self._resolve_for_ctx(ctx, path)
        if inode.is_dir:
            raise KernelError(Errno.EISDIR, path)
        if length < 0:
            raise KernelError(Errno.EINVAL, f"length {length}")
        inode.truncate(length, self.env.now)
        yield from self._device_for(inode).write(512)
        return 0

    def _sys_ftruncate(self, task, ctx, fd: int, length: int):
        description = task.fds.get(fd)
        if not description.writable:
            raise KernelError(Errno.EBADF, f"fd {fd} not writable")
        if length < 0:
            raise KernelError(Errno.EINVAL, f"length {length}")
        inode = description.inode
        self._note_inode(ctx, inode, fd_based=True)
        inode.truncate(length, self.env.now)
        yield from self._device_for(inode).write(512)
        return 0

    def _sys_fsync(self, task, ctx, fd: int):
        description = task.fds.get(fd)
        inode = description.inode
        self._note_inode(ctx, inode, fd_based=True)
        yield from self._cache_for(inode).fsync(inode.ino)
        return 0

    def _sys_fdatasync(self, task, ctx, fd: int):
        return (yield from self._sys_fsync(task, ctx, fd))

    # ------------------------------------------------------------------
    # rename / unlink

    def _do_rename(self, ctx, oldpath: str, newpath: str):
        inode = self.vfs.rename(oldpath, newpath)
        self._note_inode(ctx, inode, fd_based=False)
        self._notify_watchers("rename", newpath, inode)
        yield from self._device_for(inode).write(512)
        return 0

    def _sys_rename(self, task, ctx, oldpath: str, newpath: str):
        return (yield from self._do_rename(ctx, oldpath, newpath))

    def _sys_renameat(self, task, ctx, olddirfd: int = AT_FDCWD,
                      oldpath: str = "", newdirfd: int = AT_FDCWD,
                      newpath: str = ""):
        return (yield from self._do_rename(ctx, oldpath, newpath))

    def _sys_renameat2(self, task, ctx, olddirfd: int = AT_FDCWD,
                       oldpath: str = "", newdirfd: int = AT_FDCWD,
                       newpath: str = "", flags: int = 0):
        return (yield from self._do_rename(ctx, oldpath, newpath))

    def _do_unlink(self, ctx, path: str):
        inode = self.vfs.unlink(path)
        if inode.nlink == 0 and inode.open_count == 0:
            self._cache_for(inode).drop_inode(inode.ino)
        self._notify_watchers("unlink", path, inode)
        yield from self._device_for(inode).write(512)
        return 0

    def _sys_unlink(self, task, ctx, path: str):
        return (yield from self._do_unlink(ctx, path))

    def _sys_unlinkat(self, task, ctx, dirfd: int = AT_FDCWD,
                      path: str = "", flags: int = 0):
        if flags & AT_REMOVEDIR:
            self.vfs.rmdir(path)
            yield from self._device_for_path(path).write(512)
            return 0
        return (yield from self._do_unlink(ctx, path))

    # ------------------------------------------------------------------
    # stat family

    def _fill_statbuf(self, inode: Inode, statbuf: dict) -> None:
        statbuf.update(
            st_dev=inode.dev,
            st_ino=inode.ino,
            st_mode=_FILETYPE_TO_MODE.get(inode.file_type, 0) | 0o644,
            st_nlink=inode.nlink,
            st_size=inode.size,
            st_mtime_ns=inode.mtime_ns,
            st_ctime_ns=inode.ctime_ns,
            st_atime_ns=inode.atime_ns,
            st_file_type=inode.file_type.value,
        )

    def _sys_stat(self, task, ctx, path: str, statbuf: dict):
        inode = self._resolve_for_ctx(ctx, path)
        self._fill_statbuf(inode, statbuf)
        return 0
        yield  # pragma: no cover

    def _sys_lstat(self, task, ctx, path: str, statbuf: dict):
        inode = self._resolve_for_ctx(ctx, path, follow=False)
        self._fill_statbuf(inode, statbuf)
        return 0
        yield  # pragma: no cover

    def _sys_fstat(self, task, ctx, fd: int, statbuf: dict):
        description = task.fds.get(fd)
        inode = description.inode
        self._note_inode(ctx, inode, fd_based=True)
        self._fill_statbuf(inode, statbuf)
        return 0
        yield  # pragma: no cover

    def _sys_fstatat(self, task, ctx, dirfd: int = AT_FDCWD, path: str = "",
                     statbuf: Optional[dict] = None, flags: int = 0):
        follow = not (flags & AT_SYMLINK_NOFOLLOW)
        inode = self._resolve_for_ctx(ctx, path, follow=follow)
        self._fill_statbuf(inode, statbuf if statbuf is not None else {})
        return 0
        yield  # pragma: no cover

    def _sys_fstatfs(self, task, ctx, fd: int, statbuf: dict):
        description = task.fds.get(fd)
        self._note_inode(ctx, description.inode, fd_based=True)
        statbuf.update(
            f_type=0xEF53,  # ext4 magic, for flavour
            f_bsize=4096,
            f_files=self.vfs.inodes_created,
        )
        return 0
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # extended attributes

    def _xattr_get(self, ctx, inode: Inode, name: str, buf: bytearray):
        value = inode.xattrs.get(name)
        if value is None:
            raise KernelError(Errno.ENODATA, name)
        if buf is not None and len(buf) > 0:
            if len(value) > len(buf):
                raise KernelError(Errno.EINVAL, "buffer too small")
            buf[:len(value)] = value
        return len(value)

    def _sys_getxattr(self, task, ctx, path: str, name: str,
                      buf: Optional[bytearray] = None):
        inode = self._resolve_for_ctx(ctx, path)
        return self._xattr_get(ctx, inode, name, buf)
        yield  # pragma: no cover

    def _sys_lgetxattr(self, task, ctx, path: str, name: str,
                       buf: Optional[bytearray] = None):
        inode = self._resolve_for_ctx(ctx, path, follow=False)
        return self._xattr_get(ctx, inode, name, buf)
        yield  # pragma: no cover

    def _sys_fgetxattr(self, task, ctx, fd: int, name: str,
                       buf: Optional[bytearray] = None):
        description = task.fds.get(fd)
        self._note_inode(ctx, description.inode, fd_based=True)
        return self._xattr_get(ctx, description.inode, name, buf)
        yield  # pragma: no cover

    def _xattr_set(self, inode: Inode, name: str, value: bytes) -> None:
        if not name:
            raise KernelError(Errno.EINVAL, "empty xattr name")
        inode.xattrs[name] = bytes(value)
        inode.ctime_ns = self.env.now

    def _sys_setxattr(self, task, ctx, path: str, name: str,
                      value: bytes = b"", flags: int = 0):
        inode = self._resolve_for_ctx(ctx, path)
        self._xattr_set(inode, name, value)
        yield from self._device_for(inode).write(512)
        return 0

    def _sys_lsetxattr(self, task, ctx, path: str, name: str,
                       value: bytes = b"", flags: int = 0):
        inode = self._resolve_for_ctx(ctx, path, follow=False)
        self._xattr_set(inode, name, value)
        yield from self._device_for(inode).write(512)
        return 0

    def _sys_fsetxattr(self, task, ctx, fd: int, name: str,
                       value: bytes = b"", flags: int = 0):
        description = task.fds.get(fd)
        self._note_inode(ctx, description.inode, fd_based=True)
        self._xattr_set(description.inode, name, value)
        yield from self._device_for(description.inode).write(512)
        return 0

    @staticmethod
    def _xattr_list(inode: Inode, buf: Optional[bytearray]):
        listing = b"".join(name.encode() + b"\x00"
                           for name in sorted(inode.xattrs))
        if buf is not None and len(buf) > 0:
            if len(listing) > len(buf):
                raise KernelError(Errno.EINVAL, "buffer too small")
            buf[:len(listing)] = listing
        return len(listing)

    def _sys_listxattr(self, task, ctx, path: str,
                       buf: Optional[bytearray] = None):
        inode = self._resolve_for_ctx(ctx, path)
        return self._xattr_list(inode, buf)
        yield  # pragma: no cover

    def _sys_llistxattr(self, task, ctx, path: str,
                        buf: Optional[bytearray] = None):
        inode = self._resolve_for_ctx(ctx, path, follow=False)
        return self._xattr_list(inode, buf)
        yield  # pragma: no cover

    def _sys_flistxattr(self, task, ctx, fd: int,
                        buf: Optional[bytearray] = None):
        description = task.fds.get(fd)
        self._note_inode(ctx, description.inode, fd_based=True)
        return self._xattr_list(description.inode, buf)
        yield  # pragma: no cover

    def _xattr_remove(self, inode: Inode, name: str) -> None:
        if name not in inode.xattrs:
            raise KernelError(Errno.ENODATA, name)
        del inode.xattrs[name]
        inode.ctime_ns = self.env.now

    def _sys_removexattr(self, task, ctx, path: str, name: str):
        inode = self._resolve_for_ctx(ctx, path)
        self._xattr_remove(inode, name)
        yield from self._device_for(inode).write(512)
        return 0

    def _sys_lremovexattr(self, task, ctx, path: str, name: str):
        inode = self._resolve_for_ctx(ctx, path, follow=False)
        self._xattr_remove(inode, name)
        yield from self._device_for(inode).write(512)
        return 0

    def _sys_fremovexattr(self, task, ctx, fd: int, name: str):
        description = task.fds.get(fd)
        self._note_inode(ctx, description.inode, fd_based=True)
        self._xattr_remove(description.inode, name)
        yield from self._device_for(description.inode).write(512)
        return 0

    # ------------------------------------------------------------------
    # directory management

    def _do_mknod(self, ctx, path: str, mode: int):
        file_type = _MODE_TO_FILETYPE.get(mode & S_IFMT, FileType.REGULAR)
        if file_type is FileType.DIRECTORY:
            raise KernelError(Errno.EINVAL, "mknod cannot create directories")
        inode = self.vfs.create(path, file_type, exclusive=True)
        self._note_inode(ctx, inode, fd_based=False)
        yield from self._device_for(inode).write(512)
        return 0

    def _sys_mknod(self, task, ctx, path: str, mode: int = S_IFREG, dev: int = 0):
        return (yield from self._do_mknod(ctx, path, mode))

    def _sys_mknodat(self, task, ctx, dirfd: int = AT_FDCWD, path: str = "",
                     mode: int = S_IFREG, dev: int = 0):
        return (yield from self._do_mknod(ctx, path, mode))

    def _do_mkdir(self, ctx, path: str):
        inode = self.vfs.mkdir(path)
        self._note_inode(ctx, inode, fd_based=False)
        yield from self._device_for(inode).write(512)
        return 0

    def _sys_mkdir(self, task, ctx, path: str, mode: int = 0o755):
        return (yield from self._do_mkdir(ctx, path))

    def _sys_mkdirat(self, task, ctx, dirfd: int = AT_FDCWD, path: str = "",
                     mode: int = 0o755):
        return (yield from self._do_mkdir(ctx, path))

    def _sys_rmdir(self, task, ctx, path: str):
        self.vfs.rmdir(path)
        yield from self._device_for_path(path).write(512)
        return 0

    # ------------------------------------------------------------------
    # io_uring

    def add_uring_observer(self, callback) -> None:
        """Subscribe ``callback(ctx, sqe, cqe, ring)`` to completions."""
        self._uring_observers.append(callback)

    def remove_uring_observer(self, callback) -> None:
        """Unsubscribe a previously added completion observer."""
        self._uring_observers.remove(callback)

    def uring_for_fd(self, task: Task, fd: int) -> Optional[IoUring]:
        """The ring behind ``fd`` in ``task``'s process, if any."""
        return self._urings.get((task.pid, fd))

    def _sys_io_uring_setup(self, task, ctx, entries: int = 128,
                            cq_entries: Optional[int] = None):
        if entries <= 0 or entries > URING_MAX_ENTRIES:
            raise KernelError(Errno.EINVAL, f"entries {entries}")
        cq_size = cq_entries if cq_entries is not None else 2 * entries
        if cq_size < entries:
            raise KernelError(Errno.EINVAL, f"cq_entries {cq_size}")
        ino = self._next_anon_ino
        self._next_anon_ino += 1
        inode = Inode(ino, 0, FileType.UNKNOWN, 0, self.env.now)
        inode.open_count = 1
        description = OpenFileDescription(
            inode, O_RDWR, readable=True, writable=True, append=False,
            path_hint="anon_inode:[io_uring]")
        fd = task.fds.install(description)
        self._urings[(task.pid, fd)] = IoUring(fd, entries, cq_size)
        self.uring_stats["setups"] += 1
        self._note_inode(ctx, inode, fd_based=True)
        return fd
        yield  # pragma: no cover - makes this a generator

    def _sys_io_uring_register(self, task, ctx, fd: int, opcode: int,
                               arg=None, nr_args: int = 0):
        ring = self._urings.get((task.pid, fd))
        if ring is None:
            raise KernelError(Errno.EBADF, f"fd {fd} is not an io_uring")
        self._note_inode(ctx, task.fds.get(fd).inode, fd_based=True)
        if opcode == IORING_REGISTER_BUFFERS:
            if ring.registered_buffers is not None:
                raise KernelError(Errno.EBUSY, "buffers already registered")
            count = nr_args or len(arg or ())
            if count <= 0:
                raise KernelError(Errno.EINVAL, "no buffers to register")
            ring.registered_buffers = count
        elif opcode == IORING_UNREGISTER_BUFFERS:
            if ring.registered_buffers is None:
                raise KernelError(Errno.ENXIO, "no buffers registered")
            ring.registered_buffers = None
        elif opcode == IORING_REGISTER_FILES:
            if ring.registered_files is not None:
                raise KernelError(Errno.EBUSY, "files already registered")
            fds = list(arg or ())
            if not fds:
                raise KernelError(Errno.EINVAL, "no files to register")
            # Resolving now pins the open file descriptions: fixed-file
            # SQEs keep working even if the app closes the plain fds.
            ring.registered_files = [task.fds.get(n) for n in fds]
        elif opcode == IORING_UNREGISTER_FILES:
            if ring.registered_files is None:
                raise KernelError(Errno.ENXIO, "no files registered")
            ring.registered_files = None
        else:
            raise KernelError(Errno.EINVAL, f"register opcode {opcode}")
        return 0
        yield  # pragma: no cover - makes this a generator

    def _sys_io_uring_enter(self, task, ctx, fd: int, to_submit: int = 0,
                            min_complete: int = 0, flags: int = 0):
        ring = self._urings.get((task.pid, fd))
        if ring is None:
            raise KernelError(Errno.EBADF, f"fd {fd} is not an io_uring")
        self._note_inode(ctx, task.fds.get(fd).inode, fd_based=True)
        submitted = 0
        if to_submit > 0 and ring.sq:
            batch = ring.sq[:to_submit]
            del ring.sq[:len(batch)]
            submitted = len(batch)
            ring.submitted += submitted
            ring.inflight += submitted
            self.uring_stats["sqes_submitted"] += submitted
            chain: list[SQE] = []
            for sqe in batch:
                # The doorbell drains serially: each SQE gets its own
                # submission timestamp (distinct per task, which the
                # pipeline's exactly-once event key relies on).
                yield URING_SQE_SUBMIT_NS
                sqe.submit_ns = self.env.now
                chain.append(sqe)
                if not sqe.flags & IOSQE_IO_LINK:
                    self.env.process(self._uring_dispatch(task, ring, chain))
                    chain = []
            if chain:  # trailing IO_LINK flag: still one chain
                self.env.process(self._uring_dispatch(task, ring, chain))
        if flags & IORING_ENTER_GETEVENTS and min_complete > 0:
            # Wait for completions, but never for more than can still
            # arrive (CQ-overflowed completions are gone for good).
            while len(ring.cq) < min_complete and ring.inflight > 0:
                waiter = self.env.event()
                ring.waiters.append(waiter)
                yield waiter
        return submitted

    def _uring_args(self, sqe: SQE) -> dict:
        """Event args for one SQE, shaped like the classic syscall's."""
        if sqe.opcode == URING_OP_WRITE:
            return {"fd": sqe.fd, "data": sqe.payload or b"",
                    "offset": sqe.offset}
        if sqe.opcode == URING_OP_READ:
            return {"fd": sqe.fd, "nbytes": sqe.nbytes,
                    "offset": sqe.offset}
        return {"fd": sqe.fd}

    def _uring_dispatch(self, task: Task, ring: IoUring, chain: list):
        """Process: execute one linked chain of SQEs sequentially.

        Independent chains run as independent processes, so their
        completions interleave by device timing — the reordering the
        DST corpus scenario pins down.  A mid-chain error cancels the
        remainder of the chain with ``-ECANCELED``.
        """
        failed = False
        for sqe in chain:
            ctx = SyscallContext(URING_OP_EVENTS[sqe.opcode], task,
                                 self._uring_args(sqe),
                                 enter_ns=sqe.submit_ns)
            if failed:
                self.uring_stats["chain_cancellations"] += 1
                res = -int(Errno.ECANCELED)
            else:
                res = yield from self._uring_execute(task, ring, sqe, ctx)
                if res < 0:
                    failed = True
            ctx.retval = res
            ctx.exit_ns = self.env.now
            self._uring_complete(task, ring, sqe, ctx, res)

    def _uring_execute(self, task: Task, ring: IoUring, sqe: SQE,
                       ctx: SyscallContext):
        """Dispatch one SQE through the VFS/page-cache/device layers."""
        try:
            if sqe.flags & IOSQE_FIXED_FILE:
                table = ring.registered_files
                if table is None or not 0 <= sqe.fd < len(table):
                    raise KernelError(Errno.EBADF,
                                      f"fixed file index {sqe.fd}")
                description = table[sqe.fd]
            else:
                description = task.fds.get(sqe.fd)
            if (sqe.buf_index is not None
                    and (ring.registered_buffers is None
                         or not 0 <= sqe.buf_index
                         < ring.registered_buffers)):
                raise KernelError(Errno.EINVAL,
                                  f"buffer index {sqe.buf_index}")
            inode = description.inode
            io = task.process.io
            if sqe.opcode == URING_OP_READ:
                if not description.readable:
                    raise KernelError(Errno.EBADF, "not readable")
                self._note_inode(ctx, inode, offset=sqe.offset)
                data = inode.read_bytes(sqe.offset, sqe.nbytes)
                yield from self._cache_for(inode).read(inode.ino,
                                                       sqe.offset,
                                                       len(data))
                io.rchar += len(data)
                return len(data)
            if sqe.opcode == URING_OP_WRITE:
                if not description.writable:
                    raise KernelError(Errno.EBADF, "not writable")
                self._note_inode(ctx, inode, offset=sqe.offset)
                written = inode.write_bytes(sqe.offset, sqe.payload or b"",
                                            self.env.now)
                yield from self._cache_for(inode).write(inode.ino,
                                                        sqe.offset, written)
                io.wchar += written
                return written
            if sqe.opcode == URING_OP_FSYNC:
                self._note_inode(ctx, inode)
                yield from self._cache_for(inode).fsync(inode.ino)
                return 0
            raise KernelError(Errno.EINVAL, f"opcode {sqe.opcode!r}")
        except KernelError as error:
            return -int(error.errno)

    def _uring_complete(self, task: Task, ring: IoUring, sqe: SQE,
                        ctx: SyscallContext, res: int) -> None:
        """Post the CQE, fire ring observers, wake GETEVENTS waiters."""
        ring.inflight -= 1
        ring.completed += 1
        self.uring_stats["cqes_posted"] += 1
        cqe = CQE(sqe.user_data, res)
        if len(ring.cq) >= ring.cq_entries:
            # Lost to the application (pre-5.5 overflow semantics) —
            # but a kernel-side observer still sees the completion.
            ring.cq_overflow += 1
            self.uring_stats["cq_overflows"] += 1
        else:
            ring.cq.append(cqe)
        for callback in self._uring_observers:
            callback(ctx, sqe, cqe, ring)
        if ring.waiters:
            waiters, ring.waiters = ring.waiters, []
            for waiter in waiters:
                waiter.succeed()
