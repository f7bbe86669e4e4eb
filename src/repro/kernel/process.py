"""Processes, threads, and file-descriptor tables.

A :class:`KernelProcess` owns a PID and a file-descriptor table shared
by its :class:`Task` threads (each with its own TID and ``comm`` name),
matching the Linux model that DIO's PID/TID/process-name enrichment
reports on.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.errno import Errno, KernelError
from repro.kernel.inode import Inode

#: Default per-process fd limit (RLIMIT_NOFILE style).
DEFAULT_MAX_FDS = 1024


class OpenFileDescription:
    """A kernel open-file description: inode + offset + flags.

    Shared by fds duplicated with ``dup``; the file *offset* lives here,
    which is exactly the state DIO's offset enrichment exposes.
    """

    __slots__ = ("inode", "offset", "flags", "readable", "writable", "append", "path_hint")

    def __init__(self, inode: Inode, flags: int, readable: bool,
                 writable: bool, append: bool, path_hint: str):
        self.inode = inode
        self.offset = 0
        self.flags = flags
        self.readable = readable
        self.writable = writable
        self.append = append
        #: The path used at open time; kept for diagnostics only (the
        #: tracer never reads it for fd-based syscalls — it uses file
        #: tags, as the real DIO does).
        self.path_hint = path_hint


class FileDescriptorTable:
    """Per-process mapping of small integers to open file descriptions."""

    def __init__(self, max_fds: int = DEFAULT_MAX_FDS):
        self.max_fds = max_fds
        self._table: dict[int, OpenFileDescription] = {}
        self._next_hint = 3  # 0-2 are stdio, never handed out here.

    def install(self, description: OpenFileDescription) -> int:
        """Assign the lowest free fd >= 3 to ``description``."""
        fd = 3
        while fd in self._table:
            fd += 1
        if fd >= self.max_fds:
            raise KernelError(Errno.EMFILE, "file descriptor table full")
        self._table[fd] = description
        return fd

    def get(self, fd: int) -> OpenFileDescription:
        """Look up ``fd`` or raise ``EBADF``."""
        description = self._table.get(fd)
        if description is None:
            raise KernelError(Errno.EBADF, f"fd {fd}")
        return description

    def remove(self, fd: int) -> OpenFileDescription:
        """Remove ``fd`` or raise ``EBADF``."""
        description = self._table.pop(fd, None)
        if description is None:
            raise KernelError(Errno.EBADF, f"fd {fd}")
        return description


class Task:
    """A thread of execution: the unit syscalls are attributed to."""

    __slots__ = ("tid", "process", "comm", "cpu")

    def __init__(self, tid: int, process: "KernelProcess", comm: str, cpu: int = 0):
        self.tid = tid
        self.process = process
        #: Thread name as reported by the kernel's ``comm`` field; this
        #: is what distinguishes ``db_bench`` from ``rocksdb:low3`` in
        #: the paper's Fig. 4.
        self.comm = comm
        #: The CPU this task is pinned to, selecting the per-CPU ring
        #: buffer its trace events land in.
        self.cpu = cpu

    @property
    def pid(self) -> int:
        """Owning process id (TGID in Linux terms)."""
        return self.process.pid

    @property
    def fds(self) -> FileDescriptorTable:
        """The fd table shared across the process's threads."""
        return self.process.fds


class IOAccounting:
    """Per-process I/O counters, mirroring ``/proc/<pid>/io``."""

    __slots__ = ("rchar", "wchar", "syscr", "syscw")

    def __init__(self) -> None:
        #: Bytes returned by read-family syscalls.
        self.rchar = 0
        #: Bytes accepted by write-family syscalls.
        self.wchar = 0
        #: Read-family syscall invocations.
        self.syscr = 0
        #: Write-family syscall invocations.
        self.syscw = 0


class KernelProcess:
    """A process: PID, name, threads, and a shared fd table."""

    def __init__(self, pid: int, name: str, max_fds: int = DEFAULT_MAX_FDS):
        self.pid = pid
        self.name = name
        self.fds = FileDescriptorTable(max_fds)
        self.threads: list[Task] = []
        self.io = IOAccounting()


class ProcessTable:
    """Allocates PIDs/TIDs and tracks live processes."""

    def __init__(self, first_pid: int = 1000):
        self._next_id = first_pid
        self.processes: dict[int, KernelProcess] = {}
        self.tasks: dict[int, Task] = {}

    def _allocate_id(self) -> int:
        value = self._next_id
        self._next_id += 1
        return value

    def spawn_process(self, name: str, ncpus: int = 1,
                      max_fds: int = DEFAULT_MAX_FDS) -> KernelProcess:
        """Create a process with one main thread named after it."""
        pid = self._allocate_id()
        process = KernelProcess(pid, name, max_fds)
        self.processes[pid] = process
        main = Task(pid, process, name, cpu=pid % ncpus)
        process.threads.append(main)
        self.tasks[main.tid] = main
        return process

    def spawn_thread(self, process: KernelProcess, comm: Optional[str] = None,
                     ncpus: int = 1) -> Task:
        """Add a thread to ``process``; ``comm`` defaults to its name."""
        tid = self._allocate_id()
        task = Task(tid, process, comm or process.name, cpu=tid % ncpus)
        process.threads.append(task)
        self.tasks[tid] = task
        return task
