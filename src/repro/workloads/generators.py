"""The workload generator implementations.

Every function returns a *process generator*: drive it with
``env.process(...)`` or ``yield from`` it inside another process.
All randomness comes from caller-provided ``numpy`` generators, so
workloads stay deterministic under seeding.
"""

from __future__ import annotations

from repro.kernel import Kernel, O_APPEND, O_CREAT, O_RDWR, O_WRONLY
from repro.kernel.process import Task


def small_appender(kernel: Kernel, task: Task, path: str,
                   appends: int, record_bytes: int = 80,
                   fsync_each: bool = False):
    """The costly pattern: many tiny appends (a log writer)."""
    fd = yield from kernel.syscall(task, "open", path=path,
                                   flags=O_CREAT | O_WRONLY | O_APPEND)
    if fd < 0:
        raise RuntimeError(f"cannot open {path}: {fd}")
    for _ in range(appends):
        yield from kernel.syscall(task, "write", fd=fd,
                                  data=b"\x2e" * record_bytes)
        if fsync_each:
            yield from kernel.syscall(task, "fsync", fd=fd)
    yield from kernel.syscall(task, "close", fd=fd)
    return appends * record_bytes


def metadata_storm(kernel: Kernel, task: Task, directory: str,
                   files: int, stats_per_file: int = 4):
    """Create/stat/rename/unlink churn with no data I/O."""
    yield from kernel.syscall(task, "mkdir", path=directory)
    for index in range(files):
        path = f"{directory}/f{index:05d}"
        yield from kernel.syscall(task, "creat", path=path)
        statbuf: dict = {}
        for _ in range(stats_per_file):
            yield from kernel.syscall(task, "stat", path=path,
                                      statbuf=statbuf)
        yield from kernel.syscall(task, "rename", oldpath=path,
                                  newpath=path + ".done")
        yield from kernel.syscall(task, "unlink", path=path + ".done")
    return files


def mixed_rw(kernel: Kernel, task: Task, path: str, rng,
             operations: int, read_fraction: float = 0.5,
             request_bytes: int = 4096, file_bytes: int = 1024 * 1024):
    """A read/update mix over one file (a miniature YCSB-A)."""
    if not 0 <= read_fraction <= 1:
        raise ValueError(f"read_fraction out of range: {read_fraction}")
    fd = yield from kernel.syscall(task, "open", path=path,
                                   flags=O_CREAT | O_RDWR)
    if fd < 0:
        raise RuntimeError(f"cannot open {path}: {fd}")
    yield from kernel.syscall(task, "pwrite64", fd=fd,
                              data=b"\x00" * request_bytes,
                              offset=file_bytes - request_bytes)
    span = max(file_bytes - request_bytes, 1)
    reads = writes = 0
    for _ in range(operations):
        offset = int(rng.integers(0, span))
        if rng.random() < read_fraction:
            buf = bytearray(request_bytes)
            yield from kernel.syscall(task, "pread64", fd=fd, buf=buf,
                                      offset=offset)
            reads += 1
        else:
            yield from kernel.syscall(task, "pwrite64", fd=fd,
                                      data=b"\x01" * request_bytes,
                                      offset=offset)
            writes += 1
    yield from kernel.syscall(task, "close", fd=fd)
    return reads, writes
