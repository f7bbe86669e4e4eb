"""The workload generator implementations.

Every function returns a *process generator*: drive it with
``env.process(...)`` or ``yield from`` it inside another process.
All randomness comes from caller-provided ``numpy`` generators, so
workloads stay deterministic under seeding.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel import (Kernel, O_APPEND, O_CREAT, O_RDONLY, O_RDWR,
                          O_WRONLY, SEEK_SET)
from repro.kernel.process import Task


def sequential_writer(kernel: Kernel, task: Task, path: str,
                      total_bytes: int, chunk_bytes: int = 64 * 1024,
                      fsync_every: Optional[int] = None):
    """Write ``total_bytes`` sequentially in ``chunk_bytes`` requests.

    ``fsync_every`` issues an fsync after every N chunks (``None`` =
    only at the end).
    """
    if total_bytes < 0 or chunk_bytes <= 0:
        raise ValueError("sizes must be positive")
    fd = yield from kernel.syscall(task, "open", path=path,
                                   flags=O_CREAT | O_WRONLY)
    if fd < 0:
        raise RuntimeError(f"cannot create {path}: {fd}")
    written = 0
    chunks = 0
    while written < total_bytes:
        chunk = min(chunk_bytes, total_bytes - written)
        yield from kernel.syscall(task, "write", fd=fd, data=b"\x00" * chunk)
        written += chunk
        chunks += 1
        if fsync_every and chunks % fsync_every == 0:
            yield from kernel.syscall(task, "fsync", fd=fd)
    yield from kernel.syscall(task, "fsync", fd=fd)
    yield from kernel.syscall(task, "close", fd=fd)
    return written


def sequential_reader(kernel: Kernel, task: Task, path: str,
                      chunk_bytes: int = 64 * 1024):
    """Stream a file start-to-end; returns total bytes read."""
    fd = yield from kernel.syscall(task, "open", path=path, flags=O_RDONLY)
    if fd < 0:
        raise RuntimeError(f"cannot open {path}: {fd}")
    total = 0
    while True:
        buf = bytearray(chunk_bytes)
        n = yield from kernel.syscall(task, "read", fd=fd, buf=buf)
        if n <= 0:
            break
        total += n
    yield from kernel.syscall(task, "close", fd=fd)
    return total


def random_reader(kernel: Kernel, task: Task, path: str, rng,
                  requests: int, request_bytes: int = 4096):
    """Issue ``requests`` preads at uniformly random offsets."""
    fd = yield from kernel.syscall(task, "open", path=path, flags=O_RDONLY)
    if fd < 0:
        raise RuntimeError(f"cannot open {path}: {fd}")
    statbuf: dict = {}
    yield from kernel.syscall(task, "fstat", fd=fd, statbuf=statbuf)
    span = max(statbuf["st_size"] - request_bytes, 1)
    total = 0
    for _ in range(requests):
        offset = int(rng.integers(0, span))
        buf = bytearray(request_bytes)
        n = yield from kernel.syscall(task, "pread64", fd=fd, buf=buf,
                                      offset=offset)
        total += max(n, 0)
    yield from kernel.syscall(task, "close", fd=fd)
    return total


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


def bursty_writer(kernel: Kernel, task: Task, path: str,
                  bursts: int, writes_per_burst: int,
                  write_bytes: int = 512, gap_ns: int = 10_000_000):
    """Writes arriving in bursts separated by idle gaps.

    The canonical producer for ring-buffer overflow studies: during a
    burst the tracer's consumer falls behind; during the gap it drains.
    """
    fd = yield from kernel.syscall(task, "open", path=path,
                                   flags=O_CREAT | O_WRONLY)
    if fd < 0:
        raise RuntimeError(f"cannot open {path}: {fd}")
    for burst in range(bursts):
        for _ in range(writes_per_burst):
            yield from kernel.syscall(task, "write", fd=fd,
                                      data=b"\x00" * write_bytes)
        if burst != bursts - 1:
            yield gap_ns
    yield from kernel.syscall(task, "close", fd=fd)
    return bursts * writes_per_burst


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
