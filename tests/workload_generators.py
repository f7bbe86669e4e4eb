"""Workload generators the tracer property tests drive.

A sequential writer, a sequential reader and a random reader: process
generators over a :class:`~repro.kernel.Kernel` and a
:class:`~repro.kernel.process.Task`, like those of
:mod:`repro.workloads`, kept here because only tests compose them.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel import Kernel, O_CREAT, O_RDONLY, O_WRONLY
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
