"""POSIX error numbers and the kernel-internal error exception.

Syscall implementations raise :class:`KernelError`; the syscall
dispatcher converts it to the conventional negative return value
(``-errno``) that the tracing layer records, mirroring what an eBPF
program sees at ``sys_exit``.
"""

from __future__ import annotations

import enum


class Errno(enum.IntEnum):
    """The subset of Linux errno values the simulated kernel uses."""

    EPERM = 1
    ENOENT = 2
    EINTR = 4
    EIO = 5
    ENXIO = 6
    EBADF = 9
    ENOMEM = 12
    EACCES = 13
    EBUSY = 16
    EEXIST = 17
    EXDEV = 18
    ENODEV = 19
    ENOTDIR = 20
    EISDIR = 21
    EINVAL = 22
    ENFILE = 23
    EMFILE = 24
    ENOSPC = 28
    ESPIPE = 29
    EROFS = 30
    ENAMETOOLONG = 36
    ENOTEMPTY = 39
    ELOOP = 40
    ENODATA = 61
    EOPNOTSUPP = 95
    ECANCELED = 125


class KernelError(Exception):
    """An errno-carrying failure inside a syscall implementation."""

    def __init__(self, errno: Errno, message: str = ""):
        self.errno = Errno(errno)
        super().__init__(message or self.errno.name)
