"""The op encoding: what a scenario's programs say and how they run.

A program is a list of compact ops, ``{"sc": <syscall>, "d":
<delay_ns>, ...}``; the extra keys are ``p``/``p2`` (path-pool
indexes), ``f`` (an index into the process's currently-open fds, modulo
how many are open), ``n`` (byte count or length), ``o`` (offset), ``w``
(lseek whence), ``k`` (iovec segment count), ``x`` (xattr-name pool
index), ``fl`` (open flags), plus the io_uring worker's ``e``, ``u``,
``ln`` and ``ro`` (:func:`ops_uring_worker`).  The builders that emit
the codes and the interpreter a simulated process runs
(:func:`run_ops`) both live here; no other module knows the encoding.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.kernel.syscalls import (AT_FDCWD, IORING_ENTER_GETEVENTS, O_APPEND,
                                   O_CREAT, O_RDONLY, O_RDWR, O_TRUNC,
                                   O_WRONLY, SYSCALLS)
from repro.kernel.uring import IOSQE_IO_LINK, SQE

#: Shared path pool every scenario draws from.  Index 3 is non-ASCII on
#: purpose: unicode paths must survive the ring buffer, the JSON wire
#: format, the WAL, and the correlator byte-identically.
PATH_POOL = (
    "/data/f0",
    "/data/f1",
    "/data/f2",
    "/data/журнал-日誌.log",
    "/logs/app.log",
    "/logs/audit",
    "/scratch/tmp0",
    "/scratch/tmp1",
)

#: Directories referenced by mkdir/rmdir ops (distinct from PATH_POOL
#: so removing a directory never orphans a data file mid-scenario).
DIR_POOL = ("/data/sub0", "/data/sub1", "/scratch/d0", "/scratch/d1")

#: xattr names (one non-ASCII, same reasoning as PATH_POOL).
XATTR_POOL = ("user.tag", "user.owner", "user.métadonnée")

_OPEN_FLAG_CHOICES = (
    O_CREAT | O_WRONLY,
    O_CREAT | O_RDWR,
    O_RDONLY,
    O_CREAT | O_WRONLY | O_APPEND,
    O_CREAT | O_WRONLY | O_TRUNC,
    O_RDWR,
)

#: Syscalls the "mixed" model may draw beyond the model-specific ones.
_MIXED_SYSCALLS = tuple(sorted(SYSCALLS))


def _delay(rng: random.Random) -> int:
    """Inter-op virtual delay; spread so fault windows interleave."""
    return rng.randrange(0, 400_000)


def _ops_sequential_writer(rng: random.Random, n: int) -> list:
    path = rng.randrange(len(PATH_POOL))
    ops = [{"sc": "open", "p": path, "fl": O_CREAT | O_WRONLY,
            "d": _delay(rng)}]
    for _ in range(n):
        ops.append({"sc": "write", "f": 0, "n": rng.choice((64, 512, 4096)),
                    "d": _delay(rng)})
        if rng.random() < 0.15:
            ops.append({"sc": rng.choice(("fsync", "fdatasync")), "f": 0,
                        "d": _delay(rng)})
    ops.append({"sc": "close", "f": 0, "d": _delay(rng)})
    return ops


def _ops_appender(rng: random.Random, n: int) -> list:
    path = rng.randrange(len(PATH_POOL))
    ops = [{"sc": "open", "p": path, "fl": O_CREAT | O_WRONLY | O_APPEND,
            "d": _delay(rng)}]
    for _ in range(n):
        ops.append({"sc": "write", "f": 0, "n": rng.choice((80, 200)),
                    "d": _delay(rng)})
    ops.append({"sc": "fstat", "f": 0, "d": _delay(rng)})
    ops.append({"sc": "close", "f": 0, "d": _delay(rng)})
    return ops


def _ops_reader(rng: random.Random, n: int) -> list:
    path = rng.randrange(len(PATH_POOL))
    ops = [{"sc": "openat", "p": path, "fl": O_RDONLY, "d": _delay(rng)}]
    for _ in range(n):
        ops.append({"sc": rng.choice(("read", "read", "readv")), "f": 0,
                    "n": rng.choice((128, 1024)), "k": rng.randrange(1, 4),
                    "d": _delay(rng)})
    ops.append({"sc": "close", "f": 0, "d": _delay(rng)})
    return ops


def _ops_random_rw(rng: random.Random, n: int) -> list:
    path = rng.randrange(len(PATH_POOL))
    ops = [{"sc": "open", "p": path, "fl": O_CREAT | O_RDWR,
            "d": _delay(rng)}]
    for _ in range(n):
        op = rng.choice(("pwrite64", "pread64", "writev", "lseek"))
        entry = {"sc": op, "f": 0, "d": _delay(rng)}
        if op in ("pwrite64", "pread64"):
            entry["n"] = rng.choice((64, 256, 1024))
            entry["o"] = rng.randrange(0, 1 << 16)
        elif op == "writev":
            entry["n"] = 128
            entry["k"] = rng.randrange(1, 4)
        else:
            entry["o"] = rng.randrange(0, 1 << 14)
            entry["w"] = rng.choice((0, 1, 2))
        ops.append(entry)
    if rng.random() < 0.5:
        ops.append({"sc": "ftruncate", "f": 0,
                    "n": rng.randrange(0, 4096), "d": _delay(rng)})
    ops.append({"sc": "close", "f": 0, "d": _delay(rng)})
    return ops


def _ops_metadata_storm(rng: random.Random, n: int) -> list:
    ops = []
    for _ in range(n):
        op = rng.choice(("stat", "lstat", "fstatat", "mkdir", "mkdirat",
                         "rmdir", "mknod", "mknodat", "rename", "renameat",
                         "renameat2", "unlink", "unlinkat", "truncate",
                         "creat", "close"))
        entry = {"sc": op, "d": _delay(rng)}
        if op in ("mkdir", "mkdirat", "rmdir"):
            entry["p"] = rng.randrange(len(DIR_POOL))
        elif op in ("rename", "renameat", "renameat2"):
            entry["p"] = rng.randrange(len(PATH_POOL))
            entry["p2"] = rng.randrange(len(PATH_POOL))
        elif op == "close":
            entry["f"] = 0
        else:
            entry["p"] = rng.randrange(len(PATH_POOL))
            if op == "truncate":
                entry["n"] = rng.randrange(0, 2048)
        ops.append(entry)
    return ops


def _ops_xattr_worker(rng: random.Random, n: int) -> list:
    path = rng.randrange(len(PATH_POOL))
    ops = [{"sc": "open", "p": path, "fl": O_CREAT | O_RDWR,
            "d": _delay(rng)}]
    for _ in range(n):
        op = rng.choice(("setxattr", "lsetxattr", "fsetxattr",
                         "getxattr", "lgetxattr", "fgetxattr",
                         "listxattr", "llistxattr", "flistxattr",
                         "removexattr", "lremovexattr", "fremovexattr"))
        entry = {"sc": op, "d": _delay(rng),
                 "x": rng.randrange(len(XATTR_POOL))}
        if op.startswith("f"):
            entry["f"] = 0
        else:
            entry["p"] = path
        if "set" in op:
            entry["n"] = rng.randrange(1, 64)
        ops.append(entry)
    ops.append({"sc": "close", "f": 0, "d": _delay(rng)})
    return ops


def _ops_mixed(rng: random.Random, n: int) -> list:
    """Uniform draw over the full 42-syscall surface."""
    ops = [{"sc": "open", "p": rng.randrange(len(PATH_POOL)),
            "fl": rng.choice(_OPEN_FLAG_CHOICES), "d": _delay(rng)}]
    for _ in range(n):
        name = rng.choice(_MIXED_SYSCALLS)
        entry = {"sc": name, "d": _delay(rng)}
        if name in ("open", "openat", "creat"):
            entry["p"] = rng.randrange(len(PATH_POOL))
            entry["fl"] = rng.choice(_OPEN_FLAG_CHOICES)
        elif name in ("mkdir", "mkdirat", "rmdir"):
            entry["p"] = rng.randrange(len(DIR_POOL))
        elif name in ("rename", "renameat", "renameat2"):
            entry["p"] = rng.randrange(len(PATH_POOL))
            entry["p2"] = rng.randrange(len(PATH_POOL))
        elif name in ("mknod", "mknodat", "unlink", "unlinkat",
                      "stat", "lstat", "fstatat", "truncate",
                      "getxattr", "lgetxattr", "setxattr", "lsetxattr",
                      "listxattr", "llistxattr", "removexattr",
                      "lremovexattr"):
            entry["p"] = rng.randrange(len(PATH_POOL))
            entry["x"] = rng.randrange(len(XATTR_POOL))
            entry["n"] = rng.randrange(0, 512)
        else:
            # fd-based: read/write family, lseek, ftruncate, fsync,
            # fdatasync, fstat, fstatfs, close, f*xattr.
            entry["f"] = rng.randrange(0, 4)
            entry["n"] = rng.choice((32, 256, 2048))
            entry["o"] = rng.randrange(0, 1 << 14)
            entry["w"] = rng.choice((0, 1, 2))
            entry["k"] = rng.randrange(1, 4)
            entry["x"] = rng.randrange(len(XATTR_POOL))
        ops.append(entry)
    ops.append({"sc": "close", "f": 0, "d": _delay(rng)})
    return ops


def ops_uring_worker(rng: random.Random, n: int) -> list:
    """Batched io_uring submitter: prep SQEs app-side, ring a doorbell.

    Op codes beyond the classic set (:func:`_run_uring_op` runs them):
    ``io_uring_setup`` (``e`` = SQ entries), ``uring_prep`` (``u`` =
    SQE opcode, ``ln`` = link-to-next flag; no syscall), and
    ``io_uring_enter``/``io_uring_register`` (``ro`` = register
    opcode).  Ops on a ring-less process are deterministic skips, so
    the shrinker can delete the setup op without breaking replay.
    """
    path = rng.randrange(len(PATH_POOL))
    ops = [{"sc": "open", "p": path, "fl": O_CREAT | O_RDWR,
            "d": _delay(rng)},
           {"sc": "io_uring_setup", "e": rng.choice((8, 16, 32)),
            "d": _delay(rng)}]
    if rng.random() < 0.4:
        ops.append({"sc": "io_uring_register", "ro": 0,
                    "n": rng.randrange(1, 5), "d": _delay(rng)})
    for _ in range(n):
        batch = rng.randrange(1, 5)
        for i in range(batch):
            u = rng.choice(("write", "write", "read", "fsync"))
            ops.append({"sc": "uring_prep", "u": u, "f": 0,
                        "n": rng.choice((64, 512, 2048)),
                        "o": rng.randrange(0, 1 << 14),
                        "ln": 1 if (i < batch - 1
                                    and rng.random() < 0.25) else 0,
                        "d": _delay(rng)})
        ops.append({"sc": "io_uring_enter", "d": _delay(rng)})
    ops.append({"sc": "close", "f": 0, "d": _delay(rng)})
    return ops


#: App models the generator mixes; each builder returns a list of ops.
MODEL_BUILDERS = {
    "sequential_writer": _ops_sequential_writer,
    "appender": _ops_appender,
    "reader": _ops_reader,
    "random_rw": _ops_random_rw,
    "metadata_storm": _ops_metadata_storm,
    "xattr_worker": _ops_xattr_worker,
    "mixed": _ops_mixed,
}
APP_MODELS = tuple(MODEL_BUILDERS)


# ----------------------------------------------------------------------
# Op interpretation

class _ProcState:
    """Mutable per-process interpreter state (the open-fd registers)."""

    __slots__ = ("fds", "ring_fd")

    def __init__(self) -> None:
        self.fds: list[int] = []
        #: The process's io_uring fd, once ``io_uring_setup`` ran.
        self.ring_fd: Optional[int] = None

    def pick(self, slot: int) -> Optional[int]:
        if not self.fds:
            return None
        return self.fds[slot % len(self.fds)]


def _resolve_op(op: dict, state: _ProcState):
    """Translate one compact op into ``(syscall, kwargs)``.

    Returns ``(None, None)`` when the op cannot apply (fd-based op with
    no fd open) — a deterministic skip, not an error.
    """
    name = op["sc"]
    path = PATH_POOL[op.get("p", 0) % len(PATH_POOL)]
    path2 = PATH_POOL[op.get("p2", 0) % len(PATH_POOL)]
    dirpath = DIR_POOL[op.get("p", 0) % len(DIR_POOL)]
    xname = XATTR_POOL[op.get("x", 0) % len(XATTR_POOL)]
    n = max(1, op.get("n", 64))
    offset = op.get("o", 0)

    if name in ("open", "openat"):
        kwargs = {"path": path, "flags": op.get("fl", O_RDONLY)}
        if name == "openat":
            kwargs["dirfd"] = AT_FDCWD
        return name, kwargs
    if name == "creat":
        return name, {"path": path}
    if name in ("stat", "lstat"):
        return name, {"path": path, "statbuf": {}}
    if name == "fstatat":
        return name, {"dirfd": AT_FDCWD, "path": path, "statbuf": {}}
    if name == "truncate":
        return name, {"path": path, "length": op.get("n", 0)}
    if name in ("rename", "renameat", "renameat2"):
        if path == path2:
            return None, None
        if name == "rename":
            return name, {"oldpath": path, "newpath": path2}
        return name, {"olddirfd": AT_FDCWD, "oldpath": path,
                      "newdirfd": AT_FDCWD, "newpath": path2}
    if name == "unlink":
        return name, {"path": path}
    if name == "unlinkat":
        return name, {"dirfd": AT_FDCWD, "path": path, "flags": 0}
    if name in ("mkdir", "rmdir"):
        return name, {"path": dirpath}
    if name == "mkdirat":
        return name, {"dirfd": AT_FDCWD, "path": dirpath}
    if name == "mknod":
        return name, {"path": path}
    if name == "mknodat":
        return name, {"dirfd": AT_FDCWD, "path": path}
    if name in ("getxattr", "lgetxattr"):
        return name, {"path": path, "name": xname, "buf": bytearray(256)}
    if name in ("setxattr", "lsetxattr"):
        return name, {"path": path, "name": xname, "value": b"v" * n}
    if name in ("listxattr", "llistxattr"):
        return name, {"path": path, "buf": bytearray(1024)}
    if name in ("removexattr", "lremovexattr"):
        return name, {"path": path, "name": xname}

    # Everything else needs an open fd.
    fd = state.pick(op.get("f", 0))
    if fd is None:
        return None, None
    if name == "close":
        return name, {"fd": fd}
    if name == "read":
        return name, {"fd": fd, "buf": bytearray(n)}
    if name == "pread64":
        return name, {"fd": fd, "buf": bytearray(n), "offset": offset}
    if name == "readv":
        k = max(1, op.get("k", 2))
        return name, {"fd": fd, "bufs": [bytearray(n) for _ in range(k)]}
    if name == "write":
        return name, {"fd": fd, "data": b"w" * n}
    if name == "pwrite64":
        return name, {"fd": fd, "data": b"w" * n, "offset": offset}
    if name == "writev":
        k = max(1, op.get("k", 2))
        return name, {"fd": fd, "datas": [b"w" * n for _ in range(k)]}
    if name == "lseek":
        return name, {"fd": fd, "offset": offset, "whence": op.get("w", 0)}
    if name == "ftruncate":
        return name, {"fd": fd, "length": op.get("n", 0)}
    if name in ("fsync", "fdatasync"):
        return name, {"fd": fd}
    if name in ("fstat", "fstatfs"):
        return name, {"fd": fd, "statbuf": {}}
    if name == "fgetxattr":
        return name, {"fd": fd, "name": xname, "buf": bytearray(256)}
    if name == "fsetxattr":
        return name, {"fd": fd, "name": xname, "value": b"v" * n}
    if name == "flistxattr":
        return name, {"fd": fd, "buf": bytearray(1024)}
    if name == "fremovexattr":
        return name, {"fd": fd, "name": xname}
    raise ValueError(f"op interpreter cannot resolve syscall {name!r}")


#: Ops the io_uring interpreter handles (outside ``_resolve_op``:
#: ``uring_prep`` is app-side ring memory, not a syscall, and the
#: others need the process's ring handle).
_URING_OPS = frozenset({"io_uring_setup", "io_uring_register",
                        "io_uring_enter", "uring_prep"})


def _run_uring_op(kernel, task, state: _ProcState, op: dict):
    """Process generator: interpret one io_uring scenario op.

    Ops that cannot apply (no ring yet, no data fd, full SQ) are
    deterministic skips, mirroring ``_resolve_op``'s contract so the
    shrinker can delete any prefix of a ring program.
    """
    name = op["sc"]
    if name == "io_uring_setup":
        if state.ring_fd is None:
            ret = yield from kernel.syscall(task, "io_uring_setup",
                                           entries=op.get("e", 16))
            if ret >= 0:
                state.ring_fd = ret
        return
    if state.ring_fd is None:
        return
    ring = kernel.uring_for_fd(task, state.ring_fd)
    if ring is None:
        state.ring_fd = None
        return
    if name == "io_uring_register":
        # ro 0 registers fixed buffers, anything else the open fds as
        # a fixed-file table; either may fail (EBUSY) — that is data.
        if op.get("ro", 0) == 0:
            yield from kernel.syscall(
                task, "io_uring_register", fd=state.ring_fd, opcode=0,
                arg=[4096] * max(1, op.get("n", 1)),
                nr_args=max(1, op.get("n", 1)))
        else:
            yield from kernel.syscall(
                task, "io_uring_register", fd=state.ring_fd, opcode=2,
                arg=list(state.fds) or [0], nr_args=len(state.fds) or 1)
        return
    if name == "uring_prep":
        fd = state.pick(op.get("f", 0))
        if fd is None:
            return
        n = max(1, op.get("n", 64))
        offset = op.get("o", 0)
        flags = IOSQE_IO_LINK if op.get("ln") else 0
        kind = op.get("u", "write")
        if kind == "read":
            sqe = SQE.read(fd, n, offset, flags=flags)
        elif kind == "fsync":
            sqe = SQE.fsync(fd, flags=flags)
        else:
            sqe = SQE.write(fd, b"u" * n, offset, flags=flags)
        ring.prepare(sqe)   # full SQ -> deterministic drop
        return
    if name == "io_uring_enter":
        to_submit = len(ring.sq)
        yield from kernel.syscall(
            task, "io_uring_enter", fd=state.ring_fd,
            to_submit=to_submit, min_complete=to_submit,
            flags=IORING_ENTER_GETEVENTS)
        ring.reap()
        return
    raise ValueError(f"unknown io_uring op {name!r}")



def run_ops(kernel, task, ops: list):
    """Process generator: run one program on ``task``, op by op."""
    state = _ProcState()
    for op in ops:
        delay = op.get("d", 0)
        if delay:
            yield delay
        if op["sc"] in _URING_OPS:
            yield from _run_uring_op(kernel, task, state, op)
            continue
        name, kwargs = _resolve_op(op, state)
        if name is None:
            continue
        ret = yield from kernel.syscall(task, name, **kwargs)
        if name in ("open", "openat", "creat") and ret >= 0:
            state.fds.append(ret)
        elif name == "close" and ret == 0:
            state.fds.remove(kwargs["fd"])
    # A torn-down process must not leave its ring behind: close it
    # like a real runtime's exit path would.
    if state.ring_fd is not None:
        yield from kernel.syscall(task, "close", fd=state.ring_fd)
