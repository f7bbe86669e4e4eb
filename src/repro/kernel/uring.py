"""io_uring: shared-memory submission/completion rings.

The classic syscall surface (:mod:`repro.kernel.syscalls`) is the
boundary DIO instruments — and exactly the boundary io_uring bypasses.
An application prepares :class:`SQE` entries directly in the shared
submission queue (no syscall), rings the doorbell with one
``io_uring_enter``, and later reaps :class:`CQE` entries from the
completion queue (again no syscall).  A syscall tracer therefore sees
*one* ``io_uring_enter`` where a classic application would have issued
dozens of ``pwrite64``/``fsync`` calls: the blind spot uringscope
describes, and the reason the tracer grows a ``ring_mode`` —
ring-aware tracing hooks the kernel-side completion path
(:meth:`repro.kernel.syscalls.Kernel.add_uring_observer`) and emits
one ``uring_read``/``uring_write``/``uring_fsync`` event per SQE.

The model covers the lifecycle the paper's diagnosis scenarios need:

- a bounded submission queue the application fills
  (:meth:`IoUring.prepare`) and the kernel drains on
  ``io_uring_enter(to_submit=...)``;
- in-kernel dispatch through the *same* VFS/page-cache/block-device
  layers as the classic syscalls, so classic and ring runs of one
  workload produce byte-identical file and cache state;
- a bounded completion queue with batched reaping
  (:meth:`IoUring.reap`) and full-CQ overflow accounting (overflowed
  completions are lost to the *application*, like pre-5.5 Linux, but
  still visible to a kernel-side observer);
- linked SQEs (``IOSQE_IO_LINK``): chains execute sequentially and a
  mid-chain error cancels the remainder with ``-ECANCELED``;
- registered files (``IOSQE_FIXED_FILE`` indexes the table) and
  registered buffers, with ``EBUSY``/``ENXIO`` on double
  register/unregister as in Linux.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

# --- SQE flag bits (as in <linux/io_uring.h>) -------------------------------
IOSQE_FIXED_FILE = 1 << 0
IOSQE_IO_LINK = 1 << 2

# --- io_uring_enter flags ----------------------------------------------------
IORING_ENTER_GETEVENTS = 1 << 0

# --- io_uring_register opcodes -----------------------------------------------
IORING_REGISTER_BUFFERS = 0
IORING_UNREGISTER_BUFFERS = 1
IORING_REGISTER_FILES = 2
IORING_UNREGISTER_FILES = 3

#: SQE opcodes (the storage subset the reproduction needs) and the
#: per-op event names the ring-aware tracer emits for them.  The names
#: deliberately do NOT collide with the 42 classic syscalls: queries
#: and detectors can always tell a ring op from a syscall.
URING_OP_READ = "read"
URING_OP_WRITE = "write"
URING_OP_FSYNC = "fsync"
URING_OP_EVENTS = {
    URING_OP_READ: "uring_read",
    URING_OP_WRITE: "uring_write",
    URING_OP_FSYNC: "uring_fsync",
}
URING_EVENT_NAMES = frozenset(URING_OP_EVENTS.values())

#: Serial cost of moving one SQE from the shared ring into the kernel
#: (the doorbell is serial even though dispatch is concurrent).  Also
#: guarantees distinct per-SQE submission timestamps, which the event
#: pipeline's exactly-once key ``(tid, time, syscall)`` relies on.
URING_SQE_SUBMIT_NS = 150

#: Hard cap on submission-queue entries, as in Linux.
URING_MAX_ENTRIES = 32768


class SQE:
    """One submission-queue entry, prepared by the application."""

    __slots__ = ("opcode", "fd", "nbytes", "offset", "payload",
                 "buf_index", "flags", "user_data", "submit_ns")

    def __init__(self, opcode: str, fd: int, nbytes: int = 0,
                 offset: int = 0, payload: Optional[bytes] = None,
                 buf_index: Optional[int] = None, flags: int = 0,
                 user_data: int = 0):
        self.opcode = opcode
        self.fd = fd
        self.nbytes = nbytes
        self.offset = offset
        self.payload = payload
        self.buf_index = buf_index
        self.flags = flags
        self.user_data = user_data
        #: Stamped by the kernel when ``io_uring_enter`` moves this
        #: entry out of the submission queue.
        self.submit_ns: Optional[int] = None

    # -- prep helpers (liburing's io_uring_prep_* idiom) ---------------
    @classmethod
    def read(cls, fd: int, nbytes: int, offset: int, *, flags: int = 0,
             buf_index: Optional[int] = None, user_data: int = 0) -> "SQE":
        return cls(URING_OP_READ, fd, nbytes=nbytes, offset=offset,
                   flags=flags, buf_index=buf_index, user_data=user_data)

    @classmethod
    def write(cls, fd: int, payload: bytes, offset: int, *,
              flags: int = 0, buf_index: Optional[int] = None,
              user_data: int = 0) -> "SQE":
        return cls(URING_OP_WRITE, fd, nbytes=len(payload), offset=offset,
                   payload=payload, flags=flags, buf_index=buf_index,
                   user_data=user_data)

    @classmethod
    def fsync(cls, fd: int, *, flags: int = 0, user_data: int = 0) -> "SQE":
        return cls(URING_OP_FSYNC, fd, flags=flags, user_data=user_data)


class CQE:
    """One completion-queue entry, reaped by the application."""

    __slots__ = ("user_data", "res", "flags")

    def __init__(self, user_data: int, res: int, flags: int = 0):
        self.user_data = user_data
        self.res = res
        self.flags = flags


class IoUring:
    """One ring pair: the shared-memory state behind a ring fd.

    The application touches :meth:`prepare` and :meth:`reap` (the
    mmap'd rings — no syscalls); everything else belongs to the
    kernel's ``io_uring_*`` handlers.
    """

    def __init__(self, ring_fd: int, sq_entries: int, cq_entries: int):
        self.ring_fd = ring_fd
        self.sq_entries = sq_entries
        self.cq_entries = cq_entries
        #: Submission queue: SQEs prepared but not yet submitted.
        self.sq: list[SQE] = []
        #: Completion queue: CQEs posted but not yet reaped.
        self.cq: deque[CQE] = deque()
        #: Registered file table (``IOSQE_FIXED_FILE`` indexes it) —
        #: ``None`` while nothing is registered.
        self.registered_files: Optional[list] = None
        #: Registered buffer count — ``None`` while unregistered.
        self.registered_buffers: Optional[int] = None
        #: CQEs dropped because the completion queue was full.
        self.cq_overflow = 0
        #: SQEs submitted but not yet completed.
        self.inflight = 0
        self.submitted = 0
        self.completed = 0
        #: ``io_uring_enter(GETEVENTS)`` waiters (sim events).
        self.waiters: list = []

    # -- application side (shared memory, not syscalls) ----------------

    def prepare(self, sqe: SQE) -> bool:
        """Place ``sqe`` in the submission queue; False when full."""
        if len(self.sq) >= self.sq_entries:
            return False
        self.sq.append(sqe)
        return True

    def reap(self, max_cqes: Optional[int] = None) -> list[CQE]:
        """Pop up to ``max_cqes`` completions (all, when ``None``)."""
        budget = len(self.cq) if max_cqes is None else min(max_cqes,
                                                          len(self.cq))
        return [self.cq.popleft() for _ in range(budget)]
