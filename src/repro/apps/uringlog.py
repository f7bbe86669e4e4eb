"""A Kafka-style append-only log producer, portable to io_uring.

The app batches fixed-size records into an append-only segment file and
periodically fsyncs, like a Kafka broker persisting a partition log.  It
runs in two modes that produce **byte-identical files**:

- ``classic`` — one ``pwrite64`` per record plus ``fsync`` per flush
  interval; every I/O operation is a syscall a classic tracer can see.
- ``uring`` — the same records are submitted as write SQEs through an
  io_uring, batched behind a single ``io_uring_enter`` doorbell per
  batch, with the interval fsync submitted as a *linked* SQE so it
  orders after the batch's writes.  A classic tracer now sees only the
  doorbell; the per-record operations happen inside the kernel.

The pair is the quantitative core of the classic-vs-ring blind-spot
comparison: identical logical I/O, radically different syscall surface.
"""

from __future__ import annotations

from repro.kernel import (IORING_ENTER_GETEVENTS, IORING_REGISTER_BUFFERS,
                          IORING_REGISTER_FILES, IOSQE_FIXED_FILE,
                          IOSQE_IO_LINK, Kernel, O_CREAT, O_WRONLY, SQE)
from repro.kernel.process import Task

#: Modes the producer can run in.
URINGLOG_MODES = ("classic", "uring")


def record_payload(index: int, record_size: int) -> bytes:
    """Deterministic record body: header + ``.`` padding to size."""
    header = f"rec-{index:08d}|".encode("ascii")
    if record_size <= len(header):
        return header[:record_size]
    return header + b"." * (record_size - len(header))


class UringLogApp:
    """Batched append-only log producer with classic and io_uring modes."""

    def __init__(self, kernel: Kernel, path: str = "/kafka-0.log",
                 mode: str = "uring", batches: int = 16,
                 batch_size: int = 8, record_size: int = 256,
                 fsync_every: int = 4, inter_batch_ns: int = 200_000,
                 use_registered: bool = True):
        if mode not in URINGLOG_MODES:
            raise ValueError(f"unknown uringlog mode {mode!r}")
        if batches <= 0 or batch_size <= 0 or record_size <= 0:
            raise ValueError("batches, batch_size, record_size must be > 0")
        self.kernel = kernel
        self.env = kernel.env
        self.path = path
        self.mode = mode
        self.batches = batches
        self.batch_size = batch_size
        self.record_size = record_size
        self.fsync_every = max(1, fsync_every)
        self.inter_batch_ns = inter_batch_ns
        self.use_registered = use_registered
        self.process = kernel.spawn_process("kafkalog")
        self.task: Task = self.process.threads[0]
        #: Records whose completion the app has confirmed (write retval
        #: or CQE ``res`` equal to the record size).
        self.records_confirmed = 0
        self.fsyncs_confirmed = 0
        self.bytes_written = 0
        #: CQEs reaped in uring mode, as ``(user_data, res)`` tuples.
        self.cqes: list[tuple[int, int]] = []
        self.errors: list[tuple[int, int]] = []

    # -- schedule ---------------------------------------------------

    def _fsync_after(self, batch: int) -> bool:
        """Both modes fsync after the same batches (and the last one)."""
        return (batch + 1) % self.fsync_every == 0 \
            or batch == self.batches - 1

    def _record_offset(self, index: int) -> int:
        return index * self.record_size

    # -- classic mode -----------------------------------------------

    def _run_classic(self):
        kernel, task = self.kernel, self.task
        fd = yield from kernel.syscall(task, "openat", path=self.path,
                                       flags=O_CREAT | O_WRONLY)
        if fd < 0:
            raise RuntimeError(f"uringlog could not create {self.path}")
        index = 0
        for batch in range(self.batches):
            for _ in range(self.batch_size):
                payload = record_payload(index, self.record_size)
                ret = yield from kernel.syscall(
                    task, "pwrite64", fd=fd, data=payload,
                    offset=self._record_offset(index))
                if ret == len(payload):
                    self.records_confirmed += 1
                    self.bytes_written += ret
                else:
                    self.errors.append((index, ret))
                index += 1
            if self._fsync_after(batch):
                ret = yield from kernel.syscall(task, "fsync", fd=fd)
                if ret == 0:
                    self.fsyncs_confirmed += 1
            yield self.inter_batch_ns
        yield from kernel.syscall(task, "close", fd=fd)

    # -- io_uring mode ----------------------------------------------

    def _run_uring(self):
        kernel, task = self.kernel, self.task
        fd = yield from kernel.syscall(task, "openat", path=self.path,
                                       flags=O_CREAT | O_WRONLY)
        if fd < 0:
            raise RuntimeError(f"uringlog could not create {self.path}")
        # Room for a full batch of writes plus the linked fsync.
        ring_fd = yield from kernel.syscall(
            task, "io_uring_setup", entries=max(2 * self.batch_size, 8))
        if ring_fd < 0:
            raise RuntimeError(f"io_uring_setup failed: {ring_fd}")
        ring = kernel.uring_for_fd(task, ring_fd)
        write_fd, sqe_flags = fd, 0
        if self.use_registered:
            ret = yield from kernel.syscall(
                task, "io_uring_register", fd=ring_fd,
                opcode=IORING_REGISTER_FILES, arg=[fd], nr_args=1)
            if ret == 0:
                # Slot 0 of the registered-file table.
                write_fd, sqe_flags = 0, IOSQE_FIXED_FILE
            yield from kernel.syscall(
                task, "io_uring_register", fd=ring_fd,
                opcode=IORING_REGISTER_BUFFERS,
                arg=[self.record_size] * self.batch_size,
                nr_args=self.batch_size)
        index = 0
        for batch in range(self.batches):
            prepared = 0
            for slot in range(self.batch_size):
                payload = record_payload(index, self.record_size)
                sqe = SQE.write(write_fd, payload,
                                self._record_offset(index),
                                flags=sqe_flags,
                                buf_index=slot if self.use_registered
                                else None,
                                user_data=index)
                if not ring.prepare(sqe):
                    raise RuntimeError("submission queue overflow")
                prepared += 1
                index += 1
            if self._fsync_after(batch):
                # Linked after the batch's last write: completes only
                # once every preceding SQE in the chain has.
                last = ring.sq[-1]
                last.flags |= IOSQE_IO_LINK
                fsync_sqe = SQE.fsync(write_fd, flags=sqe_flags,
                                      user_data=-(batch + 1))
                if not ring.prepare(fsync_sqe):
                    raise RuntimeError("submission queue overflow")
                prepared += 1
            submitted = yield from kernel.syscall(
                task, "io_uring_enter", fd=ring_fd, to_submit=prepared,
                min_complete=prepared, flags=IORING_ENTER_GETEVENTS)
            if submitted != prepared:
                raise RuntimeError(
                    f"short submit: {submitted}/{prepared}")
            for cqe in ring.reap():
                self.cqes.append((cqe.user_data, cqe.res))
                if cqe.user_data >= 0 and cqe.res == self.record_size:
                    self.records_confirmed += 1
                    self.bytes_written += cqe.res
                elif cqe.user_data < 0 and cqe.res == 0:
                    self.fsyncs_confirmed += 1
                else:
                    self.errors.append((cqe.user_data, cqe.res))
            yield self.inter_batch_ns
        yield from kernel.syscall(task, "close", fd=ring_fd)
        yield from kernel.syscall(task, "close", fd=fd)

    # -- entry point ------------------------------------------------

    @property
    def total_records(self) -> int:
        return self.batches * self.batch_size

    def run(self):
        """Process generator: produce the full log in the chosen mode."""
        if self.mode == "classic":
            yield from self._run_classic()
        else:
            yield from self._run_uring()
