"""Edge-case tests for the kernel's io_uring model.

The corners a differential classic-vs-ring run can't reach: CQ
overflow with a full completion queue, zero-to-submit doorbells,
double registration, and mid-chain aborts of linked SQEs.
"""

import pytest

from repro.kernel import (IORING_ENTER_GETEVENTS, IORING_REGISTER_BUFFERS,
                          IORING_REGISTER_FILES, IOSQE_FIXED_FILE,
                          IOSQE_IO_LINK, Kernel, O_CREAT, O_RDONLY,
                          O_WRONLY, SQE)
from repro.kernel.errno import Errno
from repro.kernel.syscalls import (IORING_UNREGISTER_BUFFERS,
                                   IORING_UNREGISTER_FILES)
from repro.sim import Environment


@pytest.fixture()
def setup():
    env = Environment()
    kernel = Kernel(env)
    process = kernel.spawn_process("uringapp")
    return env, kernel, process.threads[0]


def run(env, gen):
    """Drive an orchestration generator to completion on the clock."""
    return env.run(until=env.process(gen))


def _open_and_ring(kernel, task, entries=8, cq_entries=None,
                   flags=O_CREAT | O_WRONLY):
    """Generator: open /f and set up a ring; returns (fd, ring_fd)."""
    fd = yield from kernel.syscall(task, "open", path="/f", flags=flags)
    assert fd >= 0
    kwargs = {"entries": entries}
    if cq_entries is not None:
        kwargs["cq_entries"] = cq_entries
    ring_fd = yield from kernel.syscall(task, "io_uring_setup", **kwargs)
    assert ring_fd >= 0
    return fd, ring_fd


class TestSetup:
    def test_rejects_bad_entries(self, setup):
        env, kernel, task = setup

        def go():
            ret = yield from kernel.syscall(task, "io_uring_setup",
                                            entries=0)
            assert ret == -int(Errno.EINVAL)
            ret = yield from kernel.syscall(task, "io_uring_setup",
                                            entries=1 << 20)
            assert ret == -int(Errno.EINVAL)
            # CQ smaller than the SQ is invalid too.
            ret = yield from kernel.syscall(task, "io_uring_setup",
                                            entries=8, cq_entries=4)
            assert ret == -int(Errno.EINVAL)

        run(env, go())
        assert kernel.uring_stats["setups"] == 0

    def test_ring_fd_is_anonymous_and_closes_clean(self, setup):
        env, kernel, task = setup

        def go():
            ring_fd = yield from kernel.syscall(task, "io_uring_setup",
                                                entries=8)
            assert kernel.uring_for_fd(task, ring_fd) is not None
            ret = yield from kernel.syscall(task, "close", fd=ring_fd)
            assert ret == 0
            assert kernel.uring_for_fd(task, ring_fd) is None

        run(env, go())

    def test_enter_on_non_ring_fd(self, setup):
        env, kernel, task = setup

        def go():
            fd = yield from kernel.syscall(task, "open", path="/f",
                                           flags=O_CREAT | O_WRONLY)
            ret = yield from kernel.syscall(task, "io_uring_enter",
                                            fd=fd, to_submit=1)
            assert ret == -int(Errno.EBADF)

        run(env, go())


class TestCompletionQueueOverflow:
    def test_full_cq_counts_overflow_but_observers_see_all(self, setup):
        env, kernel, task = setup
        observed = []
        kernel.add_uring_observer(
            lambda ctx, sqe, cqe, ring: observed.append(cqe.res))

        def go():
            fd, ring_fd = yield from _open_and_ring(kernel, task,
                                                    entries=4,
                                                    cq_entries=4)
            ring = kernel.uring_for_fd(task, ring_fd)
            # First batch fills the CQ to capacity...
            for i in range(4):
                assert ring.prepare(SQE.write(fd, b"a" * 16, 16 * i,
                                              user_data=i))
            ret = yield from kernel.syscall(
                task, "io_uring_enter", fd=ring_fd, to_submit=4,
                min_complete=4, flags=IORING_ENTER_GETEVENTS)
            assert ret == 4
            # ...and the second batch completes into a full CQ.
            for i in range(4, 8):
                assert ring.prepare(SQE.write(fd, b"a" * 16, 16 * i,
                                              user_data=i))
            ret = yield from kernel.syscall(
                task, "io_uring_enter", fd=ring_fd, to_submit=4,
                min_complete=8, flags=IORING_ENTER_GETEVENTS)
            assert ret == 4
            return ring

        ring = run(env, go())
        # The app lost the second batch: 4 CQEs overflowed, only the
        # first 4 are reapable.
        assert ring.cq_overflow == 4
        assert kernel.uring_stats["cq_overflows"] == 4
        assert [cqe.user_data for cqe in ring.reap()] == [0, 1, 2, 3]
        assert ring.reap() == []
        # A kernel-side observer saw every completion regardless.
        assert observed == [16] * 8
        # Nothing is stuck: all 8 dispatched and completed.
        assert ring.inflight == 0
        assert ring.completed == 8

    def test_getevents_does_not_deadlock_on_overflow(self, setup):
        """min_complete above CQ capacity must end when inflight hits 0."""
        env, kernel, task = setup

        def go():
            fd, ring_fd = yield from _open_and_ring(kernel, task,
                                                    entries=4,
                                                    cq_entries=4)
            ring = kernel.uring_for_fd(task, ring_fd)
            for batch in range(2):
                for i in range(4):
                    assert ring.prepare(SQE.write(fd, b"b" * 8,
                                                  8 * (4 * batch + i)))
                yield from kernel.syscall(
                    task, "io_uring_enter", fd=ring_fd, to_submit=4,
                    min_complete=0, flags=0)
            # Waits for 8 completions that can never all be reapable.
            yield from kernel.syscall(
                task, "io_uring_enter", fd=ring_fd, to_submit=0,
                min_complete=8, flags=IORING_ENTER_GETEVENTS)
            return ring

        ring = run(env, go())
        assert ring.inflight == 0
        assert ring.completed == 8


class TestEnterEdges:
    def test_zero_to_submit_is_a_noop(self, setup):
        env, kernel, task = setup

        def go():
            _, ring_fd = yield from _open_and_ring(kernel, task)
            ret = yield from kernel.syscall(task, "io_uring_enter",
                                            fd=ring_fd, to_submit=0)
            assert ret == 0
            # GETEVENTS with nothing inflight returns immediately too.
            ret = yield from kernel.syscall(
                task, "io_uring_enter", fd=ring_fd, to_submit=0,
                min_complete=4, flags=IORING_ENTER_GETEVENTS)
            assert ret == 0

        run(env, go())
        assert kernel.uring_stats["sqes_submitted"] == 0

    def test_submit_caps_at_prepared_sqes(self, setup):
        env, kernel, task = setup

        def go():
            fd, ring_fd = yield from _open_and_ring(kernel, task)
            ring = kernel.uring_for_fd(task, ring_fd)
            ring.prepare(SQE.write(fd, b"x", 0))
            ret = yield from kernel.syscall(
                task, "io_uring_enter", fd=ring_fd, to_submit=5,
                min_complete=1, flags=IORING_ENTER_GETEVENTS)
            assert ret == 1

        run(env, go())


class TestRegistration:
    def test_buffer_reregistration_and_unregister(self, setup):
        env, kernel, task = setup

        def go():
            _, ring_fd = yield from _open_and_ring(kernel, task)
            ret = yield from kernel.syscall(
                task, "io_uring_register", fd=ring_fd,
                opcode=IORING_REGISTER_BUFFERS, arg=[4096, 4096],
                nr_args=2)
            assert ret == 0
            # Registering on top of live buffers is EBUSY...
            ret = yield from kernel.syscall(
                task, "io_uring_register", fd=ring_fd,
                opcode=IORING_REGISTER_BUFFERS, arg=[4096], nr_args=1)
            assert ret == -int(Errno.EBUSY)
            ret = yield from kernel.syscall(
                task, "io_uring_register", fd=ring_fd,
                opcode=IORING_UNREGISTER_BUFFERS)
            assert ret == 0
            # ...and unregistering twice is ENXIO.
            ret = yield from kernel.syscall(
                task, "io_uring_register", fd=ring_fd,
                opcode=IORING_UNREGISTER_BUFFERS)
            assert ret == -int(Errno.ENXIO)

        run(env, go())

    def test_file_table_pins_descriptions(self, setup):
        """Fixed-file SQEs keep working after the plain fd closes."""
        env, kernel, task = setup

        def go():
            fd, ring_fd = yield from _open_and_ring(kernel, task)
            ring = kernel.uring_for_fd(task, ring_fd)
            ret = yield from kernel.syscall(
                task, "io_uring_register", fd=ring_fd,
                opcode=IORING_REGISTER_FILES, arg=[fd], nr_args=1)
            assert ret == 0
            yield from kernel.syscall(task, "close", fd=fd)
            ring.prepare(SQE.write(0, b"pinned", 0,
                                   flags=IOSQE_FIXED_FILE))
            yield from kernel.syscall(
                task, "io_uring_enter", fd=ring_fd, to_submit=1,
                min_complete=1, flags=IORING_ENTER_GETEVENTS)
            return ring.reap()

        cqes = run(env, go())
        assert [cqe.res for cqe in cqes] == [6]
        assert kernel.vfs.resolve("/f").contents() == b"pinned"

    def test_unregister_files_never_registered(self, setup):
        env, kernel, task = setup

        def go():
            _, ring_fd = yield from _open_and_ring(kernel, task)
            ret = yield from kernel.syscall(
                task, "io_uring_register", fd=ring_fd,
                opcode=IORING_UNREGISTER_FILES)
            assert ret == -int(Errno.ENXIO)
            # Unknown opcode is EINVAL.
            ret = yield from kernel.syscall(
                task, "io_uring_register", fd=ring_fd, opcode=99)
            assert ret == -int(Errno.EINVAL)

        run(env, go())

    def test_fixed_file_without_table_fails(self, setup):
        env, kernel, task = setup

        def go():
            _, ring_fd = yield from _open_and_ring(kernel, task)
            ring = kernel.uring_for_fd(task, ring_fd)
            ring.prepare(SQE.write(0, b"x", 0, flags=IOSQE_FIXED_FILE))
            yield from kernel.syscall(
                task, "io_uring_enter", fd=ring_fd, to_submit=1,
                min_complete=1, flags=IORING_ENTER_GETEVENTS)
            return ring.reap()

        cqes = run(env, go())
        assert [cqe.res for cqe in cqes] == [-int(Errno.EBADF)]

    def test_stale_buf_index_fails_einval(self, setup):
        env, kernel, task = setup

        def go():
            fd, ring_fd = yield from _open_and_ring(kernel, task)
            ring = kernel.uring_for_fd(task, ring_fd)
            ring.prepare(SQE.write(fd, b"x", 0, buf_index=3))
            yield from kernel.syscall(
                task, "io_uring_enter", fd=ring_fd, to_submit=1,
                min_complete=1, flags=IORING_ENTER_GETEVENTS)
            return ring.reap()

        cqes = run(env, go())
        assert [cqe.res for cqe in cqes] == [-int(Errno.EINVAL)]


class TestLinkedChains:
    def test_mid_chain_error_cancels_the_rest(self, setup):
        env, kernel, task = setup

        def go():
            # Read-only fd: the chain's second write must fail EBADF.
            fd, ring_fd = yield from _open_and_ring(
                kernel, task, flags=O_CREAT | O_RDONLY)
            ring = kernel.uring_for_fd(task, ring_fd)
            ring.prepare(SQE.read(fd, 8, 0, flags=IOSQE_IO_LINK,
                                  user_data=1))
            ring.prepare(SQE.write(fd, b"nope", 0, flags=IOSQE_IO_LINK,
                                   user_data=2))
            ring.prepare(SQE.write(fd, b"nope", 8, flags=IOSQE_IO_LINK,
                                   user_data=3))
            ring.prepare(SQE.fsync(fd, user_data=4))
            yield from kernel.syscall(
                task, "io_uring_enter", fd=ring_fd, to_submit=4,
                min_complete=4, flags=IORING_ENTER_GETEVENTS)
            return ring.reap()

        cqes = run(env, go())
        by_user = {cqe.user_data: cqe.res for cqe in cqes}
        assert by_user[1] == 0                        # empty file read
        assert by_user[2] == -int(Errno.EBADF)        # the real error
        assert by_user[3] == -int(Errno.ECANCELED)    # chain aborted
        assert by_user[4] == -int(Errno.ECANCELED)
        assert kernel.uring_stats["chain_cancellations"] == 2

    def test_independent_chains_are_not_cancelled(self, setup):
        env, kernel, task = setup

        def go():
            fd, ring_fd = yield from _open_and_ring(
                kernel, task, flags=O_CREAT | O_RDONLY)
            ring = kernel.uring_for_fd(task, ring_fd)
            # A failing unlinked SQE, then an independent healthy one.
            ring.prepare(SQE.write(fd, b"nope", 0, user_data=1))
            ring.prepare(SQE.read(fd, 4, 0, user_data=2))
            yield from kernel.syscall(
                task, "io_uring_enter", fd=ring_fd, to_submit=2,
                min_complete=2, flags=IORING_ENTER_GETEVENTS)
            return ring.reap()

        cqes = run(env, go())
        by_user = {cqe.user_data: cqe.res for cqe in cqes}
        assert by_user[1] == -int(Errno.EBADF)
        assert by_user[2] == 0
        assert kernel.uring_stats["chain_cancellations"] == 0
