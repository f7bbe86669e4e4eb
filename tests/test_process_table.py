"""Unit tests for processes, threads, and fd-table edge cases."""

import pytest

from repro.kernel import Kernel, O_CREAT, O_WRONLY
from repro.kernel.errno import Errno, KernelError
from repro.kernel.process import (FileDescriptorTable, KernelProcess,
                                  OpenFileDescription, ProcessTable)
from repro.kernel.inode import FileType, Inode
from repro.sim import Environment


def make_description():
    inode = Inode(5, 1, FileType.REGULAR, 1, 0)
    return OpenFileDescription(inode, 0, True, True, False, "/f")


class TestFileDescriptorTable:
    def test_lowest_free_fd_starting_at_3(self):
        table = FileDescriptorTable()
        assert table.install(make_description()) == 3
        assert table.install(make_description()) == 4
        table.remove(3)
        assert table.install(make_description()) == 3

    def test_get_and_remove_missing_raise_ebadf(self):
        table = FileDescriptorTable()
        with pytest.raises(KernelError) as exc:
            table.get(3)
        assert exc.value.errno == Errno.EBADF
        with pytest.raises(KernelError):
            table.remove(3)

    def test_emfile_when_table_full(self):
        table = FileDescriptorTable(max_fds=6)
        for _ in range(3):  # fds 3, 4, 5
            table.install(make_description())
        with pytest.raises(KernelError) as exc:
            table.install(make_description())
        assert exc.value.errno == Errno.EMFILE

    def test_open_fds_listing(self):
        table = FileDescriptorTable()
        first, second = (make_description(), make_description())
        assert [table.install(first), table.install(second)] == [3, 4]
        assert (table.get(3), table.get(4)) == (first, second)


class TestProcessTable:
    def test_unique_ids_across_processes_and_threads(self):
        table = ProcessTable()
        p1 = table.spawn_process("a")
        p2 = table.spawn_process("b")
        t1 = table.spawn_thread(p1)
        ids = {p1.pid, p2.pid, t1.tid}
        assert len(ids) == 3

    def test_main_thread_shares_pid(self):
        table = ProcessTable()
        process = table.spawn_process("a")
        assert process.threads[0].tid == process.pid
        assert process.threads[0].comm == "a"

    def test_thread_comm_defaults_to_process_name(self):
        table = ProcessTable()
        process = table.spawn_process("svc")
        thread = table.spawn_thread(process)
        assert thread.comm == "svc"
        named = table.spawn_thread(process, comm="svc:bg0")
        assert named.comm == "svc:bg0"

    def test_cpu_assignment_spreads_tasks(self):
        table = ProcessTable()
        process = table.spawn_process("a", ncpus=2)
        cpus = {process.threads[0].cpu}
        for _ in range(4):
            cpus.add(table.spawn_thread(process, ncpus=2).cpu)
        assert cpus == {0, 1}


class TestFdExhaustionThroughSyscalls:
    def test_open_returns_emfile_when_out_of_fds(self):
        env = Environment()
        kernel = Kernel(env)
        process = kernel.processes.spawn_process("greedy", max_fds=8)
        task = process.threads[0]

        def scenario():
            rets = []
            for i in range(8):
                ret = yield from kernel.syscall(
                    task, "open", path=f"/f{i}", flags=O_CREAT | O_WRONLY)
                rets.append(ret)
            return rets

        rets = env.run(until=env.process(scenario()))
        assert rets[:5] == [3, 4, 5, 6, 7]
        assert all(ret == -int(Errno.EMFILE) for ret in rets[5:])
