"""Direct unit tests for kernel-space filtering and enrichment."""

import pytest

from repro.kernel import Kernel
from repro.kernel.inode import FileType, Inode
from repro.kernel.process import KernelProcess, Task
from repro.kernel.tracepoints import SyscallContext
from repro.tracer.enrichment import Enricher
from repro.tracer.filters import KernelFilter


def make_ctx(name, args=None, pid=100, tid=101, retval=0, inode=None,
             offset=None, fd_based=True, enter_ns=1000):
    process = KernelProcess(pid=pid, name="app")
    task = Task(tid=tid, process=process, comm="app")
    ctx = SyscallContext(name, task, args or {}, enter_ns=enter_ns)
    ctx.retval = retval
    ctx.exit_ns = enter_ns + 10
    if inode is not None:
        Kernel._note_inode(ctx, inode, offset=offset, fd_based=fd_based)
    return ctx


class TestPidTidFilters:
    def test_pid_accept_and_reject(self):
        f = KernelFilter(pids=frozenset({100}))
        assert f.accepts(make_ctx("read", {"fd": 3}, pid=100))
        assert not f.accepts(make_ctx("read", {"fd": 3}, pid=200))
        assert f.rejected == 1

    def test_tid_filter(self):
        f = KernelFilter(tids=frozenset({7}))
        assert f.accepts(make_ctx("read", {"fd": 3}, tid=7))
        assert not f.accepts(make_ctx("read", {"fd": 3}, tid=8))

    def test_no_filters_accepts_everything(self):
        f = KernelFilter()
        assert f.accepts(make_ctx("read", {"fd": 3}))
        assert f.rejected == 0


class TestPathFilter:
    def test_open_under_prefix_accepted_and_fd_tracked(self):
        f = KernelFilter(paths=("/logs",))
        open_ctx = make_ctx("openat", {"path": "/logs/a.log"}, retval=3)
        assert f.accepts(open_ctx)
        # fd-based syscall on the tracked fd is accepted.
        assert f.accepts(make_ctx("write", {"fd": 3, "data": b"x"}))

    def test_untracked_fd_rejected(self):
        f = KernelFilter(paths=("/logs",))
        assert not f.accepts(make_ctx("write", {"fd": 9, "data": b"x"}))

    def test_close_untracks_fd(self):
        f = KernelFilter(paths=("/logs",))
        f.accepts(make_ctx("openat", {"path": "/logs/a"}, retval=3))
        assert f.accepts(make_ctx("close", {"fd": 3}))
        # The fd may be reused for an unrelated file afterwards.
        assert not f.accepts(make_ctx("read", {"fd": 3, "buf": b""}))

    def test_failed_open_not_tracked(self):
        f = KernelFilter(paths=("/logs",))
        assert f.accepts(make_ctx("openat", {"path": "/logs/a"}, retval=-2))
        assert not f.accepts(make_ctx("read", {"fd": 3}))

    def test_exact_path_match(self):
        f = KernelFilter(paths=("/file",))
        assert f.accepts(make_ctx("stat", {"path": "/file"}))
        assert not f.accepts(make_ctx("stat", {"path": "/file2"}))
        assert f.accepts(make_ctx("unlink", {"path": "/file"}))

    def test_prefix_requires_component_boundary(self):
        f = KernelFilter(paths=("/log",))
        assert f.accepts(make_ctx("stat", {"path": "/log/x"}))
        assert not f.accepts(make_ctx("stat", {"path": "/logs/x"}))

    def test_rename_matches_either_side(self):
        f = KernelFilter(paths=("/logs",))
        assert f.accepts(make_ctx(
            "rename", {"oldpath": "/logs/a", "newpath": "/tmp/b"}))
        assert f.accepts(make_ctx(
            "rename", {"oldpath": "/tmp/a", "newpath": "/logs/b"}))
        assert not f.accepts(make_ctx(
            "rename", {"oldpath": "/tmp/a", "newpath": "/tmp/b"}))

    def test_fd_tracking_is_per_process(self):
        f = KernelFilter(paths=("/logs",))
        f.accepts(make_ctx("openat", {"path": "/logs/a"}, retval=3, pid=1))
        assert not f.accepts(make_ctx("read", {"fd": 3}, pid=2))


def file_inode(generation=1):
    """Inode 12 on device 7, a regular file."""
    return Inode(12, 7, FileType.REGULAR, generation, 0)


class TestEnricher:
    def test_tag_stable_across_events_on_same_file(self):
        enricher = Enricher()
        inode = file_inode()
        a = enricher.file_tag(make_ctx("read", inode=inode, enter_ns=100))
        b = enricher.file_tag(make_ctx("write", inode=inode, enter_ns=999))
        assert a == b == "7 12 100"

    def test_tag_changes_when_generation_changes(self):
        enricher = Enricher()
        first = enricher.file_tag(make_ctx("read", inode=file_inode(),
                                           enter_ns=100))
        recycled = file_inode(generation=2)
        second = enricher.file_tag(make_ctx("read", inode=recycled,
                                            enter_ns=500))
        assert first == "7 12 100"
        assert second == "7 12 500"

    def test_no_tag_for_path_only_syscalls(self):
        enricher = Enricher()
        ctx = make_ctx("unlink", inode=file_inode(), fd_based=False)
        assert enricher.file_tag(ctx) is None

    def test_file_type_and_offset(self):
        enricher = Enricher()
        fields = enricher.enrich(make_ctx("read", inode=file_inode(),
                                          offset=26))
        assert fields["file_type"] == "regular"
        assert fields["offset"] == 26
        assert "file_tag" in fields

    def test_enrich_empty_for_no_extras(self):
        enricher = Enricher()
        assert enricher.enrich(make_ctx("read")) == {}

    def test_offset_zero_is_reported(self):
        """Offset 0 is meaningful (Fig. 2) and must not be dropped."""
        enricher = Enricher()
        fields = enricher.enrich(make_ctx("write", inode=file_inode(),
                                          offset=0))
        assert fields["offset"] == 0
