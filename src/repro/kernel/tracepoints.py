"""Syscall tracepoints: the kernel's instrumentation attach points.

Mirrors the ``sys_enter_<name>`` / ``sys_exit_<name>`` tracepoints DIO
attaches its eBPF programs to.  A handler is a callable receiving a
:class:`SyscallContext`; whatever integer it returns is interpreted as
the number of nanoseconds of synchronous overhead it adds to the traced
syscall — this is how the strace trap cost, the eBPF program cost, and
the enrichment cost enter the virtual clock and ultimately produce the
paper's Table II overhead comparison.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Iterable, Optional

from repro.kernel.inode import Inode
from repro.kernel.process import Task

#: A tracepoint handler: SyscallContext -> overhead_ns (int or None).
Handler = Callable[["SyscallContext"], Optional[int]]


class SyscallContext:
    """Everything a tracepoint handler can observe about one syscall.

    At ``sys_enter`` the return-value fields are unset; at ``sys_exit``
    the full record is visible.  ``inode``, ``offset`` and ``fd_based``
    are the kernel context DIO's enrichment reads, set when the syscall
    touches a file.
    """

    __slots__ = ("name", "task", "args", "enter_ns", "exit_ns",
                 "retval", "inode", "offset", "fd_based")

    def __init__(self, name: str, task: Task, args: dict[str, Any], enter_ns: int):
        self.name = name
        self.task = task
        #: Decoded syscall arguments (by name, matching the man page).
        self.args = args
        self.enter_ns = enter_ns
        self.exit_ns: Optional[int] = None
        #: Return value; negative values are ``-errno``.
        self.retval: Optional[int] = None
        #: The inode the syscall touched (file type, tag identity).
        self.inode: Optional[Inode] = None
        #: The file offset the kernel exposed, even for offset-less
        #: syscalls (``read``/``write``); ``None`` when there is none.
        self.offset: Optional[int] = None
        #: Whether the file was reached through an fd (tagged files).
        self.fd_based = False

    @property
    def pid(self) -> int:
        return self.task.pid

    @property
    def tid(self) -> int:
        return self.task.tid

    @property
    def comm(self) -> str:
        return self.task.comm


def overhead_ns(handlers: Iterable[Handler], ctx: SyscallContext) -> int:
    """Run ``handlers`` on ``ctx``; return their summed overhead in ns."""
    overhead = 0
    for handler in handlers:
        cost = handler(ctx)
        if cost:
            overhead += int(cost)
    return overhead


class TracepointRegistry:
    """Attach/detach handlers on syscall entry and exit tracepoints."""

    def __init__(self) -> None:
        self._enter: defaultdict[str, list[Handler]] = defaultdict(list)
        self._exit: defaultdict[str, list[Handler]] = defaultdict(list)
        self._watchers: list[Callable[[], None]] = []

    def subscribe(self, callback: Callable[[], None]) -> None:
        """Call ``callback()`` after every attach or detach (the kernel
        drops the handler tuples it resolved)."""
        self._watchers.append(callback)

    def _changed(self) -> None:
        for callback in self._watchers:
            callback()

    def attach_enter(self, syscall: str, handler: Handler) -> None:
        """Attach ``handler`` to ``sys_enter_<syscall>``."""
        self._enter[syscall].append(handler)
        self._changed()

    def attach_exit(self, syscall: str, handler: Handler) -> None:
        """Attach ``handler`` to ``sys_exit_<syscall>``."""
        self._exit[syscall].append(handler)
        self._changed()

    def detach_enter(self, syscall: str, handler: Handler) -> None:
        """Remove a previously attached entry handler."""
        self._enter[syscall].remove(handler)
        self._changed()

    def detach_exit(self, syscall: str, handler: Handler) -> None:
        """Remove a previously attached exit handler."""
        self._exit[syscall].remove(handler)
        self._changed()

    def handlers(self, syscall: str) -> tuple[tuple[Handler, ...],
                                              tuple[Handler, ...]]:
        """The entry and exit handlers of ``syscall``, in attach order."""
        return (tuple(self._enter.get(syscall, ())),
                tuple(self._exit.get(syscall, ())))
