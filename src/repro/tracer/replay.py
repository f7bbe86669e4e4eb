"""Trace replay: re-execute a stored session against a fresh kernel.

Complements the post-mortem pipeline the way Re-animator ([15] in the
paper) complements plain tracers: a session captured by DIO carries
enough information — syscall types, arguments (with buffer *sizes*),
offsets, per-thread attribution, timestamps — to drive the same I/O
against a new simulated kernel.  Uses include regression testing a
storage stack against production traces and re-measuring a workload
under different kernel parameters.

Replay semantics:

- events are issued in recorded order (a total order by entry time);
- processes and threads are re-created with their recorded names;
- file descriptors are translated through a per-process table built
  from replayed ``open`` results, so recorded fd numbers need not
  match;
- buffer contents are synthesized at the recorded sizes;
- with ``timed=True``, inter-event gaps from the recording are
  preserved on the virtual clock (think ``strace -r`` in reverse).

The result reports per-event fidelity: how many replayed syscalls
returned the recorded value.
"""

from __future__ import annotations

from typing import Optional

from repro.backend.store import DocumentStore
from repro.kernel import Kernel
from repro.kernel.process import Task

#: Syscalls that return a new file descriptor.
_OPEN_SYSCALLS = frozenset({"open", "openat", "creat"})
#: Argument names that hold an fd to be translated.
_FD_ARGS = ("fd",)
#: Recorded-as-size arguments that must be re-materialized as buffers.
_READ_BUFFER_ARGS = {"buf"}
_WRITE_BUFFER_ARGS = {"data"}
#: Arguments that were out-parameters in the original call.
_OUT_PARAM_SYSCALLS = {"stat", "lstat", "fstat", "fstatat", "fstatfs"}


class ReplayReport:
    """Outcome of one replay run."""

    __slots__ = ("issued", "skipped", "matched_returns",
                 "mismatched_returns", "duration_ns")

    def __init__(self) -> None:
        self.issued = 0
        self.skipped = 0
        self.matched_returns = 0
        self.mismatched_returns = 0
        self.duration_ns = 0

    @property
    def fidelity(self) -> float:
        """Fraction of replayed syscalls returning the recorded value."""
        total = self.matched_returns + self.mismatched_returns
        return self.matched_returns / total if total else 1.0

    def __repr__(self) -> str:
        return (f"<ReplayReport issued={self.issued} "
                f"fidelity={self.fidelity:.3f}>")


class TraceReplayer:
    """Replays a list of trace event documents on a kernel."""

    def __init__(self, kernel: Kernel, events: list[dict],
                 timed: bool = False):
        self.kernel = kernel
        self.env = kernel.env
        self.events = sorted(events, key=lambda e: e["time"])
        self.timed = timed
        self.report = ReplayReport()
        #: original (pid) -> replayed KernelProcess
        self._processes: dict[int, object] = {}
        #: original (pid, tid) -> replayed Task
        self._tasks: dict[tuple[int, int], Task] = {}
        #: original (pid, fd) -> replayed fd
        self._fd_map: dict[tuple[int, int], int] = {}

    @classmethod
    def from_session(cls, store: DocumentStore, kernel: Kernel,
                     session: str, index: str = "dio_trace",
                     timed: bool = False) -> "TraceReplayer":
        """Build a replayer from a stored session."""
        response = store.search(index,
                                query={"term": {"session": session}},
                                sort=["time"], size=None)
        events = [hit["_source"] for hit in response["hits"]["hits"]]
        if not events:
            raise ValueError(f"session {session!r} has no events")
        return cls(kernel, events, timed=timed)

    # ------------------------------------------------------------------

    def _task_for(self, event: dict) -> Task:
        pid, tid = event["pid"], event["tid"]
        key = (pid, tid)
        if key in self._tasks:
            return self._tasks[key]
        process = self._processes.get(pid)
        if process is None:
            process = self.kernel.spawn_process(event["proc_name"])
            self._processes[pid] = process
            task = process.threads[0]
            task.comm = event["proc_name"]
        else:
            task = self.kernel.spawn_thread(process,
                                            comm=event["proc_name"])
        self._tasks[key] = task
        return task

    def _prepare_args(self, event: dict) -> Optional[dict]:
        """Recorded args -> replayable kwargs, or None to skip."""
        name = event["syscall"]
        args = dict(event.get("args", {}))
        kwargs: dict = {}
        for key, value in args.items():
            if key in _FD_ARGS:
                mapped = self._fd_map.get((event["pid"], value))
                if mapped is None:
                    return None  # fd's open was not part of the trace
                kwargs[key] = mapped
            elif key in _READ_BUFFER_ARGS and isinstance(value, int):
                kwargs[key] = bytearray(max(value, 0))
            elif key in _WRITE_BUFFER_ARGS and isinstance(value, int):
                kwargs[key] = b"\x00" * max(value, 0)
            elif key == "bufs" and isinstance(value, int):
                kwargs[key] = [bytearray(max(value, 0))]
            elif key == "datas" and isinstance(value, int):
                kwargs[key] = [b"\x00" * max(value, 0)]
            else:
                kwargs[key] = value
        if name in _OUT_PARAM_SYSCALLS:
            kwargs["statbuf"] = {}
        if name in ("getxattr", "lgetxattr", "fgetxattr",
                    "listxattr", "llistxattr", "flistxattr"):
            kwargs.setdefault("buf", bytearray(256))
        return kwargs

    def run(self):
        """Process generator: replay every event in order."""
        report = self.report
        start_ns = self.env.now
        first_ts = self.events[0]["time"] if self.events else 0
        for event in self.events:
            if self.timed:
                due = start_ns + (event["time"] - first_ts)
                if due > self.env.now:
                    yield due - self.env.now
            kwargs = self._prepare_args(event)
            if kwargs is None:
                report.skipped += 1
                continue
            task = self._task_for(event)
            ret = yield from self.kernel.syscall(task, event["syscall"],
                                                 **kwargs)
            report.issued += 1
            name = event["syscall"]
            if name in _OPEN_SYSCALLS:
                if ret >= 0 and event["ret"] >= 0:
                    self._fd_map[(event["pid"], event["ret"])] = ret
                # fd numbers are allowed to differ; compare only sign.
                matched = (ret >= 0) == (event["ret"] >= 0)
            elif name == "close":
                self._fd_map.pop((event["pid"],
                                  event.get("args", {}).get("fd")), None)
                matched = ret == event["ret"]
            else:
                matched = ret == event["ret"]
            if matched:
                report.matched_returns += 1
            else:
                report.mismatched_returns += 1
        report.duration_ns = self.env.now - start_ns
        return report
