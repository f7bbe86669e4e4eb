"""The per-event document model, kept as an oracle.

The tracer decodes a ring batch into lanes (``RecordBatch.decode``);
one :class:`Event` per record, with its ``to_doc``, is the row-at-a-
time statement of the same document shape that the batch tests compare
against: same keys, same order, buffers recorded as their sizes.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from repro.tracer.events import _sanitize_args


class Event:
    """A single traced syscall, ready for indexing."""

    __slots__ = ("syscall", "args", "ret", "pid", "tid", "proc_name",
                 "time", "time_exit", "file_type", "offset", "file_tag",
                 "session", "file_path")

    def __init__(self, syscall: str, args: dict[str, Any], ret: int,
                 pid: int, tid: int, proc_name: str,
                 time: int, time_exit: int,
                 file_type: Optional[str] = None,
                 offset: Optional[int] = None,
                 file_tag: Optional[str] = None,
                 session: str = "",
                 file_path: Optional[str] = None):
        self.syscall = syscall
        self.args = _sanitize_args(args)
        self.ret = ret
        self.pid = pid
        self.tid = tid
        self.proc_name = proc_name
        self.time = time
        self.time_exit = time_exit
        self.file_type = file_type
        self.offset = offset
        self.file_tag = file_tag
        self.session = session
        self.file_path = file_path

    def to_doc(self) -> dict[str, Any]:
        """The backend document for this event (sparse: no null fields)."""
        doc: dict[str, Any] = {
            "syscall": self.syscall, "args": self.args, "ret": self.ret,
            "pid": self.pid, "tid": self.tid, "proc_name": self.proc_name,
            "time": self.time, "time_exit": self.time_exit,
            "duration_ns": self.time_exit - self.time,
            "session": self.session,
        }
        for key in ("file_type", "offset", "file_tag", "file_path"):
            if getattr(self, key) is not None:
                doc[key] = getattr(self, key)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), separators=(",", ":"))

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "Event":
        """Rebuild an event from a backend document."""
        return cls(args=dict(doc.get("args", {})),
                   session=doc.get("session", ""),
                   **{key: doc[key] for key in (
                       "syscall", "ret", "pid", "tid", "proc_name", "time",
                       "time_exit")},
                   **{key: doc.get(key) for key in (
                       "file_type", "offset", "file_tag", "file_path")})
