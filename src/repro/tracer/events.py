"""The parsed trace event model.

One :class:`Event` corresponds to one syscall invocation with the
paper's full collected-information set (§II-B):

- request: type, arguments, return value;
- process: PID, TID, process (thread) name;
- time: entry and exit timestamps;
- enrichment: file type, file offset, file tag.

Events serialize to JSON-compatible dicts — the document shape the
backend indexes.  Buffers in syscall arguments are serialized as their
*sizes*, never their contents, matching what DIO records.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from repro.backend.lanes import StructLane


#: Fixed per-record overhead in the ring buffer (headers + fixed fields).
RECORD_BASE_BYTES = 128


def capture_args(syscall: str, args: dict[str, Any]) -> tuple[dict, int]:
    """What the exit program records of one call's arguments, and the
    bytes its ring record occupies.

    Arguments become JSON-safe and hold nothing of the application's:
    a buffer is its length, a buffer list its byte count (1 per
    non-buffer item), a dict-valued out-parameter (``statbuf``) is not
    an argument, an exotic value is its ``str()``.  The record is the
    fixed header plus 8 bytes per argument kept and the characters of
    each string one — the same size before and after sanitising.
    """
    clean: dict[str, Any] = {}
    size = RECORD_BASE_BYTES + len(syscall)
    for key, value in args.items():
        if isinstance(value, (int, float)) or value is None:
            pass
        elif isinstance(value, str):
            size += len(value)
        elif isinstance(value, (bytes, bytearray)):
            value = len(value)
        elif isinstance(value, list):
            value = sum(len(item) if isinstance(item, (bytes, bytearray))
                        else 1 for item in value)
        elif isinstance(value, dict):
            continue
        else:
            value = str(value)
            size += len(value)
        clean[key] = value
        size += 8
    return clean, size


def _sanitize_args(args: dict[str, Any]) -> dict[str, Any]:
    """Make syscall arguments JSON-safe; buffers become byte counts."""
    return capture_args("", args)[0]


def estimate_record_size(syscall: str, args: dict[str, Any]) -> int:
    """Bytes a raw record occupies in the ring buffer."""
    return capture_args(syscall, args)[1]


#: Argument classes recorded as they are.
SCALAR_ARGS = frozenset((str, int, float, bool, type(None)))
_BUFFERS = frozenset((bytes, bytearray))
#: What :func:`_sanitize_args` has a rule for, subclasses included;
#: a value of any other class is recorded as its ``str()``.
_RULED = (bytes, bytearray, list, dict, str, int, float, type(None))
_DROPPED = object()


def _sanitize_lane(values: list):
    """One argument over the rows of one shape, sanitised as
    :func:`_sanitize_args` would each value — decided once, on the
    lane's value classes: the new values, ``_DROPPED`` for an
    out-parameter, ``None`` for a lane that mixes the rules."""
    classes = set(map(type, values))
    if classes <= SCALAR_ARGS:
        return values
    if classes <= _BUFFERS:
        return list(map(len, values))
    if classes == {list}:
        return [sum(len(item) if isinstance(item, (bytes, bytearray)) else 1
                    for item in value) for value in values]
    if classes == {dict}:
        return _DROPPED
    if not any(issubclass(cls, _RULED) for cls in classes):
        return list(map(str, values))
    return None


def sanitized_lane(raw_args: list[dict]) -> StructLane:
    """``[_sanitize_args(args) for args in raw_args]`` as a
    :class:`~repro.backend.lanes.StructLane`, sanitised a lane at a
    time; row by row only for the rows of a shape in which one
    argument mixes the rules (a buffer in one row, an int in the
    next)."""
    struct = StructLane.of(raw_args)
    if struct is None:                  # an ``args`` that is no plain dict
        return StructLane.of([_sanitize_args(args) for args in raw_args])
    groups = []
    for shape, rows, columns in struct.groups():
        clean = dict(zip(shape, map(_sanitize_lane, columns)))
        if any(lane is None for lane in clean.values()):
            mixed = StructLane.of([_sanitize_args(raw_args[row])
                                   for row in rows])
            groups.extend((kept, [rows[at] for at in held], lanes)
                          for kept, held, lanes in mixed.groups())
            continue
        kept = [key for key, lane in clean.items() if lane is not _DROPPED]
        groups.append((tuple(kept), rows, [clean[key] for key in kept]))
    return StructLane.from_groups(len(raw_args), groups)


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

    @property
    def duration_ns(self) -> int:
        """Wall time the syscall spent in the kernel."""
        return self.time_exit - self.time

    def to_doc(self) -> dict[str, Any]:
        """The backend document for this event (sparse: no null fields)."""
        doc: dict[str, Any] = {
            "syscall": self.syscall,
            "args": self.args,
            "ret": self.ret,
            "pid": self.pid,
            "tid": self.tid,
            "proc_name": self.proc_name,
            "time": self.time,
            "time_exit": self.time_exit,
            "duration_ns": self.duration_ns,
            "session": self.session,
        }
        if self.file_type is not None:
            doc["file_type"] = self.file_type
        if self.offset is not None:
            doc["offset"] = self.offset
        if self.file_tag is not None:
            doc["file_tag"] = self.file_tag
        if self.file_path is not None:
            doc["file_path"] = self.file_path
        return doc

    def to_json(self) -> str:
        """JSON representation (what the tracer sends over the wire).

        Compact separators, insertion-ordered keys: ``to_doc`` already
        emits fields in a fixed order, so per-event key sorting bought
        nothing but CPU on the hottest serialization path.
        """
        return json.dumps(self.to_doc(), separators=(",", ":"))

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "Event":
        """Rebuild an event from a backend document."""
        return cls(
            syscall=doc["syscall"],
            args=dict(doc.get("args", {})),
            ret=doc["ret"],
            pid=doc["pid"],
            tid=doc["tid"],
            proc_name=doc["proc_name"],
            time=doc["time"],
            time_exit=doc["time_exit"],
            file_type=doc.get("file_type"),
            offset=doc.get("offset"),
            file_tag=doc.get("file_tag"),
            session=doc.get("session", ""),
            file_path=doc.get("file_path"),
        )

    def __repr__(self) -> str:
        return (f"<Event {self.syscall} tid={self.tid} ret={self.ret} "
                f"t={self.time}>")
