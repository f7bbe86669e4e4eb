"""What the tracer records of a syscall's arguments.

One traced event carries the paper's full collected-information set
(§II-B): request type, arguments and return value; PID, TID and
process name; entry and exit timestamps; file type, offset and tag.
:class:`~repro.tracer.batch.RecordBatch` decodes a ring batch of them
into lanes.  Buffers in syscall arguments are recorded as their
*sizes*, never their contents, matching what DIO records; this module
holds that rule, per row (:func:`capture_args`) and per lane
(:func:`sanitized_lane`).
"""

from __future__ import annotations

from typing import Any

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
