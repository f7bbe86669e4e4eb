"""Columnar decode of ring-buffer record batches (vectorized ingest).

One ``Event`` plus one ``dict`` per record (``Event.to_doc``, the
reference this module is tested against) is 2M short-lived Python
objects per 1M events on the hot path.  :meth:`RecordBatch.decode`
instead transposes a whole ring-buffer batch into a
:class:`~repro.backend.lanes.Lanes` — one list per field, the form
every lane batch and every column holds:

- one lane per record field (``syscall``, ``proc_name``, ``pid``,
  ``tid``, ``file_type``, ``file_tag``, ``ret``, the two timestamps,
  ``offset``), built by one comprehension each and holding the
  records' own value objects;
- ``args`` derived from the records' ``args`` dicts, as the exit
  program captured them (buffers already their sizes): grouping them
  by key tuple into a :class:`~repro.backend.lanes.StructLane` waits
  until something actually asks for ``args`` (the backend's default
  indexed fields never do, and the correlator's ``args.path`` is read
  off the records; the segment writer does), and sanitising its lanes
  then is a no-op on clean args, the work only for raw records staged
  straight into a ring;
- ``duration_ns`` and the stamped ``session``, derived on first read.

The lanes are in ``Event.to_doc`` key order, so the documents the
batch builds are the ones ``Event.to_doc`` would have produced — same
key order, same sparsity, same value objects.
"""

from __future__ import annotations

from operator import sub

from repro.backend.lanes import Derived, Lanes, sparse, stamp
from repro.tracer.events import SCALAR_ARGS, sanitized_lane


def _sanitized(rows: int, raw_args: list[dict]):
    return sanitized_lane(raw_args)


def _raw_arg(parts: list[str], raw_args: list[dict]):
    """One argument of every row read off the records (the
    correlator's ``path``): what sanitising leaves alone."""
    if len(parts) != 1:
        return None
    out = [raw.get(parts[0]) for raw in raw_args]
    return out if set(map(type, out)) <= SCALAR_ARGS else None


def _durations(rows: int, time_exit: list, time: list) -> list:
    return list(map(sub, time_exit, time))


class RecordBatch(Lanes):
    """One ring-buffer batch decoded into lanes (see :meth:`decode`)."""

    __slots__ = ()

    @classmethod
    def decode(cls, records: list[dict], session: str = "") -> "RecordBatch":
        """Decode raw ring records (the consumer's ``_take_batch`` output).

        One C-speed pass per lane instead of one Python ``Event`` per
        record.  The records' ``args`` dicts are referenced, not copied.
        """
        time = [r["enter_ns"] for r in records]
        time_exit = [r["exit_ns"] for r in records]
        return cls(len(records), {
            "syscall": ([r["syscall"] for r in records], None),
            "args": (Derived(_sanitized, ([r["args"] for r in records],),
                             _raw_arg), None),
            "ret": ([r["ret"] for r in records], None),
            "pid": ([r["pid"] for r in records], None),
            "tid": ([r["tid"] for r in records], None),
            "proc_name": ([r["comm"] for r in records], None),
            "time": (time, None),
            "time_exit": (time_exit, None),
            "duration_ns": (Derived(_durations, (time_exit, time)), None),
            "session": stamp(session),
            "file_type": sparse([r.get("file_type") for r in records]),
            "offset": sparse([r.get("offset") for r in records]),
            "file_tag": sparse([r.get("file_tag") for r in records]),
        })
