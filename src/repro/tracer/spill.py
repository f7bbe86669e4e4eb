"""Spill-to-WAL dead-letter path for the bulk shipper.

When a batch exhausts its bulk retries, dropping it would silently
lose records the ring buffer already *accepted* — corrupting exactly
the diagnosis data the paper's case studies depend on.  Instead the
consumer appends the batch to this write-ahead log (the moral
equivalent of Recorder's buffered on-disk trace format, PAPERS.md)
and replays it into the backend once the breaker lets requests
through again.

The WAL is an in-memory, append-only sequence of immutable
*segments* (one per spilled batch); writing is charged to the
simulated clock by the consumer (``spill_write_ns_per_event``), so
spilling is cheap-but-not-free exactly like a local disk append.
Replay is oldest-first and at-least-once-attempted / exactly-once-
applied: a segment leaves the log only after the backend accepted
it, and since a failed bulk request never partially indexes (see
:mod:`repro.faults`), a record can neither be lost nor duplicated.

Its durable image (:meth:`SpillWAL.to_bytes` / :meth:`SpillWAL.recover`)
is the repository's one record-log format — ``DIOSPL01`` then
``len | crc32 | payload`` frames, the codec :mod:`repro.backend.wal`
owns and ``docs/STORAGE.md`` specifies — so it tears like the storage
WAL does: recovery keeps the intact frame prefix and stops at the
first torn or damaged frame.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Optional, Sequence

from repro.backend.wal import frame_record, recover_log

#: Image magic; the trailing ``01`` is the format version.
SPILL_MAGIC = b"DIOSPL01"


class SpillSegment(NamedTuple):
    """One spilled batch, immutable once written."""

    seq: int
    docs: tuple
    spilled_at_ns: int
    reason: str


def _segment(entry) -> SpillSegment:
    """One image payload as a segment; ``ValueError`` if it is not one."""
    seq, spilled_at_ns, reason, docs = entry
    if not isinstance(docs, list) or not docs:
        raise ValueError("bad docs payload")
    return SpillSegment(seq=int(seq), docs=tuple(docs),
                        spilled_at_ns=int(spilled_at_ns), reason=str(reason))


class SpillWAL:
    """Append-only dead-letter log of failed bulk batches."""

    def __init__(self) -> None:
        self._segments: deque[SpillSegment] = deque()
        self._next_seq = 0
        #: Lifetime counters (exported as ``dio_spill_*``).
        self.spilled_records_total = 0
        self.replayed_records_total = 0

    # ------------------------------------------------------------------
    # Write side

    def append(self, docs: Sequence[dict], now_ns: int,
               reason: str = "retries-exhausted") -> SpillSegment:
        """Persist one failed batch as a new tail segment."""
        if not docs:
            raise ValueError("refusing to spill an empty batch")
        segment = SpillSegment(seq=self._next_seq, docs=tuple(docs),
                               spilled_at_ns=now_ns, reason=reason)
        self._next_seq += 1
        self._segments.append(segment)
        self.spilled_records_total += len(docs)
        return segment

    # ------------------------------------------------------------------
    # Replay side

    def peek(self) -> Optional[SpillSegment]:
        """The oldest unreplayed segment, left in place."""
        return self._segments[0] if self._segments else None

    def pop(self) -> SpillSegment:
        """Retire the oldest segment after the backend accepted it."""
        if not self._segments:
            raise IndexError("spill WAL is empty")
        segment = self._segments.popleft()
        self.replayed_records_total += len(segment.docs)
        return segment

    # ------------------------------------------------------------------
    # Durability (crash-recovery model)
    #
    # The in-memory WAL models an on-disk append-only file; these two
    # methods are the serialization boundary the crash tests exercise:
    # a crash may tear the file at *any byte*, and recovery must keep
    # every fully-written segment before the tear and nothing after.

    def to_bytes(self) -> bytes:
        """Serialize the pending segments as a framed log image.

        ``DIOSPL01`` followed by one record frame per pending segment,
        oldest first (the codec of :mod:`repro.backend.wal`; payload
        ``[seq, spilled_at_ns, reason, [doc, ...]]``).  Lifetime
        counters are *not* serialized — they belong to the consumer
        process, not the log.
        """
        return SPILL_MAGIC + b"".join(
            frame_record([segment.seq, segment.spilled_at_ns,
                          segment.reason, list(segment.docs)])
            for segment in self._segments)

    @classmethod
    def recover(cls, data: bytes) -> tuple["SpillWAL", dict]:
        """Rebuild a WAL from possibly-torn serialized bytes.

        Tolerant by design — a crash can leave the file empty, truncate
        it mid-frame, or duplicate a segment if an append was retried
        after an unacknowledged write.  Recovery never raises: it keeps
        the non-duplicate segments of the intact frame prefix (in
        order), drops everything from the first torn or damaged frame
        on, and reports what it did::

            wal, report = SpillWAL.recover(blob)

        ``report`` is :func:`~repro.backend.wal.recover_log`'s
        (``header_ok``, ``records_recovered``, ``torn_bytes_dropped``)
        plus ``segments_recovered``, ``docs_recovered`` and
        ``duplicates_dropped``.  A foreign or corrupt magic recovers an
        empty (but usable) WAL: nothing after it can be trusted to be
        a segment of ours.
        """
        wal = cls()
        segments, report = recover_log(data, SPILL_MAGIC, _segment)
        first_by_seq: dict[int, SpillSegment] = {}
        for segment in segments:
            first_by_seq.setdefault(segment.seq, segment)
        wal._segments.extend(first_by_seq.values())
        wal._next_seq = max(first_by_seq, default=-1) + 1
        report["segments_recovered"] = len(first_by_seq)
        report["docs_recovered"] = wal.pending_records
        report["duplicates_dropped"] = len(segments) - len(first_by_seq)
        return wal, report

    # ------------------------------------------------------------------
    # Introspection

    @property
    def pending_batches(self) -> int:
        """Segments awaiting replay."""
        return len(self._segments)

    @property
    def pending_records(self) -> int:
        """Records awaiting replay."""
        return sum(len(segment.docs) for segment in self._segments)

    def bind_telemetry(self, registry) -> None:
        """Expose the WAL counters as ``dio_spill_*`` metrics."""
        for name, help_text, reader in (
            ("dio_spill_records_total",
             "Records written to the spill WAL after exhausted retries.",
             lambda: self.spilled_records_total),
            ("dio_spill_replayed_records_total",
             "Spilled records successfully replayed into the backend.",
             lambda: self.replayed_records_total),
        ):
            registry.counter(name, help_text).set_function(reader)
        registry.gauge(
            "dio_spill_pending_records",
            "Records sitting in the spill WAL awaiting replay.",
        ).set_function(lambda: self.pending_records)

    def __repr__(self) -> str:
        return (f"<SpillWAL pending={self.pending_records} "
                f"spilled={self.spilled_records_total} "
                f"replayed={self.replayed_records_total}>")
