"""The record-frame codec and the segment engine's write-ahead log.

Every append-only record log in the repository is the same thing on
disk (byte-level spec in ``docs/STORAGE.md``): an 8-byte magic (name +
version in one token), then zero or more self-delimiting frames, each
``u32 payload length | u32 CRC-32 of payload | payload`` with a
compact UTF-8 JSON payload.  :func:`encode_frame` and
:func:`scan_frames` are the only code that packs or walks that frame;
:func:`frame_record` and :func:`recover_log` add the JSON payload, the
magic check and the recovery report, and are what the four logs share — this module's ``DIOWAL01`` storage WAL,
the tracer's spill image (:mod:`repro.tracer.spill`), the shard
recovery image (:mod:`repro.backend.router`) and the DST store journal
(:mod:`repro.dst.crash`).

Recovery is one rule for all of them: walk frames from the front and
stop at the first whose length overruns the image, whose CRC does not
match, or whose payload is not the log's record shape — everything
before that point is kept, everything from it on is reported as
``torn_bytes_dropped``, and nothing raises.  A record is therefore
durable as soon as its last payload byte hit the disk, and never
before; a strict prefix of a frame can never be mistaken for one.

The WAL itself covers the *unflushed tail* of a :class:`~repro.backend.
segments.SegmentStorage`: documents that have been acknowledged by the
backend (or handed to ``save_session``) but not yet sealed into an
immutable segment file.  On restart the log is replayed into the
in-memory buffer, so a crash between two flushes loses nothing.  Its
payload is ``[session, [doc, ...], record_id]``.

``record_id`` is assigned by the writer, starts at 1 and increases
monotonically for the life of the *store* — a :meth:`WriteAheadLog.
reset` does not restart the counter, and the segment engine persists
the highest sealed id in its manifest (``wal_sealed``).  That is what
makes replay idempotent: a crash after a flush published its segment
but before the WAL was truncated leaves the sealed records in the log,
and the next open can prove they are already covered and skip them
instead of duplicating every row.  A payload with no third element
(or id 0) is treated as "unknown id": always replayed, never skipped.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Callable, Optional

#: File magic; the trailing ``01`` is the format version.
WAL_MAGIC = b"DIOWAL01"

#: Frame header: payload length, CRC-32 of the payload.
_FRAME = struct.Struct("<II")


class WALError(Exception):
    """The write-ahead log cannot be opened or appended to."""


def encode_frame(payload: bytes) -> bytes:
    """One record frame: ``length | crc32 | payload``."""
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def scan_frames(blob: bytes, start: int = 0,
                parse: Optional[Callable] = None) -> tuple[list, int]:
    """Walk whole frames from ``start``; returns ``(payloads, end)``.

    Stops — without raising — at the first frame whose header or
    payload overruns ``blob`` or whose CRC does not match; ``end`` is
    the offset just past the last good frame.  With ``parse``, each
    payload is replaced by ``parse(payload)``, and a payload it rejects
    (``ValueError``, ``TypeError`` or ``LookupError``: checksum fine but
    not the caller's record) ends the scan the same way.
    """
    items: list = []
    pos = start
    while pos + _FRAME.size <= len(blob):
        length, crc = _FRAME.unpack_from(blob, pos)
        body = pos + _FRAME.size
        payload = blob[body:body + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            break                       # torn or damaged: stop here
        if parse is not None:
            try:
                payload = parse(payload)
            except (ValueError, TypeError, LookupError):
                break                   # CRC ok but not ours: stop
        items.append(payload)
        pos = body + length
    return items, pos


def recover_log(blob: bytes, magic: bytes,
                record: Callable) -> tuple[list, dict]:
    """Recover the records of one ``magic``-prefixed frame log.

    ``record`` turns one JSON-decoded payload into the log's record and
    raises ``ValueError``/``TypeError``/``LookupError`` for a payload
    of the wrong shape.  Tolerant by design: a foreign or missing magic
    recovers nothing, and a torn tail or a damaged interior frame ends
    recovery there.  Returns ``(records, report)``; the report carries
    ``header_ok``, ``records_recovered`` and ``torn_bytes_dropped``
    (every byte not accounted for by the magic and the kept frames).
    """
    header_ok = blob[:len(magic)] == magic
    records, end = scan_frames(
        blob, len(magic),
        lambda payload: record(json.loads(payload))) if header_ok else ([], 0)
    return records, {"header_ok": header_ok,
                     "records_recovered": len(records),
                     "torn_bytes_dropped": len(blob) - end}


def frame_record(record, default: Optional[Callable] = None) -> bytes:
    """``record`` as one frame — the write half of :func:`recover_log`.

    The payload is compact UTF-8 JSON; ``default`` is ``json.dumps``'s
    hook for values JSON cannot carry.
    """
    return encode_frame(json.dumps(record, separators=(",", ":"),
                                   default=default).encode("utf-8"))


def _wal_entry(entry) -> tuple[int, str, list[dict]]:
    session, docs = entry[0], entry[1]
    rec_id = entry[2] if len(entry) > 2 else 0
    if not isinstance(docs, list):
        raise ValueError("docs is not a list")
    if not isinstance(rec_id, int) or isinstance(rec_id, bool):
        raise ValueError("record id is not an int")
    return rec_id, session, docs


def recover_bytes(blob: bytes) -> tuple[list[tuple[int, str, list[dict]]],
                                        dict]:
    """Recover ``(record_id, session, docs)`` entries from a WAL image.

    :func:`recover_log` over ``DIOWAL01``; the report additionally
    carries ``docs_recovered``.  A two-element payload yields record
    id 0 ("unknown"; owners must always replay such records).
    """
    entries, report = recover_log(blob, WAL_MAGIC, _wal_entry)
    report["docs_recovered"] = sum(len(docs) for _, _, docs in entries)
    return entries, report


def encode_record(session: str, docs: list[dict], rec_id: int = 0) -> bytes:
    """One framed WAL record (length | crc | payload) as bytes."""
    return frame_record([session, docs, rec_id])


class WriteAheadLog:
    """Append-only durable log of not-yet-flushed document batches.

    ``open()`` recovers whatever an earlier process managed to write
    (truncating any torn tail in place) and returns the recovered
    entries so the owner can rebuild its buffer; ``append`` frames and
    flushes one batch; ``reset`` truncates back to the bare header once
    a segment flush has made the entries durable elsewhere.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.report: Optional[dict] = None
        self._handle = None
        self._size = 0
        self._next_id = 1
        self._read_only = False

    def open(self, read_only: bool = False) -> list[tuple[int, str,
                                                          list[dict]]]:
        """Recover existing entries and open the log for appending.

        With ``read_only=True`` the file is only read: a torn tail is
        reported but *not* truncated, no header is created, and
        :meth:`append` / :meth:`reset` refuse to run — the mode the
        CLI inspect path uses so looking at a damaged store never
        destroys evidence.
        """
        self._read_only = read_only
        try:
            blob = self.path.read_bytes() if self.path.exists() else None
        except OSError as exc:
            raise WALError(f"cannot read WAL {self.path}") from exc
        # A log nobody wrote yet is an empty log, not a foreign file.
        entries, self.report = recover_bytes(
            WAL_MAGIC if blob is None else blob)
        if read_only:
            self._size = len(blob or b"")
            return entries
        keep = 0                        # missing or foreign: start over
        if blob is not None and self.report["header_ok"]:
            keep = len(blob) - self.report["torn_bytes_dropped"]
        try:
            self._handle = self.path.open("r+b" if keep else "wb")
            if keep:
                self._handle.truncate(keep)
                self._handle.seek(keep)
            else:
                self._handle.write(WAL_MAGIC)
                self._handle.flush()
                keep = len(WAL_MAGIC)
        except OSError as exc:
            raise WALError(f"cannot open WAL {self.path}") from exc
        self._size = keep
        self._next_id = max((rec_id for rec_id, _, _ in entries),
                            default=0) + 1
        return entries

    def ensure_next_id(self, floor: int) -> None:
        """Raise the next record id to at least ``floor``.

        The segment engine calls this with ``wal_sealed + 1`` so that
        after a reset (empty log, nothing to recover ids from) fresh
        records can never reuse an id the manifest already marks as
        sealed — reuse would make replay skip live records.
        """
        self._next_id = max(self._next_id, floor)

    @property
    def size_bytes(self) -> int:
        """Bytes currently in the log, header included."""
        return self._size

    def append(self, session: str, docs: list[dict]) -> tuple[int, int]:
        """Frame and persist one batch; returns ``(record_id, bytes)``.

        The record is flushed to the OS before returning, so a process
        crash after ``append`` cannot lose it (a *machine* crash could
        lose the last page — the simulation's durability line, same as
        the spill WAL's).
        """
        if self._handle is None:
            raise WALError("WAL is not open"
                           + (" (read-only)" if self._read_only else ""))
        rec_id = self._next_id
        record = encode_record(session, docs, rec_id)
        try:
            self._handle.write(record)
            self._handle.flush()
        except OSError as exc:
            raise WALError(f"cannot append to WAL {self.path}") from exc
        self._size += len(record)
        self._next_id = rec_id + 1
        return rec_id, len(record)

    def reset(self) -> None:
        """Truncate back to the header after a segment flush.

        Record ids are *not* reset — they number records for the life
        of the store, which is what lets the manifest's ``wal_sealed``
        watermark distinguish sealed records from fresh ones.
        """
        if self._handle is None:
            raise WALError("WAL is not open"
                           + (" (read-only)" if self._read_only else ""))
        self._handle.seek(len(WAL_MAGIC))
        self._handle.truncate(len(WAL_MAGIC))
        self._handle.flush()
        self._size = len(WAL_MAGIC)

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.flush()
            finally:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        self.open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "open" if self._handle is not None else "closed"
        return f"<WriteAheadLog {self.path} {state} {self._size}B>"


def wal_file_size(path: str | Path) -> int:
    """On-disk size of a WAL file (0 when absent)."""
    try:
        return os.path.getsize(path)
    except OSError:
        return 0
