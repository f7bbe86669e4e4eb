"""Post-mortem session storage (paper §II, design principles).

*"DIO allows storing different tracing executions from the same or
different applications and posteriorly analyzing and comparing them."*

There is one storage engine and one interchange format:

* :func:`save_session` persists a session as a directory managed by
  :class:`repro.backend.segments.SegmentStorage` — immutable columnar
  segment files with zone maps and checksummed footers behind a
  write-ahead log (see ``docs/STORAGE.md``), giving O(segment-index)
  cold start instead of O(re-parse everything).  It reads the session
  as lanes (:meth:`DocumentStore.lanes`) and writes blocks from them:
  events a tracer shipped and nobody has queried are saved without
  ever becoming documents;
* :func:`export_session` / :func:`import_session` write and read a
  single JSON-lines file (a header line with session metadata, then
  one event document per line) — what you hand to another tool or
  another machine, and the always-correct differential oracle the
  segment engine is tested against.  :func:`recover_session` is the
  tolerant reader for a file a crash or a partial copy damaged.

:func:`load_session` takes either: a directory is a segment store, a
file is an export, so a reader never has to know how a capture was
written.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from repro.backend.lanes import time_ordered
from repro.backend.store import INDEXED_EVENT_FIELDS, DocumentStore

#: Format marker written in the header line.
FORMAT = "dio-session-v1"


class SessionError(Exception):
    """Malformed session file or unknown session."""


def list_sessions(store: DocumentStore, index: str = "dio_trace") -> list[dict]:
    """Summaries of the sessions stored in ``index``.

    Returns one dict per session: name, event count, first/last event
    timestamps, and the distinct process names seen.
    """
    try:
        response = store.search(index, size=0, aggs={
            "sessions": {
                "terms": {"field": "session", "size": 1000},
                "aggs": {
                    "first": {"min": {"field": "time"}},
                    "last": {"max": {"field": "time"}},
                    "procs": {"terms": {"field": "proc_name", "size": 100}},
                },
            },
        })
    except Exception as exc:  # index missing
        raise SessionError(f"cannot list sessions in {index!r}") from exc
    summaries = []
    for bucket in response["aggregations"]["sessions"]["buckets"]:
        summaries.append({
            "session": bucket["key"],
            "events": bucket["doc_count"],
            "first_ns": bucket["first"]["value"],
            "last_ns": bucket["last"]["value"],
            "processes": sorted(b["key"]
                                for b in bucket["procs"]["buckets"]),
        })
    return summaries


def export_session(store: DocumentStore, session: str, path: str | Path,
                   index: str = "dio_trace") -> int:
    """Write one session's events to a JSON-lines file.

    Returns the number of exported events.  The file starts with a
    header object carrying the format marker and session name.
    """
    response = store.search(index, query={"term": {"session": session}},
                            sort=["time"], size=None)
    hits = response["hits"]["hits"]
    if not hits:
        raise SessionError(f"session {session!r} has no events in {index!r}")
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        header = {"format": FORMAT, "session": session,
                  "events": len(hits), "index": index}
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        # Data lines are compact and keep document key order: sorting
        # every doc's keys was pure overhead on the export hot path.
        # (The header stays sorted for stable diffs.)
        for hit in hits:
            handle.write(json.dumps(hit["_source"],
                                    separators=(",", ":")) + "\n")
    return len(hits)


def _read_session_file(path: Path, errors: str
                       ) -> tuple[Optional[dict], list[dict], list[str]]:
    """The one parser of a session file: ``(header, docs, corrupt)``.

    ``header`` is the first line's JSON object (``None`` when it is
    not one); ``docs`` are the data lines that are event documents, in
    file order — none are read under a foreign format marker.  A torn
    write (crash mid-export, partial copy) leaves a truncated final
    line: every such line is left out of ``docs`` and described in
    ``corrupt``.  ``errors`` is the UTF-8 decoding policy.
    """
    lines = path.read_text(encoding="utf-8", errors=errors).split("\n")
    docs: list[dict] = []
    corrupt: list[str] = []
    try:
        header = json.loads(lines[0])
    except ValueError:
        header = None
    if not isinstance(header, dict):
        return None, docs, corrupt
    if header.get("format") != FORMAT:
        return header, docs, corrupt
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except ValueError:
            corrupt.append(f"corrupt data line {lineno} (truncated export?)")
            continue
        if isinstance(doc, dict):
            docs.append(doc)
        else:
            corrupt.append(f"data line {lineno} is not an event document")
    return header, docs, corrupt


def _index_docs(store: DocumentStore, index: str, session: str,
                docs: list[dict]) -> None:
    for doc in docs:
        doc["session"] = session
    store.ensure_index(index, indexed_fields=INDEXED_EVENT_FIELDS)
    store.bulk(index, docs)


def import_session(store: DocumentStore, path: str | Path,
                   index: str = "dio_trace",
                   rename_to: Optional[str] = None) -> str:
    """Load a session file into ``index``; returns the session name.

    Strict: a corrupt or non-document data line, or an event count
    that disagrees with the header, raises :class:`SessionError` (not
    a raw ``JSONDecodeError`` leaking parser internals) and imports
    nothing.  ``rename_to`` re-labels the session on import, so the
    same capture can be loaded twice side by side (e.g. for
    before/after diffing).
    """
    path = Path(path)
    header, docs, corrupt = _read_session_file(path, errors="strict")
    if header is None:
        raise SessionError(f"{path} is not a session file")
    if header.get("format") != FORMAT:
        raise SessionError(
            f"{path}: unsupported format {header.get('format')!r}")
    if corrupt:
        raise SessionError(f"{path}: {corrupt[0]}")
    if len(docs) != header.get("events"):
        raise SessionError(
            f"{path}: header claims {header.get('events')} events, "
            f"found {len(docs)}")
    session = rename_to or header["session"]
    _index_docs(store, index, session, docs)
    return session


def save_session(store: DocumentStore, session: str, path: str | Path,
                 index: str = "dio_trace", storage_mode: str = "segments",
                 flush_events: int = 100_000) -> int:
    """Persist one session as a segment store; returns the event count.

    Writes a new :class:`~repro.backend.segments.SegmentStorage`
    directory at ``path`` (one that already holds a store is refused),
    chunking the time-sorted events into
    ``flush_events``-sized immutable segments; :func:`load_session`
    rebuilds a store byte-identical to importing an export of the same
    session.  One lane read, one ordering rule
    (:func:`repro.backend.lanes.time_ordered`, the one a load uses),
    one column writer: no document is built, and the files are what
    writing the sorted documents row by row would produce.
    ``storage_mode`` selects nothing: the parameter is kept
    because a positional caller (the end-to-end benchmark) still names
    the layout in that slot, and any value other than ``"segments"``
    is refused — a JSON-lines file is :func:`export_session`'s job.
    """
    if storage_mode != "segments":
        raise SessionError(
            f"save_session always writes a segment store, not "
            f"{storage_mode!r}; use export_session for a JSON-lines file")
    from repro.backend.segments import (MANIFEST_NAME, WAL_NAME,
                                        SegmentError, SegmentStorage)
    _, batch = store.lanes(index, {"term": {"session": session}})
    if not len(batch):
        raise SessionError(f"session {session!r} has no events in {index!r}")
    path = Path(path)
    if path.exists() and not path.is_dir():
        raise SessionError(f"{path}: segment stores need a directory, "
                           "not a file")
    if any((path / name).exists() for name in (MANIFEST_NAME, WAL_NAME)):
        # Its segments would load as one session, under its first label.
        raise SessionError(f"{path} already holds a segment store; save "
                           "each session into a directory of its own")
    try:
        engine = SegmentStorage(path, flush_events=flush_events)
        count = engine.import_batch(time_ordered(batch), session=session)
        engine.close()
    except SegmentError as exc:
        raise SessionError(f"cannot write segment store {path}") from exc
    return count


def load_session(store: DocumentStore, path: str | Path,
                 index: str = "dio_trace",
                 rename_to: Optional[str] = None) -> str:
    """Load a persisted session: a segment store or an export file.

    A directory is opened as a segment store, which costs O(segment
    index); its blocks are then verified, decoded and handed to the
    store as lanes, rows in stable time order (see
    :meth:`SegmentStorage.load_into`) — the same document order
    :func:`import_session` produces from a sorted export, so either
    rebuilds an indistinguishable store, except that here documents
    are only assembled when a request returns one.  A damaged block
    still fails this call.  Anything else is read as a JSON-lines
    export (whose own header validation runs at import time).
    Returns the session name.
    """
    if not Path(path).is_dir():
        return import_session(store, path, index=index, rename_to=rename_to)
    from repro.backend.segments import SegmentError, SegmentStorage
    try:
        # Loading is a read: open read-only so a damaged store is
        # reported, not rewritten, by the act of looking at it.
        engine = SegmentStorage(path, create=False, read_only=True)
        session, count = engine.load_into(store, index=index,
                                          rename_to=rename_to)
        engine.close()
    except SegmentError as exc:
        raise SessionError(f"cannot load segment store {path}") from exc
    if count == 0:
        raise SessionError(f"segment store {path} holds no events")
    return session


#: Fields identifying one traced event for duplicate-replay detection.
#: ``(tid, time)`` is unique per event in a capture (syscall CPU costs
#: are strictly positive, so one thread cannot enter two syscalls at
#: the same virtual nanosecond); ``syscall`` is belt and braces.
_EVENT_KEY = ("tid", "time", "syscall")


def recover_session(store: DocumentStore, path: str | Path,
                    index: str = "dio_trace",
                    rename_to: Optional[str] = None) -> dict:
    """Best-effort import of a damaged or partial session file.

    Where :func:`import_session` is strict (any corruption raises),
    recovery keeps every intact event and reports what it could not
    keep — the right tool after a crash tore the export mid-write, or
    a replayed WAL re-imported lines that were already applied:

    * a torn/corrupt data line is dropped (counted, never crashes);
    * a header event-count mismatch is tolerated (counted);
    * duplicate events — same ``(tid, time, syscall)`` — are applied
      once (exactly-once after replay);
    * an empty file or corrupt header recovers zero events instead of
      raising.

    Returns a report dict: ``session``, ``imported``,
    ``dropped_corrupt``, ``dropped_duplicates``, ``header_ok``,
    ``count_mismatch``.
    """
    path = Path(path)
    report = {"session": None, "imported": 0, "dropped_corrupt": 0,
              "dropped_duplicates": 0, "header_ok": False,
              "count_mismatch": False}
    try:
        header, docs, corrupt = _read_session_file(path, errors="replace")
    except OSError as exc:
        raise SessionError(f"cannot read {path}") from exc
    if header is None or header.get("format") != FORMAT:
        return report
    report["header_ok"] = True
    report["dropped_corrupt"] = len(corrupt)
    session = rename_to or header.get("session") or path.stem
    report["session"] = session
    first_by_key: dict[tuple, dict] = {}
    for doc in docs:
        first_by_key.setdefault(
            tuple(doc.get(field) for field in _EVENT_KEY), doc)
    report["dropped_duplicates"] = len(docs) - len(first_by_key)
    expected = header.get("events")
    if isinstance(expected, int) and expected != len(first_by_key):
        report["count_mismatch"] = True
    if first_by_key:
        _index_docs(store, index, session, list(first_by_key.values()))
    report["imported"] = len(first_by_key)
    return report
