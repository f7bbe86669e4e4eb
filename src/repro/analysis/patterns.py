"""I/O access-pattern classifiers over traced events.

Implements the automated correlation algorithms the paper's Future
Directions section calls for: detectors that flag the inefficient or
erroneous behaviors DIO exposes, directly over the stored events'
lanes (one :class:`~repro.analysis.session.SessionEvents` read).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.analysis.session import READS as _READS, SessionEvents
from repro.backend.store import DocumentStore


class AccessPattern(NamedTuple):
    """Per-file access characterization."""

    file_tag: str
    file_path: Optional[str]
    reads: int
    writes: int
    sequential_fraction: float
    mean_request_bytes: float
    #: Mean over read requests only; a single large write must not
    #: mask a small-read pattern.
    mean_read_bytes: float


def classify_file_accesses(store: DocumentStore, index: str,
                           session: Optional[str] = None,
                           view: Optional[SessionEvents] = None
                           ) -> list[AccessPattern]:
    """Characterize each file's access pattern from its data syscalls.

    An access is *sequential* when it starts exactly where the previous
    access on the same file ended.  ``view`` is a caller's
    :class:`SessionEvents` of the same session, to share its one read;
    the patterns are worked out once per view.
    """
    view = view or SessionEvents(store, index, session)
    return list(view.derived(_access_patterns))


def _access_patterns(view: SessionEvents) -> list[AccessPattern]:
    syscalls = view.values("syscall")
    rets = view.values("ret")
    offsets = view.values("offset")
    paths = view.values("file_path")
    patterns = []
    for tag, rows in sorted(view.data_by_file.items()):
        reads = request_bytes = read_bytes = 0
        sequential = considered = 0
        expected: Optional[int] = None
        for row in rows:
            size = max(rets[row], 0)
            request_bytes += size
            if syscalls[row] in _READS:
                reads += 1
                read_bytes += size
            offset = offsets[row]
            if offset is None:
                continue
            if expected is not None:
                considered += 1
                if offset == expected:
                    sequential += 1
            expected = offset + size
        patterns.append(AccessPattern(
            file_tag=tag,
            file_path=paths[rows[0]],
            reads=reads,
            writes=len(rows) - reads,
            sequential_fraction=(sequential / considered) if considered else 1.0,
            mean_request_bytes=request_bytes / len(rows),
            mean_read_bytes=read_bytes / reads if reads else 0.0,
        ))
    return patterns


def small_io_files(store: DocumentStore, index: str,
                   threshold_bytes: int = 4096,
                   min_requests: int = 8,
                   session: Optional[str] = None) -> list[AccessPattern]:
    """Files accessed with many small requests — a costly pattern (§I).

    Flagged when either the overall or the read-only mean request size
    falls under ``threshold_bytes``.
    """
    return [pattern
            for pattern in classify_file_accesses(store, index, session)
            if (pattern.reads + pattern.writes) >= min_requests
            and (pattern.mean_request_bytes < threshold_bytes
                 or (pattern.reads >= min_requests
                     and pattern.mean_read_bytes < threshold_bytes))]


class StaleOffsetResume(NamedTuple):
    """A read resumed at a stale offset on a fresh file (data loss!)."""

    file_tag: str
    file_path: Optional[str]
    proc_name: str
    offset: int
    time: int


def find_stale_offset_resumes(store: DocumentStore, index: str,
                              session: Optional[str] = None,
                              view: Optional[SessionEvents] = None
                              ) -> list[StaleOffsetResume]:
    """Detect the Fluent Bit signature (§III-B, Fig. 2a step 5).

    For some file tag, the *first* read ever issued against the file
    starts at an offset > 0 and returns 0 bytes: the reader resumed
    from a position that belongs to a previous file that had the same
    name and inode.  Every later read of that tag returning data would
    clear the suspicion; a tag whose reads never returned data past
    that offset is flagged.
    """
    view = view or SessionEvents(store, index, session)
    syscalls = view.values("syscall")
    rets = view.values("ret")
    offsets = view.values("offset")
    findings = []
    for tag, rows in sorted(view.data_by_file.items()):
        reads = [row for row in rows if syscalls[row] in _READS]
        if not reads:
            continue
        first = reads[0]
        offset = offsets[first]
        if offset is None or offset == 0 or rets[first] != 0:
            continue
        if any(rets[row] > 0 for row in reads):
            continue
        findings.append(StaleOffsetResume(
            file_tag=tag,
            file_path=view.values("file_path")[first],
            proc_name=view.values("proc_name")[first],
            offset=offset,
            time=view.values("time")[first],
        ))
    return findings
