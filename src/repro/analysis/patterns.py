"""I/O access-pattern classifiers over traced events.

Implements the automated correlation algorithms the paper's Future
Directions section calls for: detectors that flag the inefficient or
erroneous behaviors DIO exposes, directly over the stored events'
lanes (one :class:`~repro.analysis.session.SessionEvents` read).
"""

from __future__ import annotations

from itertools import chain, compress, groupby, repeat
from operator import is_not, itemgetter
from typing import NamedTuple, Optional

import numpy as np

from repro.analysis.session import READS as _READS, STEP_ROWS, SessionEvents
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
    """Lane arithmetic over files' data rows, :data:`STEP_ROWS` at a time:
    an access is sequential if it starts where the file's last ended."""
    per_file = sorted(view.data_by_file.items())
    steps = np.cumsum([len(rows) for _, rows in per_file]) // STEP_ROWS
    return [pattern for _, step in groupby(zip(steps.tolist(), per_file),
                                           itemgetter(0))
            for pattern in _step_patterns(view, [item for _, item in step])]


def _step_patterns(view: SessionEvents, per_file: list) -> list:
    lengths = [len(rows) for _, rows in per_file]
    rows = list(chain.from_iterable(rows for _, rows in per_file))
    starts = np.cumsum([0] + lengths[:-1])
    sizes = np.maximum(np.fromiter(map(view.values("ret").__getitem__, rows),
                                   np.int64, len(rows)), 0)
    code, codes = view.codes("syscall")
    is_read = np.zeros(len(code), bool)
    is_read[[code[name] for name in _READS if name in code]] = True
    reads = is_read[codes[rows]]
    offsets = view.values("offset")
    carried = list(map(is_not, map(offsets.__getitem__, rows), repeat(None)))
    placed = np.flatnonzero(carried)
    files = np.repeat(np.arange(len(per_file)), lengths)[placed]
    at = np.fromiter(map(offsets.__getitem__, compress(rows, carried)),
                     np.int64, len(placed))
    follows = files[1:] == files[:-1]
    hits = follows & (at[1:] == (at + sizes[placed])[:-1])
    paths = view.values("file_path")
    return [AccessPattern(
        file_tag=tag, file_path=paths[file_rows[0]], reads=read_count,
        writes=len(file_rows) - read_count,
        sequential_fraction=(in_order / seen) if seen else 1.0,
        mean_request_bytes=request_bytes / len(file_rows),
        mean_read_bytes=read_bytes / read_count if read_count else 0.0)
        for (tag, file_rows), read_count, request_bytes, read_bytes,
        in_order, seen in zip(
            per_file, np.add.reduceat(reads, starts, dtype=np.int64).tolist(),
            np.add.reduceat(sizes, starts).tolist(),
            np.add.reduceat(sizes * reads, starts).tolist(),
            np.bincount(files[1:][hits], minlength=len(per_file)).tolist(),
            np.bincount(files[1:][follows], minlength=len(per_file)).tolist())]


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


def stale_offset_polls(view: SessionEvents,
                       confirm_after: int = 3) -> list[list[int]]:
    """The Fluent Bit signature (§III-B, Fig. 2a step 5), as read rows.

    For some file tag, the *first* read ever issued against the file
    starts at an offset > 0 and returns 0 bytes: the reader resumed
    from a position that belongs to a previous file that had the same
    name and inode.  The tag is flagged once ``confirm_after`` more
    reads of it returned no data, or at the session's end if none of
    its later reads returned data; a read that returns data first
    clears it.  Data arriving after the confirmation changes nothing:
    the bytes before the stale offset were skipped either way.

    Returns each flagged tag's first read row and the empty reads after
    it (up to the confirming one), in the order a pass in time order
    settles them: confirmed tags as their confirming read goes by, then
    the rest at the end, by first read.
    """
    tags = view.values("file_tag")
    rets = view.values("ret")
    offsets = view.values("offset")
    per_tag: dict = {}
    for row in view.syscall_rows(_READS):
        if tags[row] is not None:
            per_tag.setdefault(tags[row], []).append(row)
    confirmed, pending = [], []
    for reads in per_tag.values():
        first = reads[0]
        offset = offsets[first]
        if not (offset is not None and offset > 0 and rets[first] == 0):
            continue
        polls = [first]
        for row in reads[1:]:
            if rets[row] > 0:                   # data arrived: all clear
                break
            polls.append(row)
            if len(polls) > confirm_after:
                confirmed.append(polls)
                break
        else:
            pending.append(polls)
    confirmed.sort(key=itemgetter(-1))
    return confirmed + pending


def find_stale_offset_resumes(store: DocumentStore, index: str,
                              session: Optional[str] = None,
                              view: Optional[SessionEvents] = None
                              ) -> list[StaleOffsetResume]:
    """The tags :func:`stale_offset_polls` flags, by tag, each as its
    first read (the stale-offset detector's rule)."""
    view = view or SessionEvents(store, index, session)
    lanes = [view.values(field) for field in StaleOffsetResume._fields]
    return sorted((StaleOffsetResume(*(values[polls[0]] for values in lanes))
                   for polls in stale_offset_polls(view)),
                  key=itemgetter(0))
