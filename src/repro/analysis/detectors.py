"""A library of automated I/O-misbehaviour detectors (paper §V).

The paper's future-work section proposes building *"a collection of
correlation algorithms that can quickly identify the inefficient
behaviors observed in the aforementioned applications"*.  This module
holds the post-mortem half of that collection: each detector runs a
correlation over the stored events of one session and reports
:class:`Finding` objects.  The other half — the stale-offset resume,
descriptor leaks, latency-spike blame, write amplification and io_uring
completion lag — are streaming detectors (:mod:`repro.analysis.streaming`)
that also ride ``--follow`` and the tracer's consumer path.  Every
finding name belongs to exactly one detector of the two batteries.

The post-mortem battery covers costly access patterns (small/random
I/O, short-lived file churn), failed-syscall clusters and the Fig. 4
I/O contention correlation.
"""

from __future__ import annotations

from operator import gt, lt
from typing import Any, Callable, NamedTuple, Optional, Sequence

from repro.analysis.contention import detect_contention
from repro.analysis.patterns import classify_file_accesses
from repro.analysis.session import WRITES, SessionEvents
from repro.backend.store import DocumentStore
from repro.kernel.errno import Errno


class Finding(NamedTuple):
    """One detected issue.

    ``evidence`` links the finding back to the raw events that support
    it: ``{"event_ids": [...], "window": {"start_ns", "end_ns"}}``.
    Batch detectors fill it from the stored events (ids and times read
    off the session's lanes); streaming detectors fill
    what they can afford in bounded memory (ids are capped).  It is a
    trailing field with a default, so positional construction — and
    ``__str__`` — are unchanged.
    """

    detector: str
    severity: str  # "info" | "warning" | "critical"
    title: str
    details: dict
    evidence: Optional[dict] = None

    def __str__(self) -> str:
        return f"[{self.severity}] {self.detector}: {self.title}"

    def as_dict(self) -> dict:
        """JSON-ready representation (reports, ``--json`` outputs)."""
        return {
            "detector": self.detector,
            "severity": self.severity,
            "title": self.title,
            "details": dict(self.details),
            "evidence": dict(self.evidence) if self.evidence else None,
        }


#: Cap on event ids carried inside one finding's evidence.
EVIDENCE_ID_CAP = 20


def make_evidence(event_ids: Sequence[str] = (),
                  start_ns: Optional[int] = None,
                  end_ns: Optional[int] = None) -> dict:
    """Build the canonical evidence dict (ids capped, window optional)."""
    evidence: dict = {"event_ids": [str(i) for i in
                                    list(event_ids)[:EVIDENCE_ID_CAP]]}
    if start_ns is not None or end_ns is not None:
        evidence["window"] = {"start_ns": int(start_ns or 0),
                              "end_ns": int(end_ns if end_ns is not None
                                            else start_ns or 0)}
    return evidence


def events_evidence(view: SessionEvents, rows: Sequence[int]) -> dict:
    """Evidence (capped ids + time window) for ``rows`` of ``view``."""
    times = list(map(view.times.__getitem__, rows))
    return make_evidence(list(map(view.ids.__getitem__,
                                  rows[:EVIDENCE_ID_CAP])),
                         min(times) if times else None,
                         max(times) if times else None)


def _compares(op: Callable[[Any, Any], bool],
             bound: Any) -> Callable[[Any], bool]:
    """What one bound of a ``range`` clause asks of a value:
    ``op(value, bound)``, false for a missing value or one that does not
    compare with ``bound``."""
    def test(value: Any) -> bool:
        if value is None:
            return False
        try:
            return op(value, bound)
        except TypeError:
            return False
    return test


_failed = _compares(lt, 0)
_transferred = _compares(gt, 0)


class Detector:
    """Base class: a named correlation over one session's events."""

    #: Unique detector name (kebab-case).
    name = "detector"
    #: One-line description shown in reports.
    description = ""

    def run(self, store: DocumentStore, index: str,
            session: Optional[str] = None,
            view: Optional[SessionEvents] = None) -> list[Finding]:
        """Return findings for ``session`` (or the whole index).

        ``view`` is a caller's read of the same session, shared by a
        battery; without one the detector reads the session itself.
        """
        return self.detect(view or SessionEvents(store, index, session))

    def detect(self, view: SessionEvents) -> list[Finding]:
        """The correlation itself.

        Read the session's lanes, rows and evidence off ``view``;
        ``size=0`` aggregations go to ``view.store``.  Never send a
        search that returns hits, and build a document only for what a
        finding cites (docs/ARCHITECTURE.md).
        """
        raise NotImplementedError


class SmallIODetector(Detector):
    """Costly access pattern: many small requests (paper §I)."""

    name = "small-io"
    description = "files accessed with many requests far below block size"

    def __init__(self, threshold_bytes: int = 4096, min_requests: int = 16):
        self.threshold_bytes = threshold_bytes
        self.min_requests = min_requests

    def detect(self, view):
        findings = []
        for pattern in classify_file_accesses(
                view.store, view.index, view.session, view):
            requests = pattern.reads + pattern.writes
            if requests < self.min_requests:
                continue
            relevant = (pattern.mean_read_bytes if pattern.reads >= pattern.writes
                        else pattern.mean_request_bytes)
            if 0 < relevant < self.threshold_bytes / 4:
                findings.append(Finding(
                    detector=self.name,
                    severity="warning",
                    title=(f"{pattern.file_path or pattern.file_tag}: "
                           f"{requests} requests averaging "
                           f"{relevant:.0f} B — consider batching"),
                    details={"file_tag": pattern.file_tag,
                             "requests": requests,
                             "mean_bytes": relevant},
                    evidence=events_evidence(
                        view, view.by_file_tag[pattern.file_tag]),
                ))
        return findings


class RandomAccessDetector(Detector):
    """Costly access pattern: random file access (paper §I)."""

    name = "random-access"
    description = "read-heavy files accessed at scattered offsets"

    def __init__(self, max_sequential_fraction: float = 0.25,
                 min_reads: int = 16):
        self.max_sequential_fraction = max_sequential_fraction
        self.min_reads = min_reads

    def detect(self, view):
        findings = []
        for pattern in classify_file_accesses(
                view.store, view.index, view.session, view):
            if (pattern.reads >= self.min_reads
                    and pattern.sequential_fraction
                    <= self.max_sequential_fraction):
                findings.append(Finding(
                    detector=self.name,
                    severity="info",
                    title=(f"{pattern.file_path or pattern.file_tag}: "
                           f"{pattern.reads} reads, only "
                           f"{pattern.sequential_fraction * 100:.0f}% "
                           "sequential"),
                    details={"file_tag": pattern.file_tag,
                             "reads": pattern.reads,
                             "sequential_fraction":
                                 pattern.sequential_fraction},
                    evidence=events_evidence(
                        view, view.by_file_tag[pattern.file_tag]),
                ))
        return findings


class FailedSyscallDetector(Detector):
    """Erroneous usage: clusters of failing syscalls."""

    name = "failed-syscalls"
    description = "repeated syscall failures grouped by (syscall, errno)"

    def __init__(self, min_failures: int = 3):
        self.min_failures = min_failures

    def detect(self, view):
        syscalls = view.values("syscall")
        clusters: dict[tuple[str, int], list[int]] = {}
        for row, ret in enumerate(view.values("ret")):
            if _failed(ret):
                clusters.setdefault((syscalls[row], -ret), []).append(row)
        findings = []
        for (syscall, errno_value), rows in sorted(clusters.items()):
            if len(rows) < self.min_failures:
                continue
            try:
                errno_name = Errno(errno_value).name
            except ValueError:
                errno_name = str(errno_value)
            findings.append(Finding(
                detector=self.name,
                severity="warning",
                title=(f"{syscall} failed with {errno_name} "
                       f"{len(rows)} times"),
                details={"syscall": syscall, "errno": errno_name,
                         "count": len(rows)},
                evidence=events_evidence(view, rows),
            ))
        return findings


class ShortLivedFileDetector(Detector):
    """Costly pattern: files written then deleted within the session."""

    name = "short-lived-files"
    description = "significant bytes written into files deleted in-session"

    def __init__(self, min_bytes: int = 64 * 1024, min_files: int = 3):
        self.min_bytes = min_bytes
        self.min_files = min_files

    def detect(self, view):
        # Stored order, as the unsorted searches this pass replaced
        # returned the unlinks and the writes: the evidence ids follow it.
        syscalls = view.values("syscall")
        rets = view.values("ret")
        unlinked = view.in_stored_order([
            row for row, name in enumerate(syscalls)
            if name in ("unlink", "unlinkat") and rets[row] == 0])
        arg_paths = view.values("args.path")
        deleted_paths = {arg_paths[row] for row in unlinked}
        deleted_paths.discard(None)
        if not deleted_paths:
            return []

        paths = view.values("file_path")
        churn: dict[str, int] = {}
        churn_rows: dict[str, list[int]] = {}
        for row in view.in_stored_order([
                row for row, name in enumerate(syscalls)
                if name in WRITES and paths[row] is not None
                and _transferred(rets[row])]):
            path = paths[row]
            if path in deleted_paths:
                churn[path] = churn.get(path, 0) + rets[row]
                churn_rows.setdefault(path, []).append(row)
        heavy = {path: total for path, total in churn.items()
                 if total >= self.min_bytes}
        if len(heavy) < self.min_files:
            return []
        total = sum(heavy.values())
        return [Finding(
            detector=self.name,
            severity="info",
            title=(f"{len(heavy)} files totalling {total:,} written bytes "
                   "were deleted within the session (write churn)"),
            details={"files": len(heavy), "bytes": total},
            evidence=events_evidence(view, [
                row for path in sorted(heavy) for row in churn_rows[path]]
                + unlinked),
        )]


class ContentionDetector(Detector):
    """The §III-C phenomenon: background I/O starving clients."""

    name = "io-contention"
    description = ("windows with many concurrent background I/O threads "
                   "coincide with depressed client syscall rates")

    def __init__(self, window_ns: int = 100_000_000,
                 min_threads: int = 5, min_slowdown: float = 1.1,
                 client_comm: str = "db_bench",
                 background_prefix: str = "rocksdb:low"):
        self.window_ns = window_ns
        self.min_threads = min_threads
        self.min_slowdown = min_slowdown
        self.client_comm = client_comm
        self.background_prefix = background_prefix

    def detect(self, view):
        report = detect_contention(
            view.store, view.index, self.window_ns, self.min_threads,
            self.client_comm, view.session, self.background_prefix, view)
        if not report.contended_windows or not report.calm_windows:
            return []
        if report.client_slowdown < self.min_slowdown:
            return []
        return [Finding(
            detector=self.name,
            severity="warning",
            title=(f"{len(report.contended_windows)} windows with >= "
                   f"{self.min_threads} {self.background_prefix}* threads; "
                   f"client syscall rate drops "
                   f"{report.client_slowdown:.2f}x there"),
            details={"contended_windows": len(report.contended_windows),
                     "calm_windows": len(report.calm_windows),
                     "client_slowdown": report.client_slowdown},
            evidence=make_evidence(
                start_ns=min(report.contended_windows),
                end_ns=max(report.contended_windows) + self.window_ns),
        )]


#: The default detector battery, in reporting order.
DEFAULT_DETECTORS: tuple[Detector, ...] = (
    FailedSyscallDetector(),
    SmallIODetector(),
    RandomAccessDetector(),
    ShortLivedFileDetector(),
    ContentionDetector(),
)

#: Findings rank by severity, most severe first.
SEVERITY_ORDER = {"critical": 0, "warning": 1, "info": 2}


def run_detectors(store: DocumentStore, index: str = "dio_trace",
                  session: Optional[str] = None,
                  detectors: Sequence[Detector] = DEFAULT_DETECTORS,
                  view: Optional[SessionEvents] = None) -> list[Finding]:
    """Run a battery of detectors; findings sorted by severity.

    The whole battery shares one read of the session (``view``, or a
    fresh one).
    """
    view = view or SessionEvents(store, index, session)
    findings: list[Finding] = []
    for detector in detectors:
        findings.extend(detector.detect(view))
    findings.sort(key=lambda f: (SEVERITY_ORDER.get(f.severity, 9),
                                 f.detector, f.title))
    return findings
