"""A library of automated I/O-misbehaviour detectors (paper §V).

The paper's future-work section proposes building *"a collection of
correlation algorithms that can quickly identify the inefficient
behaviors observed in the aforementioned applications"*.  This module
is that collection: each detector is one pass over the stored events
of one session (a :class:`~repro.analysis.session.SessionEvents`) that
reports :class:`Finding` objects, and :data:`DEFAULT_DETECTORS` is the
one battery ``dio diagnose`` runs.  Every finding name belongs to
exactly one detector.

The battery covers costly access patterns (small/random I/O,
short-lived file churn), failed-syscall clusters, the Fig. 4 I/O
contention correlation, the Fluent Bit stale-offset resume (§III-B),
descriptor leaks, latency spikes blamed on concurrent background I/O,
write amplification and io_uring completion lag.  The last five stamp
each finding with the event time at which it is settled (``emit_ns``,
what ``--follow`` orders by) and carry the report label ``streaming``;
the rest carry ``batch`` (:attr:`Detector.source`).
"""

from __future__ import annotations

from collections import deque
from itertools import compress, groupby, repeat
from operator import floordiv, gt, itemgetter, lt
from typing import Any, Callable, NamedTuple, Optional, Sequence

from repro.analysis.contention import detect_contention
from repro.analysis.patterns import classify_file_accesses, stale_offset_polls
from repro.analysis.session import READS, WRITES, SessionEvents
from repro.backend.store import DocumentStore
from repro.kernel.errno import Errno


class Finding(NamedTuple):
    """One detected issue.

    ``evidence`` links the finding back to the raw events that support
    it: ``{"event_ids": [...], "window": {"start_ns", "end_ns"}}``,
    ids and times read off the session's lanes.  How many ids a
    finding cites is part of its detector's rule (at most
    :data:`EVIDENCE_ID_CAP`).  It is a trailing field with a default,
    so positional construction — and ``__str__`` — are unchanged.
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
#: The stale-offset, io_uring-lag and spike findings cite the first 8
#: events of what they flag.
MAX_EVIDENCE_IDS = 8


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
    #: The report's provenance label for this detector's findings,
    #: ``"batch"`` or ``"streaming"`` (``diagnose.CONFIDENCE``): the
    #: five detectors that once ran online keep ``streaming``.
    source = "batch"

    def run(self, store: DocumentStore, index: str,
            session: Optional[str] = None,
            view: Optional[SessionEvents] = None) -> list[Finding]:
        """Return findings for ``session`` (or the whole index).

        ``view`` is a caller's read of the same session, shared by a
        battery; without one the detector reads the session itself.
        """
        return [finding for _, finding in self.detect(
            view or SessionEvents(store, index, session))]

    def detect(self, view: SessionEvents
               ) -> list[tuple[Optional[int], Finding]]:
        """The correlation itself: ``(emit_ns, finding)`` pairs.

        ``emit_ns`` is the event time at which the finding is settled
        (what ``dio diagnose --follow`` orders by), or ``None`` for a
        finding only the whole session settles.  Read the session's
        lanes, rows and evidence off ``view`` (``view.latencies``: the
        benchmark's latency records, if the caller has them);
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
                findings.append((None, Finding(
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
                )))
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
                findings.append((None, Finding(
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
                )))
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
            findings.append((None, Finding(
                detector=self.name,
                severity="warning",
                title=(f"{syscall} failed with {errno_name} "
                       f"{len(rows)} times"),
                details={"syscall": syscall, "errno": errno_name,
                         "count": len(rows)},
                evidence=events_evidence(view, rows),
            )))
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
        return [(None, Finding(
            detector=self.name,
            severity="info",
            title=(f"{len(heavy)} files totalling {total:,} written bytes "
                   "were deleted within the session (write churn)"),
            details={"files": len(heavy), "bytes": total},
            evidence=events_evidence(view, [
                row for path in sorted(heavy) for row in churn_rows[path]]
                + unlinked),
        ))]


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
        return [(None, Finding(
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
        ))]


class StaleOffsetDetector(Detector):
    """§III-B offset gap after inode reuse (Fluent Bit's data loss).

    A tag whose *first* read starts past offset 0 and returns no data
    is suspicious; the suspicion is confirmed — the finding stamped
    with that read's time — by ``confirm_after`` further empty reads of
    the tag (the reader is polling a file it will never get data
    from), or at the session's end.  A read that returns data first
    clears it (:func:`~repro.analysis.patterns.stale_offset_polls`).
    """

    name = "stale-offset-resume"
    description = ("first read of a fresh file starts past offset 0 and "
                   "returns no data (possible data loss)")
    source = "streaming"

    def __init__(self, confirm_after: int = 3) -> None:
        self.confirm_after = confirm_after

    def detect(self, view):
        tags = view.values("file_tag")
        offsets = view.values("offset")
        procs = view.values("proc_name")
        paths = view.values("file_path")
        times = view.times
        findings = []
        for polls in stale_offset_polls(view, self.confirm_after):
            first, last = polls[0], polls[-1]
            tag, path = tags[first], paths[first]
            findings.append((times[last], Finding(
                detector=self.name,
                severity="critical",
                title=(f"{procs[first]} resumed {path or tag} at stale "
                       f"offset {offsets[first]}; content before EOF was "
                       "never read (possible data loss)"),
                details={"file_tag": tag, "file_path": path,
                         "offset": offsets[first],
                         "empty_reads": len(polls) - 1},
                evidence=make_evidence(
                    [view.ids[row] for row in polls[:MAX_EVIDENCE_IDS]],
                    times[first], times[last]),
            )))
        return findings


class FdLeakDetector(Detector):
    """Opened descriptors never closed: per-process opens minus closes.

    A process whose successful opens outnumber its successful closes by
    ``min_unclosed`` or more is flagged, stamped with its last
    descriptor call.  The evidence is the process's first successful
    descriptor calls and the time span of all of them.
    """

    name = "fd-leak"
    description = "processes whose open count far exceeds their closes"
    source = "streaming"

    def __init__(self, min_unclosed: int = 4) -> None:
        self.min_unclosed = min_unclosed

    def detect(self, view):
        syscalls = view.values("syscall")
        rets = view.values("ret")
        pids = view.values("pid")
        per_pid: dict = {}
        for row in view.syscall_rows(("open", "openat", "creat", "close")):
            if rets[row] >= 0:
                per_pid.setdefault(pids[row], []).append(row)
        findings = []
        for pid, rows in per_pid.items():
            closes = sum(syscalls[row] == "close" for row in rows)
            opens = len(rows) - closes
            if opens - closes < self.min_unclosed:
                continue
            findings.append((max(map(view.times.__getitem__, rows)), Finding(
                detector=self.name,
                severity="warning",
                title=(f"pid {pid}: {opens} opens vs {closes} closes "
                       f"({opens - closes} descriptors left open)"),
                details={"pid": pid, "opens": opens, "closes": closes},
                evidence=events_evidence(view, rows),
            )))
        return findings


class UringLagDetector(Detector):
    """Submission-to-completion lag of io_uring ops.

    Classic syscalls are synchronous: their duration IS the I/O cost
    and the spike attribution covers them.  A ring op's
    ``duration_ns`` is the *completion lag* — submit-to-CQE time —
    which silently stretches when the device queue backs up behind
    linked chains or competing I/O, without any syscall getting
    slower.  A process's first completion that exceeds both an
    absolute floor and a multiple of the mean lag of its completions
    before it (at least ``min_samples`` of them) is flagged.  A zero
    mean (every earlier completion took 0 ns) is no baseline to divide
    by: a lag over the floor is flagged, and its title says "no
    baseline" where a ratio would stand.  Only ``uring_*`` events
    count, so a classic-mode trace (the blind spot) cannot produce this
    finding — which is itself diagnostic.
    """

    name = "uring-completion-lag"
    description = ("an io_uring completion lagged far behind its "
                   "process's baseline submit-to-CQE latency")
    source = "streaming"

    def __init__(self, min_lag_ns: int = 5_000_000,
                 baseline_factor: float = 8.0,
                 min_samples: int = 16) -> None:
        self.min_lag_ns = min_lag_ns
        self.baseline_factor = baseline_factor
        self.min_samples = min_samples

    def detect(self, view):
        lags = view.values("duration_ns")
        pids = view.values("pid")
        per_pid: dict = {}
        for row in view.syscall_rows(("uring_read", "uring_write",
                                      "uring_fsync")):
            if lags[row] is not None:
                per_pid.setdefault(pids[row], []).append(row)
        flagged = []
        for pid, rows in per_pid.items():
            total = 0
            for count, row in enumerate(rows):
                lag = lags[row]
                if count >= self.min_samples:
                    mean = total / count
                    if (lag >= self.min_lag_ns
                            and lag >= mean * self.baseline_factor):
                        flagged.append((row, pid, rows[:count + 1], mean))
                        break
                total += lag
        flagged.sort(key=itemgetter(0))
        syscalls = view.values("syscall")
        times = view.times
        return [(times[row], Finding(
            detector=self.name,
            severity="warning",
            title=(f"pid {pid}: io_uring completion "
                   f"lag {lags[row] / 1e6:.2f} ms "
                   + (f"is {lags[row] / mean:.0f}x the baseline "
                      f"{mean / 1e6:.3f} ms" if mean else
                      "has no baseline: 0 ms")
                   + f" over {len(seen) - 1} completions"),
            details={"pid": pid,
                     "lag_ns": int(lags[row]),
                     "baseline_ns": int(mean),
                     "completions": len(seen) - 1,
                     "op": syscalls[row]},
            evidence=make_evidence(
                [view.ids[each] for each in seen[:MAX_EVIDENCE_IDS]],
                times[seen[0]], times[row]),
        )) for row, pid, seen, mean in flagged]


#: Processes a write-amplification tally or a spike window names: the
#: first 64 seen.
MAX_PROCS = 64


class WriteAmplificationDetector(Detector):
    """Background bytes written per client byte written."""

    name = "write-amplification"
    description = ("background threads wrote far more bytes than the "
                   "client itself")
    source = "streaming"

    def __init__(self, client_comm: str = "db_bench",
                 ratio_threshold: float = 2.0,
                 min_client_bytes: int = 64 * 1024) -> None:
        self.client_comm = client_comm
        self.ratio_threshold = ratio_threshold
        self.min_client_bytes = min_client_bytes

    def detect(self, view):
        rets = view.values("ret")
        procs = view.values("proc_name")
        rows = [row for row in view.syscall_rows(WRITES) if rets[row] > 0]
        total_bytes = client_bytes = 0
        per_proc: dict[str, int] = {}
        for row in rows:
            size = rets[row]
            total_bytes += size
            proc = procs[row]
            if proc == self.client_comm:
                client_bytes += size
            elif proc in per_proc:
                per_proc[proc] += size
            elif len(per_proc) < MAX_PROCS:
                per_proc[proc] = size
        amplification = (total_bytes / client_bytes if client_bytes
                         else 0.0)
        if (client_bytes < self.min_client_bytes
                or amplification < self.ratio_threshold):
            return []
        times = view.times
        last_ns = max([0, *map(times.__getitem__, rows)])
        writers = sorted(per_proc.items(),
                         key=lambda item: (-item[1], item[0]))[:5]
        return [(last_ns, Finding(
            detector=self.name,
            severity="warning",
            title=(f"{total_bytes:,} B written for "
                   f"{client_bytes:,} client bytes "
                   f"({amplification:.1f}x write amplification)"),
            details={"total_bytes": total_bytes,
                     "client_bytes": client_bytes,
                     "amplification": round(amplification, 2),
                     "top_writers": [[name, size]
                                     for name, size in writers]},
            evidence=make_evidence(
                start_ns=times[rows[0]] if rows else None, end_ns=last_ns),
        ))]


#: Latency samples a spike window keeps (its first, in start order),
#: closed windows' p99s the spike baseline ranks, and spike findings
#: a session reports.
MAX_WINDOW_SAMPLES = 512
MAX_BASELINE_WINDOWS = 256
MAX_SPIKE_FINDINGS = 5


class _Window:
    """One window's background activity."""

    __slots__ = ("tids", "activity", "ids")

    def __init__(self) -> None:
        self.tids: set = set()
        #: proc_name -> [syscalls, bytes], the first MAX_PROCS names.
        self.activity: dict[str, list] = {}
        self.ids: list[str] = []


class SpikeBlameDetector(Detector):
    """Latency spikes attributed to concurrent background I/O.

    Reads the session's background threads' syscalls into fixed
    windows, and the benchmark's operation latency records
    (``view.latencies``) into the same windows.  Windows close in start
    order: one whose p99 exceeds ``spike_factor`` times the baseline
    (the 25th percentile of the p99s of the windows closed before it)
    is a finding naming the heaviest concurrent background threads,
    stamped with the window's end — the windowed version of
    :func:`repro.analysis.blame.blame_spikes` (after ReLayTracer).
    """

    name = "latency-spike-blame"
    description = ("client latency spikes attributed to concurrent "
                   "background compaction/flush I/O")
    source = "streaming"

    def __init__(self, window_ns: int = 100_000_000,
                 spike_factor: float = 2.5,
                 client_comm: str = "db_bench",
                 background_prefix: str = "rocksdb:low") -> None:
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive: {window_ns}")
        self.window_ns = window_ns
        self.spike_factor = spike_factor
        self.client_comm = client_comm
        self.background_prefix = background_prefix

    def _windows(self, view: SessionEvents) -> dict[int, _Window]:
        """Each window's background activity; a window's evidence links
        are the ids of its first background events."""
        procs = view.values("proc_name")
        client, prefix = self.client_comm, self.background_prefix
        background = {proc: proc != client and proc.startswith(prefix)
                      for proc in set(procs)}
        window_ns = self.window_ns
        times = view.times
        tids = view.values("tid")
        rets = view.values("ret")
        syscalls = view.values("syscall")
        transfers = frozenset(READS + WRITES)
        windows: dict[int, _Window] = {}
        for row in compress(range(len(procs)),
                            map(background.__getitem__, procs)):
            start = times[row] - times[row] % window_ns
            state = windows.get(start)
            if state is None:
                state = windows[start] = _Window()
            state.tids.add(tids[row])
            proc = procs[row]
            activity = state.activity.get(proc)
            if activity is None and len(state.activity) < MAX_PROCS:
                activity = state.activity[proc] = [0, 0]
            if activity is not None:
                activity[0] += 1
                if rets[row] > 0 and syscalls[row] in transfers:
                    activity[1] += rets[row]
            if len(state.ids) < MAX_EVIDENCE_IDS:
                state.ids.append(view.ids[row])
        return windows

    def _samples(self, view: SessionEvents) -> dict[int, list]:
        """Each window's first latencies, in start order (a window's
        records are one run of the sorted records)."""
        records = sorted(view.latencies, key=itemgetter(0))
        starts = map(floordiv, map(itemgetter(0), records),
                     repeat(self.window_ns))
        samples, at = {}, 0
        for window, run in groupby(starts):
            size = sum(1 for _ in run)
            samples[window * self.window_ns] = [
                record[1]
                for record in records[at:at + min(size, MAX_WINDOW_SAMPLES)]]
            at += size
        return samples

    def detect(self, view):
        windows = self._windows(view)
        samples = self._samples(view)
        baseline: deque[float] = deque(maxlen=MAX_BASELINE_WINDOWS)
        findings = []
        for start in sorted(set(windows) | set(samples)):
            if start not in samples:
                continue
            ordered = sorted(samples[start])
            p99 = float(ordered[min(len(ordered) - 1,
                                    int(round(0.99 * (len(ordered) - 1))))])
            floor = (sorted(baseline)[len(baseline) // 4]
                     if len(baseline) >= 4 else None)
            baseline.append(p99)
            if floor is None or p99 <= self.spike_factor * floor:
                continue
            state = windows.get(start)
            if state is None:
                # A spike with no concurrent background I/O in the
                # window has nothing to attribute — that is a latency
                # problem, not a contention problem; stay silent rather
                # than blame air.
                continue
            top = sorted(state.activity.items(),
                         key=lambda item: (-item[1][1], -item[1][0], item[0]))
            culprits = [name for name, _ in top[:3]]
            end = start + self.window_ns
            findings.append((end, Finding(
                detector=self.name,
                severity="warning",
                title=(f"p99 spike @ {start / 1e6:.0f} ms "
                       f"({p99 / 1e6:.2f} ms vs baseline "
                       f"{floor / 1e6:.2f} ms) with "
                       f"{len(state.tids)} background threads active; "
                       f"busiest: {', '.join(culprits)}"),
                details={"window_start_ns": start, "p99_ns": p99,
                         "baseline_ns": floor,
                         "background_threads": len(state.tids),
                         "culprits": culprits},
                evidence=make_evidence(state.ids, start, end),
            )))
            if len(findings) == MAX_SPIKE_FINDINGS:
                break
        return findings


#: The detector battery, in reporting order.
DEFAULT_DETECTORS: tuple[Detector, ...] = (
    FailedSyscallDetector(),
    SmallIODetector(),
    RandomAccessDetector(),
    ShortLivedFileDetector(),
    ContentionDetector(),
    StaleOffsetDetector(),
    FdLeakDetector(),
    SpikeBlameDetector(),
    WriteAmplificationDetector(),
    UringLagDetector(),
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
    findings = [finding for detector in detectors
                for _, finding in detector.detect(view)]
    findings.sort(key=lambda f: (SEVERITY_ORDER.get(f.severity, 9),
                                 f.detector, f.title))
    return findings
