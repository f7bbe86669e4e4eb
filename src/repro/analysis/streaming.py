"""Online, bounded-memory diagnosis detectors (the streaming half).

The batch detectors (:mod:`repro.analysis.detectors`) run post-mortem
queries against the backend.  These are their *streaming* variants:
they attach as a :class:`DiagnosisTap` on the tracer's consumer path
(or are replayed over a stored session) and observe each parsed event
exactly once, in bounded memory, emitting incremental
:class:`~repro.analysis.detectors.Finding` objects with evidence links
(event ids when available, time windows always) as the signatures
develop.  There is one feed shape: ``observe_batch(batch, ids)`` is the
only place a detector's step is written, whoever calls it — ``batch``
is a :class:`~repro.backend.lanes.LaneBatch` the step reads lane by
lane (``values_for``; :func:`rows_of` to visit only the rows it cares
about), never as documents.  The consumer hands over its
decoded :class:`~repro.tracer.batch.RecordBatch` without ids, a replay
(:func:`~repro.analysis.diagnose.follow_session`) hands over stretches
of the stored session's lanes with their backend ids, and
``observe(source, event_id)`` is a batch of one document.  Latency
records arrive the same way (``observe_latencies(records)``).  The
detectors:

- :class:`StreamingStaleOffsetDetector` — the Fluent Bit §III-B
  offset-gap-after-inode-reuse signature;
- :class:`StreamingContentionDetector` — windows where many concurrent
  background threads depress the client syscall rate (§III-C);
- :class:`StreamingSpikeAttributor` — latency spikes attributed to the
  concurrent compaction/flush I/O in the same window (the streaming
  cousin of :mod:`repro.analysis.blame`, after ReLayTracer);
- :class:`StreamingFdLeakDetector` — per-process open-minus-close
  watermark;
- :class:`StreamingWriteAmplificationDetector` — background bytes
  written per client byte written;
- :class:`StreamingUringLagDetector` — submission-to-completion lag of
  io_uring per-op events (only visible under the tracer's ring-aware
  mode; classic traces never feed it).

Every per-key table is capped (``MAX_*`` constants); overflowing keys
are dropped deterministically (oldest first), never resized unbounded.
The tap also runs an online DFG miner (:class:`StreamingDFGMiner`) so
``dio_dfg_*`` telemetry is live during ingest.
"""

from __future__ import annotations

from collections import Counter, OrderedDict, deque
from itertools import chain, compress, repeat
from operator import eq, sub
from typing import Optional, Sequence

from repro.analysis.detectors import Finding, make_evidence
from repro.analysis.dfg import DirectlyFollowsGraph
from repro.analysis.session import times_of
from repro.backend.lanes import DocBatch, LaneBatch, _groups

#: Set membership beats tuple scans in loops that see every event.
_READS_SET = frozenset({"read", "pread64", "readv"})
_WRITES_SET = frozenset({"write", "pwrite64", "writev"})
_RW_SET = _READS_SET | _WRITES_SET
_FD_SET = frozenset({"open", "openat", "creat", "close"})

#: Bounded-memory caps (per detector instance).
MAX_TRACKED_TAGS = 4096
MAX_TRACKED_PIDS = 1024
MAX_TRACKED_PROCS = 64
MAX_EVIDENCE_IDS = 8
MAX_BASELINE_WINDOWS = 256
MAX_SPIKE_FINDINGS = 5
MAX_WINDOW_SAMPLES = 512


def _capped_insert(table: OrderedDict, key, factory, cap: int):
    """``table[key]`` (creating via ``factory``), evicting oldest at cap."""
    state = table.get(key)
    if state is None:
        if len(table) >= cap:
            table.popitem(last=False)
        state = table[key] = factory()
    return state


def rows_of(batch: LaneBatch, syscalls: frozenset) -> Sequence[int]:
    """The rows of ``batch`` whose ``syscall`` is one of ``syscalls``,
    ascending — off the tap's per-batch groups (:class:`_Reads`) when
    it has them, so a step never visits a row it ignores.  Never mutate
    the result."""
    groups = batch.syscalls if isinstance(batch, _Reads) else None
    if groups is None:
        return [row for row, name in enumerate(batch.values_for("syscall"))
                if name in syscalls]
    picked = [rows for name, rows in groups if name in syscalls]
    if len(picked) == 1:
        return picked[0]
    return sorted(chain.from_iterable(picked))


class _Reads:
    """One batch as the tap's readers share it: each lane is read off
    the batch once, however many detectors ask for it, and ``syscall``
    is grouped once (``None`` for a lane :func:`_groups` declines)."""

    __slots__ = ("_batch", "_values", "syscalls")

    def __init__(self, batch: LaneBatch) -> None:
        self._batch = batch
        self._values: dict[str, list] = {}
        self.syscalls = _groups(self.values_for("syscall"))

    def __len__(self) -> int:
        return len(self._batch)

    def values_for(self, field: str) -> list:
        values = self._values.get(field)
        if values is None:
            values = self._values[field] = self._batch.values_for(field)
        return values


class StreamingDetector:
    """Base class: one pass over the stream, incremental findings."""

    name = "streaming-detector"
    description = ""

    def __init__(self) -> None:
        #: ``(emit_ns, Finding)`` in emission order.
        self.emitted: list[tuple[int, Finding]] = []
        self._drained = 0
        self._finalized = False

    # -- feed ----------------------------------------------------------
    def observe_batch(self, batch: LaneBatch,
                      ids: Optional[Sequence[str]] = None) -> None:
        """The detector's step: events in stream order, as lanes.

        ``ids`` are the events' backend ids, one per row of ``batch``
        (``None`` for an event without one), when they have any: a
        replay of a stored session has them, the consumer path does
        not (nothing is stored yet).  Subclasses read the lanes they
        need and loop over the rows they care about only, so the
        per-event cost stays within the <10% ingest overhead gate
        (``benchmarks/test_diagnosis.py``).
        """
        raise NotImplementedError

    def observe(self, source: dict,
                event_id: Optional[str] = None) -> None:
        """One event: a batch of one."""
        self.observe_batch(DocBatch([source]), (event_id,))

    def observe_latencies(self, records: Sequence) -> None:
        """Optional second feed: ``(start_ns, latency_ns, ...)``
        benchmark/telemetry latency records, in start order."""

    def observe_latency(self, start_ns: int, latency_ns: int) -> None:
        """One latency record: a batch of one."""
        self.observe_latencies(((start_ns, latency_ns),))

    def finalize(self, now_ns: int = 0) -> None:
        """End of stream: emit whatever is still pending."""
        self._finalized = True

    # -- results -------------------------------------------------------
    def _emit(self, emit_ns: int, finding: Finding) -> None:
        self.emitted.append((emit_ns, finding))

    def drain_new(self) -> list[tuple[int, Finding]]:
        """Findings emitted since the last drain (for ``--follow``)."""
        fresh = self.emitted[self._drained:]
        self._drained = len(self.emitted)
        return fresh


class StreamingStaleOffsetDetector(StreamingDetector):
    """§III-B offset gap after inode reuse, online.

    A tag whose *first* read starts past offset 0 and returns no data
    is suspicious; the suspicion is confirmed — and the finding emitted
    — after ``confirm_after`` further empty reads of the same tag (the
    reader is polling a file it will never get data from), or at
    :meth:`finalize`.  A read that does return data clears it.
    """

    name = "stale-offset-resume"
    description = ("first read of a fresh file starts past offset 0 and "
                   "returns no data (possible data loss)")

    def __init__(self, confirm_after: int = 3) -> None:
        super().__init__()
        self.confirm_after = confirm_after
        #: tag -> suspicion state (bounded).
        self._tags: OrderedDict[str, dict] = OrderedDict()

    def observe_batch(self, batch, ids=None):
        rows = rows_of(batch, _READS_SET)
        if not rows:
            return
        tags = batch.values_for("file_tag")
        rets = batch.values_for("ret")
        offsets = batch.values_for("offset")
        procs = batch.values_for("proc_name")
        paths = batch.values_for("file_path")
        times = times_of(batch)
        tracked = self._tags
        for row in rows:
            tag = tags[row]
            if tag is None:
                continue
            event_id = None if ids is None else ids[row]
            state = tracked.get(tag)
            if state is None:                  # first read of this tag
                state = _capped_insert(tracked, tag, dict, MAX_TRACKED_TAGS)
                offset = offsets[row]
                suspicious = (offset is not None and offset > 0
                              and rets[row] == 0)
                state.update(suspicious=suspicious, confirmed=False,
                             empty_reads=0, offset=offset,
                             proc_name=procs[row], file_path=paths[row],
                             first_ns=times[row], last_ns=times[row],
                             ids=[])
                if suspicious and event_id is not None:
                    state["ids"].append(event_id)
                continue
            if not state["suspicious"] or state["confirmed"]:
                continue
            state["last_ns"] = times[row]
            if rets[row] > 0:                  # data arrived: all clear
                state["suspicious"] = False
                continue
            state["empty_reads"] += 1
            if event_id is not None and len(state["ids"]) < MAX_EVIDENCE_IDS:
                state["ids"].append(event_id)
            if state["empty_reads"] >= self.confirm_after:
                self._confirm(tag, state)

    def _confirm(self, tag: str, state: dict) -> None:
        state["confirmed"] = True
        self._emit(state["last_ns"], Finding(
            detector=self.name,
            severity="critical",
            title=(f"{state['proc_name']} resumed "
                   f"{state['file_path'] or tag} at stale offset "
                   f"{state['offset']}; content before EOF was never "
                   "read (possible data loss)"),
            details={"file_tag": tag, "file_path": state["file_path"],
                     "offset": state["offset"],
                     "empty_reads": state["empty_reads"]},
            evidence=make_evidence(state["ids"], state["first_ns"],
                                   state["last_ns"]),
        ))

    def finalize(self, now_ns=0):
        for tag, state in self._tags.items():
            if state.get("suspicious") and not state.get("confirmed"):
                self._confirm(tag, state)
        super().finalize(now_ns)


class StreamingFdLeakDetector(StreamingDetector):
    """Per-process descriptor watermark: opens minus closes, online."""

    name = "fd-leak"
    description = ("a process's open-descriptor watermark exceeded the "
                   "leak threshold")

    def __init__(self, min_unclosed: int = 4) -> None:
        super().__init__()
        self.min_unclosed = min_unclosed
        self._pids: OrderedDict[int, dict] = OrderedDict()

    def observe_batch(self, batch, ids=None):
        rows = rows_of(batch, _FD_SET)
        if not rows:
            return
        syscalls = batch.values_for("syscall")
        rets = batch.values_for("ret")
        pids = batch.values_for("pid")
        times = times_of(batch)
        tracked = self._pids
        for row in rows:
            if rets[row] < 0:
                continue
            pid, time_ns = pids[row], times[row]
            state = tracked.get(pid)
            if state is None:
                state = _capped_insert(
                    tracked, pid,
                    lambda: {"open": 0, "watermark": 0, "opens": 0,
                             "closes": 0, "flagged": False, "ids": [],
                             "first_ns": time_ns, "last_ns": 0},
                    MAX_TRACKED_PIDS)
            state["last_ns"] = time_ns
            if syscalls[row] == "close":
                state["closes"] += 1
                if state["open"] > 0:
                    state["open"] -= 1
                continue
            state["opens"] += 1
            state["open"] += 1
            if ids is not None and ids[row] is not None \
                    and len(state["ids"]) < MAX_EVIDENCE_IDS:
                state["ids"].append(ids[row])
            if state["open"] > state["watermark"]:
                state["watermark"] = state["open"]
                if state["watermark"] >= self.min_unclosed \
                        and not state["flagged"]:
                    self._flag(pid, state)

    def _flag(self, pid, state: dict) -> None:
        state["flagged"] = True
        self._emit(state["last_ns"], Finding(
            detector=self.name,
            severity="warning",
            title=(f"pid {pid}: descriptor watermark "
                   f"reached {state['watermark']} "
                   f"({state['opens']} opens vs "
                   f"{state['closes']} closes so far)"),
            details={"pid": pid,
                     "watermark": state["watermark"],
                     "opens": state["opens"],
                     "closes": state["closes"]},
            evidence=make_evidence(state["ids"], state["first_ns"],
                                   state["last_ns"]),
        ))


#: The per-op event names the ring-aware tracer emits (one per SQE).
_URING_SET = frozenset({"uring_read", "uring_write", "uring_fsync"})


class StreamingUringLagDetector(StreamingDetector):
    """Submission-to-completion lag of io_uring ops, online.

    Classic syscalls are synchronous: their duration IS the I/O cost
    and the existing spike attribution covers them.  A ring op's
    ``duration_ns`` is the *completion lag* — submit-to-CQE time —
    which silently stretches when the device queue backs up behind
    linked chains or competing I/O, without any syscall getting
    slower.  This detector keeps a per-process running mean of the
    lag and flags the first completion that exceeds both an absolute
    floor and a multiple of that baseline.  It only ever fires on
    ``uring_*`` events, so a classic-mode trace (the blind spot)
    cannot produce this finding — which is itself diagnostic.
    """

    name = "uring-completion-lag"
    description = ("an io_uring completion lagged far behind its "
                   "process's baseline submit-to-CQE latency")

    def __init__(self, min_lag_ns: int = 5_000_000,
                 baseline_factor: float = 8.0,
                 min_samples: int = 16) -> None:
        super().__init__()
        self.min_lag_ns = min_lag_ns
        self.baseline_factor = baseline_factor
        self.min_samples = min_samples
        self._pids: OrderedDict[int, dict] = OrderedDict()

    def observe_batch(self, batch, ids=None):
        rows = rows_of(batch, _URING_SET)
        if not rows:
            return
        lags = batch.values_for("duration_ns")
        pids = batch.values_for("pid")
        syscalls = batch.values_for("syscall")
        times = times_of(batch)
        step = self._completion
        for row in rows:
            if lags[row] is not None:
                step(pids[row], syscalls[row], lags[row], times[row],
                     None if ids is None else ids[row])

    def _completion(self, pid, op, lag, now_ns, event_id):
        state = _capped_insert(
            self._pids, pid,
            lambda: {"count": 0, "total_lag": 0, "max_lag": 0,
                     "flagged": False, "ids": [], "first_ns": now_ns},
            MAX_TRACKED_PIDS)
        if event_id is not None and len(state["ids"]) < MAX_EVIDENCE_IDS:
            state["ids"].append(event_id)
        if state["count"] >= self.min_samples and not state["flagged"]:
            mean = state["total_lag"] / state["count"]
            if lag >= self.min_lag_ns and lag >= mean * self.baseline_factor:
                state["flagged"] = True
                self._emit(now_ns, Finding(
                    detector=self.name,
                    severity="warning",
                    title=(f"pid {pid}: io_uring completion "
                           f"lag {lag / 1e6:.2f} ms is "
                           f"{lag / mean:.0f}x the baseline "
                           f"{mean / 1e6:.3f} ms over "
                           f"{state['count']} completions"),
                    details={"pid": pid,
                             "lag_ns": int(lag),
                             "baseline_ns": int(mean),
                             "completions": state["count"],
                             "op": op},
                    evidence=make_evidence(state["ids"],
                                           state["first_ns"], now_ns),
                ))
        state["count"] += 1
        state["total_lag"] += lag
        if lag > state["max_lag"]:
            state["max_lag"] = lag


class StreamingWriteAmplificationDetector(StreamingDetector):
    """Background bytes written per client byte written, online."""

    name = "write-amplification"
    description = ("background threads wrote far more bytes than the "
                   "client itself")

    def __init__(self, client_comm: str = "db_bench",
                 ratio_threshold: float = 2.0,
                 min_client_bytes: int = 64 * 1024) -> None:
        super().__init__()
        self.client_comm = client_comm
        self.ratio_threshold = ratio_threshold
        self.min_client_bytes = min_client_bytes
        self.client_bytes = 0
        self.total_bytes = 0
        self._per_proc: OrderedDict[str, int] = OrderedDict()
        self._first_ns: Optional[int] = None
        self._last_ns = 0

    def observe_batch(self, batch, ids=None):
        rows = rows_of(batch, _WRITES_SET)
        if not rows:
            return
        rets = batch.values_for("ret")
        procs = batch.values_for("proc_name")
        times = times_of(batch)
        client = self.client_comm
        per_proc = self._per_proc
        for row in rows:
            size = rets[row]
            if size <= 0:
                continue
            time_ns = times[row]
            if self._first_ns is None:
                self._first_ns = time_ns
            if time_ns > self._last_ns:
                self._last_ns = time_ns
            self.total_bytes += size
            proc = procs[row]
            if proc == client:
                self.client_bytes += size
            elif proc in per_proc:
                per_proc[proc] += size
            elif len(per_proc) < MAX_TRACKED_PROCS:
                per_proc[proc] = size

    @property
    def amplification(self) -> float:
        if not self.client_bytes:
            return 0.0
        return self.total_bytes / self.client_bytes

    def finalize(self, now_ns=0):
        if (not self._finalized
                and self.client_bytes >= self.min_client_bytes
                and self.amplification >= self.ratio_threshold):
            writers = sorted(self._per_proc.items(),
                             key=lambda item: (-item[1], item[0]))[:5]
            self._emit(self._last_ns, Finding(
                detector=self.name,
                severity="warning",
                title=(f"{self.total_bytes:,} B written for "
                       f"{self.client_bytes:,} client bytes "
                       f"({self.amplification:.1f}x write "
                       "amplification)"),
                details={"total_bytes": self.total_bytes,
                         "client_bytes": self.client_bytes,
                         "amplification": round(self.amplification, 2),
                         "top_writers": [[name, size]
                                         for name, size in writers]},
                evidence=make_evidence(start_ns=self._first_ns,
                                       end_ns=self._last_ns),
            ))
        super().finalize(now_ns)


class _WindowState:
    """Per-window scratch shared by the windowed detectors."""

    __slots__ = ("client_count", "bg_tids", "bg_activity", "ids")

    def __init__(self) -> None:
        self.client_count = 0
        self.bg_tids: set[int] = set()
        #: proc_name -> [syscalls, bytes]; insertion-capped.
        self.bg_activity: dict[str, list] = {}
        self.ids: list[str] = []


def _scan_windows(batch, ids, window_ns: int, client: str,
                  prefix: str) -> tuple[list, int]:
    """One pass over a batch: fresh per-window aggregates + max time.

    The hot loop of the windowed detectors, factored out so detectors
    sharing a :attr:`_WindowedDetector.window_key` pay for it once per
    batch (each then merges via ``absorb_windows``).  Every event opens
    its window and the client's are counted per window at once; only
    the background threads' rows are visited one by one.  A window's
    evidence links are the ids of its first background events.
    """
    times = times_of(batch)
    if not times:
        return [], 0
    starts = [time_ns - time_ns % window_ns for time_ns in times]
    states = {start: _WindowState() for start in dict.fromkeys(starts)}
    procs = batch.values_for("proc_name")
    for start, count in Counter(compress(
            starts, map(eq, procs, repeat(client)))).items():
        states[start].client_count = count
    background = {proc: proc != client and proc.startswith(prefix)
                  for proc in set(procs)}
    rows = list(compress(range(len(procs)),
                         map(background.__getitem__, procs)))
    if rows:
        rw = _RW_SET
        tids = batch.values_for("tid")
        rets = batch.values_for("ret")
        syscalls = batch.values_for("syscall")
        for row in rows:
            state = states[starts[row]]
            state.bg_tids.add(tids[row])
            proc = procs[row]
            activity = state.bg_activity.get(proc)
            if activity is None:
                if len(state.bg_activity) < MAX_TRACKED_PROCS:
                    activity = state.bg_activity[proc] = [0, 0]
            if activity is not None:
                activity[0] += 1
                ret = rets[row]
                if ret > 0 and syscalls[row] in rw:
                    activity[1] += ret
            if ids is not None and ids[row] is not None \
                    and len(state.ids) < MAX_EVIDENCE_IDS:
                state.ids.append(ids[row])
    return list(states.items()), max(0, max(times))


class _WindowedDetector(StreamingDetector):
    """Shared window bookkeeping: assign, watermark-close, finalize."""

    def __init__(self, window_ns: int, client_comm: str,
                 background_prefix: str) -> None:
        super().__init__()
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive: {window_ns}")
        self.window_ns = window_ns
        self.client_comm = client_comm
        self.background_prefix = background_prefix
        self._windows: dict[int, _WindowState] = {}
        self._max_ns = 0

    @property
    def window_key(self) -> tuple:
        """Detectors with equal keys can share one batch window scan."""
        return (self.window_ns, self.client_comm, self.background_prefix)

    def observe_batch(self, batch, ids=None):
        # One scan of the batch into per-window aggregates, then one
        # watermark close (emit timestamps are event-time, so batch
        # granularity only defers emission within the batch).
        updates, max_ns = _scan_windows(batch, ids, *self.window_key)
        self.absorb_windows(updates, max_ns)

    def absorb_windows(self, updates: list, max_ns: int) -> None:
        """Merge a shared batch scan's per-window aggregates."""
        windows = self._windows
        for start, new in updates:
            state = windows.get(start)
            if state is None:
                state = windows[start] = _WindowState()
            state.client_count += new.client_count
            if new.bg_tids:
                state.bg_tids |= new.bg_tids
                activities = state.bg_activity
                for proc, pair in new.bg_activity.items():
                    activity = activities.get(proc)
                    if activity is None:
                        if len(activities) < MAX_TRACKED_PROCS:
                            activities[proc] = [pair[0], pair[1]]
                    else:
                        activity[0] += pair[0]
                        activity[1] += pair[1]
                state.ids += new.ids[:MAX_EVIDENCE_IDS - len(state.ids)]
        if max_ns > self._max_ns:
            self._max_ns = max_ns
        self._close_ready()

    def _close_ready(self) -> None:
        """Close windows at least one full window behind the watermark."""
        horizon = self._max_ns - 2 * self.window_ns
        if horizon <= 0:
            return
        for start in sorted(self._windows):
            if start + self.window_ns > horizon:
                break
            self._close_window(start, self._windows.pop(start))

    def _close_window(self, start: int, state: _WindowState) -> None:
        raise NotImplementedError

    def finalize(self, now_ns=0):
        for start in sorted(self._windows):
            self._close_window(start, self._windows.pop(start))
        super().finalize(now_ns)


class StreamingContentionDetector(_WindowedDetector):
    """§III-C, online: background bursts depress the client rate.

    Windows close one full window behind the event-time watermark.
    Each closed window is classified calm/contended by the number of
    distinct background TIDs; the first few contended windows emit
    incremental info findings naming the heaviest background thread,
    and once both regimes have enough windows and the slowdown ratio
    clears the threshold, one summary warning is emitted.
    """

    name = "io-contention"
    description = ("windows with many concurrent background threads "
                   "coincide with depressed client syscall rates")

    def __init__(self, window_ns: int = 100_000_000,
                 min_threads: int = 5, min_slowdown: float = 1.1,
                 min_windows: int = 2,
                 client_comm: str = "db_bench",
                 background_prefix: str = "rocksdb:low",
                 max_window_findings: int = 3) -> None:
        super().__init__(window_ns, client_comm, background_prefix)
        self.min_threads = min_threads
        self.min_slowdown = min_slowdown
        self.min_windows = min_windows
        self.max_window_findings = max_window_findings
        self.calm_windows = 0
        self.contended_windows = 0
        self._calm_client_total = 0
        self._contended_client_total = 0
        self._window_findings = 0
        self._summary_emitted = False
        self._first_contended_ns: Optional[int] = None
        self._last_contended_ns = 0

    @property
    def client_rate_calm(self) -> float:
        return (self._calm_client_total / self.calm_windows
                if self.calm_windows else 0.0)

    @property
    def client_rate_contended(self) -> float:
        return (self._contended_client_total / self.contended_windows
                if self.contended_windows else 0.0)

    @property
    def client_slowdown(self) -> float:
        contended = self.client_rate_contended
        if contended <= 0:
            return float("inf") if self.client_rate_calm > 0 else 1.0
        return self.client_rate_calm / contended

    def _close_window(self, start, state):
        if len(state.bg_tids) >= self.min_threads:
            self.contended_windows += 1
            self._contended_client_total += state.client_count
            if self._first_contended_ns is None:
                self._first_contended_ns = start
            self._last_contended_ns = start + self.window_ns
            if self._window_findings < self.max_window_findings:
                self._window_findings += 1
                top = sorted(state.bg_activity.items(),
                             key=lambda item: (-item[1][1], -item[1][0],
                                               item[0]))
                culprit = top[0][0] if top else "?"
                self._emit(start + self.window_ns, Finding(
                    detector=self.name,
                    severity="info",
                    title=(f"contended window @ {start / 1e6:.0f} ms: "
                           f"{len(state.bg_tids)} background threads "
                           f"active (busiest: {culprit}), client issued "
                           f"{state.client_count} syscalls"),
                    details={"window_start_ns": start,
                             "background_threads": len(state.bg_tids),
                             "client_syscalls": state.client_count,
                             "busiest_background": culprit},
                    evidence=make_evidence(state.ids, start,
                                           start + self.window_ns),
                ))
        else:
            self.calm_windows += 1
            self._calm_client_total += state.client_count
        self._maybe_emit_summary()

    def _maybe_emit_summary(self) -> None:
        if self._summary_emitted:
            return
        if (self.contended_windows >= self.min_windows
                and self.calm_windows >= self.min_windows
                and self.client_slowdown >= self.min_slowdown):
            self._summary_emitted = True
            self._emit(self._last_contended_ns, Finding(
                detector=self.name,
                severity="warning",
                title=(f"{self.contended_windows} windows with >= "
                       f"{self.min_threads} {self.background_prefix}* "
                       f"threads; client syscall rate drops "
                       f"{self.client_slowdown:.2f}x there"),
                details={"contended_windows": self.contended_windows,
                         "calm_windows": self.calm_windows,
                         "client_rate_calm":
                             round(self.client_rate_calm, 2),
                         "client_rate_contended":
                             round(self.client_rate_contended, 2),
                         "client_slowdown":
                             round(self.client_slowdown, 2)},
                evidence=make_evidence(
                    start_ns=self._first_contended_ns or 0,
                    end_ns=self._last_contended_ns),
            ))


class StreamingSpikeAttributor(_WindowedDetector):
    """Latency spikes attributed to concurrent background I/O, online.

    Consumes two feeds: syscall events (:meth:`observe_batch`) for
    per-window background activity, and operation latency records
    (:meth:`observe_latencies`) from the benchmark/telemetry feed.  A
    window whose p99 exceeds ``spike_factor`` times the running
    baseline (25th percentile of closed-window p99s) emits a finding
    naming the heaviest concurrent background threads — the streaming
    version of :func:`repro.analysis.blame.blame_spikes`.

    On a live tap the two feeds do not arrive together: the syscalls
    ride the consumer path, the benchmark's latency records exist only
    after the run, by which time every window has closed with nothing
    to measure.  A window that closes with background activity but no
    samples is therefore parked, and attributed against when its
    samples arrive.  The parking table holds ``MAX_BASELINE_WINDOWS``
    windows, oldest out first: a live run longer than that many
    windows (25.6 s at the default width) whose records arrive only
    afterwards attributes the spikes of its last 256 background-active
    windows and stays silent about earlier ones.  A replay feeds both
    in time order and never finds anything parked.
    """

    name = "latency-spike-blame"
    description = ("client latency spikes attributed to concurrent "
                   "background compaction/flush I/O")

    def __init__(self, window_ns: int = 100_000_000,
                 spike_factor: float = 2.5,
                 client_comm: str = "db_bench",
                 background_prefix: str = "rocksdb:low") -> None:
        super().__init__(window_ns, client_comm, background_prefix)
        self.spike_factor = spike_factor
        self._latencies: dict[int, list[int]] = {}
        self._baseline: deque[float] = deque(maxlen=MAX_BASELINE_WINDOWS)
        #: Windows closed with background activity but no samples yet.
        self._parked: OrderedDict[int, _WindowState] = OrderedDict()
        self.spikes_found = 0
        self._culprits: OrderedDict[str, int] = OrderedDict()

    def observe_latencies(self, records):
        window_ns = self.window_ns
        latencies = self._latencies
        for record in records:
            start_ns = record[0]
            if start_ns > self._max_ns:
                self._max_ns = start_ns
            samples = latencies.setdefault(
                (start_ns // window_ns) * window_ns, [])
            if len(samples) < MAX_WINDOW_SAMPLES:
                samples.append(record[1])
        self._close_ready()

    def _close_ready(self):
        horizon = self._max_ns - 2 * self.window_ns
        if horizon <= 0:
            return
        ready = sorted(set(self._windows) | set(self._latencies))
        for start in ready:
            if start + self.window_ns > horizon:
                break
            self._close_window(start,
                               self._windows.pop(start, _WindowState()))

    def _close_window(self, start, state):
        samples = self._latencies.pop(start, None)
        if not samples:
            if state.bg_tids:
                _capped_insert(self._parked, start, lambda: state,
                               MAX_BASELINE_WINDOWS)
            return
        if not state.bg_tids:
            state = self._parked.pop(start, state)
        ordered = sorted(samples)
        p99 = float(ordered[min(len(ordered) - 1,
                                int(round(0.99 * (len(ordered) - 1))))])
        baseline = None
        if len(self._baseline) >= 4:
            ranked = sorted(self._baseline)
            baseline = ranked[len(ranked) // 4]
        self._baseline.append(p99)
        if baseline is None or p99 <= self.spike_factor * baseline:
            return
        if not state.bg_tids:
            # A spike with no concurrent background I/O in the window
            # has nothing to attribute — that is a latency problem, not
            # a contention problem; stay silent rather than blame air.
            return
        self.spikes_found += 1
        top = sorted(state.bg_activity.items(),
                     key=lambda item: (-item[1][1], -item[1][0], item[0]))
        for name, (_, size) in top[:3]:
            if name in self._culprits:
                self._culprits[name] += size
            elif len(self._culprits) < MAX_TRACKED_PROCS:
                self._culprits[name] = size
        if self.spikes_found > MAX_SPIKE_FINDINGS:
            return
        culprits = [name for name, _ in top[:3]]
        self._emit(start + self.window_ns, Finding(
            detector=self.name,
            severity="warning",
            title=(f"p99 spike @ {start / 1e6:.0f} ms "
                   f"({p99 / 1e6:.2f} ms vs baseline "
                   f"{baseline / 1e6:.2f} ms) with "
                   f"{len(state.bg_tids)} background threads active"
                   + (f"; busiest: {', '.join(culprits)}"
                      if culprits else "")),
            details={"window_start_ns": start, "p99_ns": p99,
                     "baseline_ns": baseline,
                     "background_threads": len(state.bg_tids),
                     "culprits": culprits},
            evidence=make_evidence(state.ids, start,
                                   start + self.window_ns),
        ))

    def finalize(self, now_ns=0):
        remaining = sorted(set(self._windows) | set(self._latencies))
        for start in remaining:
            self._close_window(start,
                               self._windows.pop(start, _WindowState()))
        super().finalize(now_ns)


class StreamingDFGMiner:
    """Online per-thread DFG with drift-based phase counting.

    Keeps one merged session DFG (a ``per_thread``
    :class:`~repro.analysis.dfg.DirectlyFollowsGraph` — interleavings
    never invent edges — with a bounded chain table) plus a drift
    detector over fixed-size event windows; powers the ``dio_dfg_*``
    telemetry.
    """

    def __init__(self, node_mode: str = "syscall",
                 window_events: int = 64,
                 drift_threshold: float = 0.4,
                 max_threads: int = 4096) -> None:
        self.graph = DirectlyFollowsGraph("stream", node_mode,
                                          per_thread=True,
                                          max_threads=max_threads)
        self.window_events = window_events
        self.drift_threshold = drift_threshold
        self.phases = 1
        # Drift window: edge counts accumulated incrementally (one
        # global chain restarting at "^" per window) — equivalent to
        # feeding the window through a fresh graph, without buffering
        # and re-observing it.
        self._window_edges: Counter = Counter()
        self._window_count = 0
        self._window_prev = "^"
        self._prev_freq: Optional[dict] = None

    def observe(self, source: dict) -> None:
        self.observe_batch(DocBatch([source]))

    def observe_batch(self, batch: LaneBatch) -> None:
        nodes = self.graph.observe_batch(batch)
        # Phase drift over fixed windows of the merged stream: the
        # rest of the open window's edges are counted at once.
        at = 0
        while at < len(nodes):
            chunk = nodes[at:at + self.window_events - self._window_count]
            self._window_edges.update(zip(chain((self._window_prev,), chunk),
                                          chunk))
            self._window_prev = chunk[-1]
            self._window_count += len(chunk)
            at += len(chunk)
            if self._window_count == self.window_events:
                self._close_window()

    def _close_window(self) -> None:
        wcount = self._window_count
        freq = {e: c / wcount for e, c in self._window_edges.items()}
        prev_freq = self._prev_freq
        if prev_freq is not None:
            keys = list(freq.keys() | prev_freq.keys())
            drift = 0.5 * sum(map(abs, map(
                sub, map(freq.get, keys, repeat(0.0)),
                map(prev_freq.get, keys, repeat(0.0)))))
            if drift > self.drift_threshold:
                self.phases += 1
        self._prev_freq = freq
        self._window_edges = Counter()
        self._window_count = 0
        self._window_prev = "^"

    @property
    def nodes(self) -> int:
        return len(self.graph.node_counts)

    @property
    def edges(self) -> int:
        return len(self.graph.edges)

    @property
    def transitions(self) -> int:
        return self.graph.transitions


def default_streaming_detectors(client_comm: str = "db_bench",
                                background_prefix: str = "rocksdb:low",
                                window_ns: int = 100_000_000
                                ) -> list[StreamingDetector]:
    """The standard streaming battery, in reporting order."""
    return [
        StreamingStaleOffsetDetector(),
        StreamingFdLeakDetector(),
        StreamingContentionDetector(window_ns=window_ns,
                                    client_comm=client_comm,
                                    background_prefix=background_prefix),
        StreamingSpikeAttributor(window_ns=window_ns,
                                 client_comm=client_comm,
                                 background_prefix=background_prefix),
        StreamingWriteAmplificationDetector(client_comm=client_comm),
        StreamingUringLagDetector(),
    ]


class DiagnosisTap:
    """The streaming battery + DFG miner as one consumer-path tap.

    The tracer calls :meth:`observe_batch` for every decoded batch on
    the ingest path; a post-mortem replay calls it for every stretch of
    the stored session's lanes, with the events' ids.  Each lane is
    read off a batch once for every detector (the DFG miner included),
    and no document is built — the ingest-overhead benchmark
    (``benchmarks/test_diagnosis.py``) holds the tap to <10% of the
    ingest cost.
    """

    def __init__(self,
                 detectors: Optional[Sequence[StreamingDetector]] = None,
                 dfg: bool = True,
                 client_comm: str = "db_bench",
                 background_prefix: str = "rocksdb:low") -> None:
        self.detectors: list[StreamingDetector] = (
            list(detectors) if detectors is not None
            else default_streaming_detectors(client_comm,
                                             background_prefix))
        self.dfg: Optional[StreamingDFGMiner] = (
            StreamingDFGMiner() if dfg else None)
        self.events_observed = 0
        self.latencies_observed = 0
        self.finalized = False
        # Batch-path plan: windowed detectors with equal window keys
        # share one scan per batch; everything else feeds directly.
        # (Computed once — the detector list is fixed at construction.)
        groups: dict[tuple, list] = {}
        self._direct: list[StreamingDetector] = []
        for detector in self.detectors:
            if isinstance(detector, _WindowedDetector):
                groups.setdefault(detector.window_key, []).append(detector)
            else:
                self._direct.append(detector)
        self._window_groups = [(key, group)
                               for key, group in groups.items()]

    # -- feed ----------------------------------------------------------

    def observe(self, source: dict,
                event_id: Optional[str] = None) -> None:
        """One event: a batch of one."""
        self.observe_batch(DocBatch([source]), (event_id,))

    def observe_batch(self, batch: LaneBatch,
                      ids: Optional[Sequence[str]] = None) -> None:
        batch = _Reads(batch)
        self.events_observed += len(batch)
        for detector in self._direct:
            detector.observe_batch(batch, ids)
        for key, group in self._window_groups:
            updates, max_ns = _scan_windows(batch, ids, *key)
            for detector in group:
                detector.absorb_windows(updates, max_ns)
        if self.dfg is not None:
            self.dfg.observe_batch(batch)

    def observe_latencies(self, records: Sequence) -> None:
        """Latency records (``(start_ns, latency_ns, ...)``) in start
        order, to every detector that reads them."""
        self.latencies_observed += len(records)
        for detector in self.detectors:
            detector.observe_latencies(records)

    def observe_latency(self, start_ns: int, latency_ns: int) -> None:
        """One latency record: a batch of one."""
        self.observe_latencies(((start_ns, latency_ns),))

    @property
    def stretch_ns(self) -> Optional[int]:
        """The narrowest detector window (``None`` without one): the
        widest stretch of event time a replay may hand over at once."""
        return min((key[0] for key, _ in self._window_groups),
                   default=None)

    def finalize(self, now_ns: int = 0) -> None:
        """Flush pending state; safe to call again after more feed.

        The tracer finalizes the tap at shutdown, but latency records
        (e.g. ``bench.records()``) often only exist *after* the run —
        a second finalize closes the windows they opened.  Detectors
        guard their own one-shot emissions.
        """
        self.finalized = True
        for detector in self.detectors:
            detector.finalize(now_ns)

    # -- results -------------------------------------------------------

    @property
    def findings_emitted(self) -> int:
        return sum(len(d.emitted) for d in self.detectors)

    def findings(self) -> list[tuple[int, Finding]]:
        """All findings so far, ordered by emit time (stable)."""
        merged = [item for detector in self.detectors
                  for item in detector.emitted]
        merged.sort(key=lambda item: (item[0], item[1].detector,
                                      item[1].title))
        return merged

    def drain_new(self) -> list[tuple[int, Finding]]:
        """Findings emitted since the last drain, across detectors."""
        fresh = [item for detector in self.detectors
                 for item in detector.drain_new()]
        fresh.sort(key=lambda item: (item[0], item[1].detector,
                                     item[1].title))
        return fresh

    # -- telemetry -----------------------------------------------------

    def bind_telemetry(self, registry) -> None:
        """Register the ``dio_diagnosis_*`` / ``dio_dfg_*`` families."""
        registry.counter(
            "dio_diagnosis_events_observed_total",
            "Parsed events observed by the streaming diagnosis tap on "
            "the consumer path.",
        ).set_function(lambda: self.events_observed)
        registry.counter(
            "dio_diagnosis_findings_total",
            "Incremental findings emitted by the streaming detectors.",
        ).set_function(lambda: self.findings_emitted)
        registry.gauge(
            "dio_diagnosis_detectors",
            "Streaming detectors attached to the diagnosis tap.",
        ).set_function(lambda: len(self.detectors))
        if self.dfg is not None:
            registry.gauge(
                "dio_dfg_nodes",
                "Distinct nodes in the online Directly-Follows-Graph "
                "(syscall types, or syscall x file-class).",
            ).set_function(lambda: self.dfg.nodes)
            registry.gauge(
                "dio_dfg_edges",
                "Distinct directly-follows edges in the online DFG.",
            ).set_function(lambda: self.dfg.edges)
            registry.counter(
                "dio_dfg_transitions_total",
                "Syscall-to-syscall transitions observed by the online "
                "DFG miner.",
            ).set_function(lambda: self.dfg.transitions)
            registry.counter(
                "dio_dfg_phases_total",
                "Behaviour phases detected by DFG drift over the "
                "event stream.",
            ).set_function(lambda: self.dfg.phases)
