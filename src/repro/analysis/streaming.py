"""Online, bounded-memory diagnosis detectors (the streaming battery).

These detectors observe each parsed event exactly once, in bounded
memory, emitting incremental :class:`~repro.analysis.detectors.Finding`
objects with evidence links (event ids when available, time windows
always) as the signatures develop.  They run as a :class:`DiagnosisTap`:
on the tracer's consumer path, and over a stored session
(:func:`~repro.analysis.diagnose.follow_session`), which is what
``dio diagnose`` reports and ``--follow`` prints.  Each finding name
has one detector: these five here, the rest in the post-mortem battery
(:mod:`repro.analysis.detectors`).  There is one feed shape:
``observe_batch(batch, ids)`` is the only place a detector's step is
written, whoever calls it — ``batch`` is a
:class:`~repro.backend.lanes.LaneBatch` the step reads lane by lane
(``values_for``; :func:`rows_of` to visit only the rows it cares
about), never as documents.  The consumer hands over its decoded
:class:`~repro.tracer.batch.RecordBatch` without ids, a replay hands
over stretches of the stored session's lanes with their backend ids.
Latency records arrive the same way (``observe_latencies(records)``).
The detectors:

- :class:`StreamingStaleOffsetDetector` — the Fluent Bit §III-B
  offset-gap-after-inode-reuse signature;
- :class:`StreamingSpikeAttributor` — latency spikes attributed to the
  concurrent compaction/flush I/O in the same window (the streaming
  cousin of :mod:`repro.analysis.blame`, after ReLayTracer);
- :class:`StreamingFdLeakDetector` — per-process opens minus closes;
- :class:`StreamingWriteAmplificationDetector` — background bytes
  written per client byte written;
- :class:`StreamingUringLagDetector` — submission-to-completion lag of
  io_uring per-op events (only visible under the tracer's ring-aware
  mode; classic traces never feed it).

Every per-key table is capped (``MAX_*`` constants); overflowing keys
are dropped deterministically (oldest first), never resized unbounded.
The one exception is the fd-leak detector's per-process counters: its
verdict needs every call a process made (see its docstring).
The tap also runs an online DFG miner (:class:`StreamingDFGMiner`) so
``dio_dfg_*`` telemetry is live during ingest.
"""

from __future__ import annotations

from collections import Counter, OrderedDict, deque
from itertools import chain, compress, repeat
from operator import sub
from typing import Optional, Sequence

from repro.analysis.detectors import (EVIDENCE_ID_CAP, Finding,
                                      make_evidence)
from repro.analysis.dfg import DirectlyFollowsGraph
from repro.analysis.session import times_of
from repro.backend.lanes import LaneBatch, _groups

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

    def observe_latencies(self, records: Sequence) -> None:
        """Optional second feed: ``(start_ns, latency_ns, ...)``
        benchmark/telemetry latency records, in start order."""

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
    """Opened descriptors never closed: per-process opens minus closes.

    Counts each process's successful opens and closes; at
    :meth:`finalize`, a process whose opens outnumber its closes by
    ``min_unclosed`` or more is flagged.  The evidence is the process's
    first successful descriptor calls and the time span of all of them.

    Unlike the other per-process tables, this one is not capped: the
    verdict needs every call a process made, and the leaker is often
    the long-lived process seen first, which an oldest-first eviction
    would drop.  A process costs one record of two counters, two
    times and at most ``EVIDENCE_ID_CAP`` ids.
    """

    name = "fd-leak"
    description = "processes whose open count far exceeds their closes"

    def __init__(self, min_unclosed: int = 4) -> None:
        super().__init__()
        self.min_unclosed = min_unclosed
        self._pids: dict[int, dict] = {}

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
            time_ns = times[row]
            state = tracked.get(pids[row])
            if state is None:
                state = tracked[pids[row]] = {
                    "opens": 0, "closes": 0, "ids": [],
                    "first_ns": time_ns, "last_ns": time_ns}
            if time_ns < state["first_ns"]:
                state["first_ns"] = time_ns
            if time_ns > state["last_ns"]:
                state["last_ns"] = time_ns
            if syscalls[row] == "close":
                state["closes"] += 1
            else:
                state["opens"] += 1
            if ids is not None and ids[row] is not None \
                    and len(state["ids"]) < EVIDENCE_ID_CAP:
                state["ids"].append(ids[row])

    def finalize(self, now_ns=0):
        for pid, state in self._pids.items():
            opens, closes = state["opens"], state["closes"]
            if opens - closes < self.min_unclosed:
                continue
            self._emit(state["last_ns"], Finding(
                detector=self.name,
                severity="warning",
                title=(f"pid {pid}: {opens} opens vs {closes} closes "
                       f"({opens - closes} descriptors left open)"),
                details={"pid": pid, "opens": opens, "closes": closes},
                evidence=make_evidence(state["ids"], state["first_ns"],
                                       state["last_ns"]),
            ))
        super().finalize(now_ns)


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
    """One window's background activity."""

    __slots__ = ("bg_tids", "bg_activity", "ids")

    def __init__(self) -> None:
        self.bg_tids: set[int] = set()
        #: proc_name -> [syscalls, bytes]; insertion-capped.
        self.bg_activity: dict[str, list] = {}
        self.ids: list[str] = []


class StreamingSpikeAttributor(StreamingDetector):
    """Latency spikes attributed to concurrent background I/O, online.

    Consumes two feeds: syscall events (:meth:`observe_batch`) for
    per-window background activity, and operation latency records
    (:meth:`observe_latencies`) from the benchmark/telemetry feed.
    Windows close two widths behind the event-time watermark of both
    feeds, so the two must arrive together, in time order — as a
    replay hands them over.  A window whose p99 exceeds
    ``spike_factor`` times the running baseline (25th percentile of
    closed-window p99s) emits a finding naming the heaviest concurrent
    background threads — the streaming version of
    :func:`repro.analysis.blame.blame_spikes`.
    """

    name = "latency-spike-blame"
    description = ("client latency spikes attributed to concurrent "
                   "background compaction/flush I/O")

    def __init__(self, window_ns: int = 100_000_000,
                 spike_factor: float = 2.5,
                 client_comm: str = "db_bench",
                 background_prefix: str = "rocksdb:low") -> None:
        super().__init__()
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive: {window_ns}")
        self.window_ns = window_ns
        self.spike_factor = spike_factor
        self.client_comm = client_comm
        self.background_prefix = background_prefix
        self._windows: dict[int, _WindowState] = {}
        self._max_ns = 0
        self._latencies: dict[int, list[int]] = {}
        self._baseline: deque[float] = deque(maxlen=MAX_BASELINE_WINDOWS)
        self.spikes_found = 0
        self._culprits: OrderedDict[str, int] = OrderedDict()

    def observe_batch(self, batch, ids=None):
        # Only the background threads' rows are visited one by one; a
        # window's evidence links are the ids of its first background
        # events.
        times = times_of(batch)
        if not times:
            return
        procs = batch.values_for("proc_name")
        client, prefix = self.client_comm, self.background_prefix
        background = {proc: proc != client and proc.startswith(prefix)
                      for proc in set(procs)}
        rows = list(compress(range(len(procs)),
                             map(background.__getitem__, procs)))
        if rows:
            window_ns = self.window_ns
            windows = self._windows
            rw = _RW_SET
            tids = batch.values_for("tid")
            rets = batch.values_for("ret")
            syscalls = batch.values_for("syscall")
            for row in rows:
                start = times[row] - times[row] % window_ns
                state = windows.get(start)
                if state is None:
                    state = windows[start] = _WindowState()
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
        latest = max(times)
        if latest > self._max_ns:
            self._max_ns = latest
        self._close_ready()

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
        """Close windows at least one full window behind the watermark."""
        horizon = self._max_ns - 2 * self.window_ns
        if horizon <= 0:
            return
        ready = sorted(set(self._windows) | set(self._latencies))
        for start in ready:
            if start + self.window_ns > horizon:
                break
            self._close_window(start)

    def _close_window(self, start):
        state = self._windows.pop(start, None)
        samples = self._latencies.pop(start, None)
        if not samples:
            return
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
        if state is None:
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
        for start in sorted(set(self._windows) | set(self._latencies)):
            self._close_window(start)
        super().finalize(now_ns)


class StreamingDFGMiner:
    """Online per-thread DFG with drift-based phase counting.

    Keeps one merged session DFG (a ``per_thread``
    :class:`~repro.analysis.dfg.DirectlyFollowsGraph` — interleavings
    never invent edges — with a bounded chain table) plus a drift
    detector over fixed-size event windows; powers the ``dio_dfg_*``
    telemetry.
    """

    def __init__(self, window_events: int = 64,
                 drift_threshold: float = 0.4,
                 max_threads: int = 4096) -> None:
        self.graph = DirectlyFollowsGraph("stream", per_thread=True,
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


def default_streaming_detectors() -> list[StreamingDetector]:
    """The standard streaming battery, in reporting order."""
    return [
        StreamingStaleOffsetDetector(),
        StreamingFdLeakDetector(),
        StreamingSpikeAttributor(),
        StreamingWriteAmplificationDetector(),
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
                 dfg: bool = True) -> None:
        self.detectors: list[StreamingDetector] = (
            list(detectors) if detectors is not None
            else default_streaming_detectors())
        self.dfg: Optional[StreamingDFGMiner] = (
            StreamingDFGMiner() if dfg else None)
        self.events_observed = 0
        self.latencies_observed = 0
        self.finalized = False

    # -- feed ----------------------------------------------------------

    def observe_batch(self, batch: LaneBatch,
                      ids: Optional[Sequence[str]] = None) -> None:
        batch = _Reads(batch)
        self.events_observed += len(batch)
        for detector in self.detectors:
            detector.observe_batch(batch, ids)
        if self.dfg is not None:
            self.dfg.observe_batch(batch)

    def observe_latencies(self, records: Sequence) -> None:
        """Latency records (``(start_ns, latency_ns, ...)``) in start
        order, to every detector that reads them."""
        self.latencies_observed += len(records)
        for detector in self.detectors:
            detector.observe_latencies(records)

    @property
    def stretch_ns(self) -> Optional[int]:
        """The narrowest spike-attribution window (``None`` without
        one): the widest stretch of event time a replay may hand over
        at once."""
        return min((detector.window_ns for detector in self.detectors
                    if isinstance(detector, StreamingSpikeAttributor)),
                   default=None)

    def finalize(self, now_ns: int = 0) -> None:
        """End of stream: every detector flushes what is pending."""
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
                "(one per syscall name).",
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
