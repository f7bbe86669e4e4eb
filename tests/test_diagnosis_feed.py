"""One pass per detector and one transition loop are the paths they replaced.

The diagnosis layer used to walk a session with two of everything: a
per-event ``observe`` body beside every detector's per-batch body, a
time-merged item-by-item replay beside the consumer's batches, and
three copies of the loop that records a DFG transition.  Production
keeps one of each; the other is kept here, as it was, as the oracle:

1. the **per-event detector bodies** (``PerEvent*``) — what
   ``observe``/``observe_latency`` did to a detector's state, one item
   at a time, closing windows two widths behind the watermark after
   every item.  They keep their own state, emission and confirmation,
   and import nothing from the detectors they check;
2. the **merged feed** (:func:`merged_feed`, :func:`per_event_replay`)
   — events and latency records interleaved by time and fed one by one,
   which is what each detector's one pass over the session view (every
   event and every latency record at hand, windows closed in start
   order) must equal;
3. the **per-thread graphs, then merge** (:class:`OracleGraph`,
   :func:`oracle_merged_dfg`) — one single-chain graph per TID folded
   edge by edge into a session graph, which is what a graph fed the
   ``tid`` lane as chain keys must equal in its one loop;
4. the **per-document session read and batch bodies**
   (:class:`DocumentView`, ``doc_*``) — the one sorted ``size=None``
   search, the batch detectors reading its documents, a phase walking
   every window twice, compare walking both sessions' documents —
   which is what the lane-reading bodies must say.

Last, ``fd-leak`` and ``stale-offset-resume`` say what the post-mortem
bodies they replaced said (``tests/detector_oracle.py``).
"""

import heapq
from collections import deque
from operator import itemgetter

from hypothesis import given, settings, strategies as st

from repro.analysis.compare import Divergence, compare_sessions
from repro.analysis.detectors import (DEFAULT_DETECTORS, EVIDENCE_ID_CAP,
                                      MAX_EVIDENCE_IDS,
                                      FailedSyscallDetector, FdLeakDetector,
                                      Finding, RandomAccessDetector,
                                      ShortLivedFileDetector,
                                      SmallIODetector, SpikeBlameDetector,
                                      StaleOffsetDetector, UringLagDetector,
                                      WriteAmplificationDetector,
                                      make_evidence, run_detectors)
from repro.analysis.dfg import (START, DirectlyFollowsGraph, EdgeStats, Phase,
                                merged_dfg, segment_phases)
from repro.analysis.diagnose import follow_session
from repro.analysis.patterns import (AccessPattern, classify_file_accesses,
                                     find_stale_offset_resumes)
from repro.analysis.session import SessionEvents
from repro.backend import DocumentStore
from repro.backend.lanes import DocBatch
from repro.apps.fluentbit import FLUENTBIT_BUGGY, FLUENTBIT_FIXED
from repro.dst.runner import DST_INDEX, execute_pipeline
from repro.dst.scenario import generate
from repro.experiments import run_fluentbit_case, run_rocksdb_case
from repro.experiments.rocksdb_case import RocksDBScale
from repro.kernel.errno import Errno
from tests import detector_oracle
from tests.detector_oracle import FdLeakOracle, StaleOffsetOracle
from tests.dfg_oracle import graph_as_dict, observe

INDEX = "dio_trace"
SESSION = "feed"

_READS = ("read", "pread64", "readv")
_WRITES = ("write", "pwrite64", "writev")
_OPENS = ("open", "openat", "creat")
_URING = ("uring_read", "uring_write", "uring_fsync")

#: What the per-event bodies kept: ids per finding, process names per
#: table, latency samples per window, windows in the spike baseline and
#: spike findings per session.
IDS_KEPT = 8
PROCS_KEPT = 64
SAMPLES_KEPT = 512
BASELINE_KEPT = 256
SPIKES_REPORTED = 5


# ----------------------------------------------------------------------
# Oracle 1: the per-event detector bodies, as they were

class PerEvent:
    """One item at a time into a detector's state; ``emitted`` holds
    ``(emit_ns, Finding)`` in emission order."""

    def __init__(self):
        self.emitted = []

    def observe_latency(self, start_ns, latency_ns):
        """Only the spike attributor reads latency records."""

    def finalize(self):
        """End of stream: emit whatever is still pending."""

    def _emit(self, emit_ns, finding):
        self.emitted.append((emit_ns, finding))


class PerEventStaleOffset(PerEvent):
    name = "stale-offset-resume"

    def __init__(self, confirm_after=3):
        super().__init__()
        self.confirm_after = confirm_after
        self._tags = {}

    def observe(self, source, event_id=None):
        if source["syscall"] not in _READS:
            return
        tag = source.get("file_tag")
        if tag is None:
            return
        state = self._tags.get(tag)
        if state is None:                  # first read of this tag
            offset = source.get("offset")
            suspicious = (offset is not None and offset > 0
                          and source["ret"] == 0)
            state = self._tags[tag] = dict(
                suspicious=suspicious, confirmed=False, empty_reads=0,
                offset=offset, proc_name=source["proc_name"],
                file_path=source.get("file_path"),
                first_ns=source.get("time", 0),
                last_ns=source.get("time", 0), ids=[])
            if suspicious and event_id is not None:
                state["ids"].append(event_id)
            return
        if not state["suspicious"] or state["confirmed"]:
            return
        state["last_ns"] = source.get("time", 0)
        if source["ret"] > 0:              # data arrived: all clear
            state["suspicious"] = False
            return
        state["empty_reads"] += 1
        if event_id is not None and len(state["ids"]) < IDS_KEPT:
            state["ids"].append(event_id)
        if state["empty_reads"] >= self.confirm_after:
            self._confirm(tag, state)

    def _confirm(self, tag, state):
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

    def finalize(self):
        for tag, state in self._tags.items():
            if state["suspicious"] and not state["confirmed"]:
                self._confirm(tag, state)


class PerEventFdLeak(PerEvent):
    name = "fd-leak"

    def __init__(self, min_unclosed=4):
        super().__init__()
        self.min_unclosed = min_unclosed
        self._pids = {}

    def observe(self, source, event_id=None):
        syscall = source["syscall"]
        if syscall not in _OPENS + ("close",):
            return
        if source["ret"] < 0:
            return
        time_ns = source.get("time", 0)
        state = self._pids.setdefault(
            source["pid"], {"opens": 0, "closes": 0, "ids": [],
                            "first_ns": time_ns, "last_ns": time_ns})
        state["first_ns"] = min(state["first_ns"], time_ns)
        state["last_ns"] = max(state["last_ns"], time_ns)
        state["closes" if syscall == "close" else "opens"] += 1
        if event_id is not None and len(state["ids"]) < EVIDENCE_ID_CAP:
            state["ids"].append(event_id)

    def finalize(self):
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


class PerEventUringLag(PerEvent):
    name = "uring-completion-lag"

    def __init__(self, min_lag_ns=5_000_000, baseline_factor=8.0,
                 min_samples=16):
        super().__init__()
        self.min_lag_ns = min_lag_ns
        self.baseline_factor = baseline_factor
        self.min_samples = min_samples
        self._pids = {}

    def observe(self, source, event_id=None):
        if source["syscall"] not in _URING:
            return
        lag = source.get("duration_ns")
        if lag is None:
            return
        now_ns = source.get("time", 0)
        state = self._pids.setdefault(
            source["pid"], {"count": 0, "total_lag": 0, "flagged": False,
                            "ids": [], "first_ns": now_ns})
        if event_id is not None and len(state["ids"]) < IDS_KEPT:
            state["ids"].append(event_id)
        if state["count"] >= self.min_samples and not state["flagged"]:
            mean = state["total_lag"] / state["count"]
            if lag >= self.min_lag_ns and lag >= mean * self.baseline_factor:
                state["flagged"] = True
                self._emit(now_ns, Finding(
                    detector=self.name,
                    severity="warning",
                    title=(f"pid {source['pid']}: io_uring completion "
                           f"lag {lag / 1e6:.2f} ms is "
                           f"{lag / mean:.0f}x the baseline "
                           f"{mean / 1e6:.3f} ms over "
                           f"{state['count']} completions"),
                    details={"pid": source["pid"],
                             "lag_ns": int(lag),
                             "baseline_ns": int(mean),
                             "completions": state["count"],
                             "op": source["syscall"]},
                    evidence=make_evidence(state["ids"],
                                           state["first_ns"], now_ns),
                ))
        state["count"] += 1
        state["total_lag"] += lag


class PerEventWriteAmplification(PerEvent):
    name = "write-amplification"

    def __init__(self, client_comm="db_bench", ratio_threshold=2.0,
                 min_client_bytes=64 * 1024):
        super().__init__()
        self.client_comm = client_comm
        self.ratio_threshold = ratio_threshold
        self.min_client_bytes = min_client_bytes
        self._client_bytes = self._total_bytes = 0
        self._per_proc = {}
        self._first_ns = None
        self._last_ns = 0

    def observe(self, source, event_id=None):
        if source["syscall"] not in _WRITES or source["ret"] <= 0:
            return
        time_ns = source.get("time", 0)
        if self._first_ns is None:
            self._first_ns = time_ns
        self._last_ns = max(self._last_ns, time_ns)
        size = source["ret"]
        self._total_bytes += size
        proc = source["proc_name"]
        if proc == self.client_comm:
            self._client_bytes += size
            return
        if proc in self._per_proc:
            self._per_proc[proc] += size
        elif len(self._per_proc) < PROCS_KEPT:
            self._per_proc[proc] = size

    def finalize(self):
        amplification = (self._total_bytes / self._client_bytes
                         if self._client_bytes else 0.0)
        if (self._client_bytes < self.min_client_bytes
                or amplification < self.ratio_threshold):
            return
        writers = sorted(self._per_proc.items(),
                         key=lambda item: (-item[1], item[0]))[:5]
        self._emit(self._last_ns, Finding(
            detector=self.name,
            severity="warning",
            title=(f"{self._total_bytes:,} B written for "
                   f"{self._client_bytes:,} client bytes "
                   f"({amplification:.1f}x write amplification)"),
            details={"total_bytes": self._total_bytes,
                     "client_bytes": self._client_bytes,
                     "amplification": round(amplification, 2),
                     "top_writers": [[name, size]
                                     for name, size in writers]},
            evidence=make_evidence(start_ns=self._first_ns,
                                   end_ns=self._last_ns),
        ))


class PerEventSpike(PerEvent):
    """``_WindowedDetector.observe`` + ``_window_state`` and
    ``observe_latency``, as they were: one item into its window, then a
    watermark close; a window closes once, and what it held decides."""

    name = "latency-spike-blame"

    def __init__(self, window_ns=100_000_000, spike_factor=2.5,
                 client_comm="db_bench", background_prefix="rocksdb:low"):
        super().__init__()
        self.window_ns = window_ns
        self.spike_factor = spike_factor
        self.client_comm = client_comm
        self.background_prefix = background_prefix
        #: window start -> [tids, {proc: [syscalls, bytes]}, ids]
        self._windows = {}
        self._latencies = {}
        self._baseline = deque(maxlen=BASELINE_KEPT)
        self._spikes = 0
        self._max_ns = 0

    def observe(self, source, event_id=None):
        time_ns = source.get("time", 0)
        self._max_ns = max(self._max_ns, time_ns)
        proc = source["proc_name"]
        if proc != self.client_comm and proc.startswith(
                self.background_prefix):
            start = (time_ns // self.window_ns) * self.window_ns
            tids, activity, ids = self._windows.setdefault(
                start, (set(), {}, []))
            tids.add(source["tid"])
            if proc in activity or len(activity) < PROCS_KEPT:
                counts = activity.setdefault(proc, [0, 0])
                counts[0] += 1
                if source["ret"] > 0 and source["syscall"] in (
                        _READS + _WRITES):
                    counts[1] += source["ret"]
            if event_id is not None and len(ids) < IDS_KEPT:
                ids.append(event_id)
        self._close_ready()

    def observe_latency(self, start_ns, latency_ns):
        self._max_ns = max(self._max_ns, start_ns)
        start = (start_ns // self.window_ns) * self.window_ns
        samples = self._latencies.setdefault(start, [])
        if len(samples) < SAMPLES_KEPT:
            samples.append(latency_ns)
        self._close_ready()

    def _close_ready(self):
        """Close windows at least one full window behind the watermark."""
        horizon = self._max_ns - 2 * self.window_ns
        if horizon <= 0:
            return
        for start in sorted(set(self._windows) | set(self._latencies)):
            if start + self.window_ns > horizon:
                break
            self._close_window(start)

    def _close_window(self, start):
        window = self._windows.pop(start, None)
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
        if window is None:
            return
        self._spikes += 1
        if self._spikes > SPIKES_REPORTED:
            return
        tids, activity, ids = window
        top = sorted(activity.items(),
                     key=lambda item: (-item[1][1], -item[1][0], item[0]))
        culprits = [name for name, _ in top[:3]]
        self._emit(start + self.window_ns, Finding(
            detector=self.name,
            severity="warning",
            title=(f"p99 spike @ {start / 1e6:.0f} ms "
                   f"({p99 / 1e6:.2f} ms vs baseline "
                   f"{baseline / 1e6:.2f} ms) with "
                   f"{len(tids)} background threads active"
                   + (f"; busiest: {', '.join(culprits)}"
                      if culprits else "")),
            details={"window_start_ns": start, "p99_ns": p99,
                     "baseline_ns": baseline,
                     "background_threads": len(tids),
                     "culprits": culprits},
            evidence=make_evidence(ids, start, start + self.window_ns),
        ))

    def finalize(self):
        for start in sorted(set(self._windows) | set(self._latencies)):
            self._close_window(start)


#: The battery's stamped detectors, in battery order, and their oracles.
PRODUCTION = (StaleOffsetDetector, FdLeakDetector, SpikeBlameDetector,
              WriteAmplificationDetector, UringLagDetector)
PER_EVENT = (PerEventStaleOffset, PerEventFdLeak, PerEventSpike,
             PerEventWriteAmplification, PerEventUringLag)

#: Default battery: 100 ms windows, so one tick of a generated stream
#: is 10 ms and a window is ten ticks.
DEFAULT_TICK = 10_000_000


def default_battery(classes):
    return [cls() for cls in classes]


def uneven_battery(classes):
    """The spike attributor on a window of 15 ticks; thresholds low
    enough that small streams trip every detector.  One tick is 1 ns."""
    stale, fd, spike, amplification, lag = classes
    return [stale(confirm_after=2), fd(min_unclosed=3),
            spike(window_ns=15, spike_factor=1.5),
            amplification(min_client_bytes=1),
            lag(min_lag_ns=5, baseline_factor=2.0, min_samples=2)]


def test_the_default_twin_is_the_default_battery():
    stamped = [detector for detector in DEFAULT_DETECTORS
               if detector.source == "streaming"]
    assert [type(detector) for detector in stamped] == list(PRODUCTION)
    for ours, default in zip(default_battery(PER_EVENT), stamped):
        assert ours.name == default.name
        assert ({k: v for k, v in vars(ours).items()
                 if k[0] != "_" and k != "emitted"} == vars(default))


# ----------------------------------------------------------------------
# Oracle 2: events and latency records merged by time, one at a time

def _feed_time(item):
    return item[2].get("time", 0) if item[0] == "event" else item[1]


def merged_feed(events, latency_records):
    """``diagnose._merged_feed``, as it was: each side keeps its own
    order and, on a tie, an event precedes a record of the same time."""
    return heapq.merge(
        (("event", event_id, source) for event_id, source in events),
        (("latency", record[0], record[1])
         for record in sorted(latency_records or (), key=itemgetter(0))),
        key=_feed_time)


def per_event_replay(events, latency_records, detectors):
    """``follow_session``, as it was: the merged feed, one item at a
    time to every detector."""
    for kind, first, second in merged_feed(events, latency_records):
        for detector in detectors:
            if kind == "event":
                detector.observe(second, first)
            else:
                detector.observe_latency(first, second)
    for detector in detectors:
        detector.finalize()
    return detectors


def emitted(detectors):
    """Everything an oracle battery said, per detector, in emission
    order — emit time, title, details and evidence ids included."""
    return [(detector.name, [(emit_ns, finding.as_dict())
                             for emit_ns, finding in detector.emitted])
            for detector in detectors]


def detected(detectors, view):
    """The same, of production detectors' one pass over ``view``."""
    return [(detector.name, [(emit_ns, finding.as_dict())
                             for emit_ns, finding in detector.detect(view)])
            for detector in detectors]


# ----------------------------------------------------------------------
# Streams

PROCS = ("db_bench", "rocksdb:low0", "rocksdb:low1", "rocksdb:low2",
         "rocksdb:high0", "fluent-bit")
SYSCALLS = ("read", "pread64", "write", "pwrite64", "openat", "close",
            "fsync") + _URING[:2]

events_st = st.lists(st.fixed_dictionaries(
    {"syscall": st.sampled_from(SYSCALLS),
     "proc_name": st.sampled_from(PROCS),
     "pid": st.integers(1, 3),
     "tid": st.integers(1, 6),
     "ret": st.sampled_from((-2, 0, 0, 1, 64, 4096))},
    optional={"file_tag": st.sampled_from(("7 1 1", "7 2 1", "7 3 1")),
              "offset": st.sampled_from((0, 26, 4096)),
              "duration_ns": st.sampled_from((1, 1, 2, 9, 100)),
              "file_path": st.sampled_from(("/a.log", "/db/1.sst"))}),
    max_size=70)
#: Mostly tiny steps — equal times and crowded windows (more than
#: MAX_EVIDENCE_IDS background events in one) are the common case —
#: with the odd jump over several windows.
steps_st = st.lists(st.sampled_from((0, 0, 0, 1, 1, 2, 5, 13, 27)),
                    min_size=70, max_size=70)
records_st = st.lists(st.tuples(st.integers(0, 160),
                                st.sampled_from((1, 1, 1, 2, 3, 40, 90))),
                      max_size=50)


def timed(events, steps, untimed, tick):
    """The stream in stored order: ``untimed`` events without a
    ``time`` first (the store sorts them there, the feed reads them as
    time 0), the rest at non-decreasing times."""
    out, clock = [], 0
    for n, (event, step) in enumerate(zip(events, steps)):
        event = dict(event, session=SESSION)
        if n >= untimed:
            clock += step
            event["time"] = clock * tick
        out.append(event)
    return out


def stored(stream):
    store = DocumentStore()
    store.bulk(INDEX, [dict(event) for event in stream])
    return store


def stored_events(store, session=SESSION):
    """``(id, source)`` of a stored session, stably sorted by time: the
    read the session view made as one search before it read lanes."""
    response = store.search(INDEX, query={"term": {"session": session}},
                            sort=["time"], size=None)
    return [(hit["_id"], hit["_source"]) for hit in response["hits"]["hits"]]


def check_replay_equals_per_event_merge(stream, records, battery):
    store = stored(stream)
    events = stored_events(store)
    assert [source for _, source in events] == stream
    detectors = battery(PRODUCTION)
    oracle = per_event_replay(events, records, battery(PER_EVENT))
    view = SessionEvents(store, INDEX, SESSION, records)
    assert detected(detectors, view) == emitted(oracle)
    findings = follow_session(store, INDEX, SESSION, detectors,
                              latency_records=records)
    assert findings == sorted(
        (pair for detector in oracle for pair in detector.emitted),
        key=lambda item: (item[0], item[1].detector, item[1].title))
    return findings


# ----------------------------------------------------------------------
# (a) each detector's one pass is the per-event merged replay

@settings(max_examples=150, deadline=None)
@given(events=events_st, steps=steps_st, untimed=st.integers(0, 2),
       records=records_st)
def test_replay_equals_per_event_merge_default_battery(events, steps,
                                                       untimed, records):
    records = [(start * DEFAULT_TICK, latency) for start, latency in records]
    check_replay_equals_per_event_merge(
        timed(events, steps, untimed, DEFAULT_TICK), records,
        default_battery)


@settings(max_examples=250, deadline=None)
@given(events=events_st, steps=steps_st, untimed=st.integers(0, 2),
       records=records_st)
def test_replay_equals_per_event_merge_uneven_windows(events, steps,
                                                      untimed, records):
    check_replay_equals_per_event_merge(
        timed(events, steps, untimed, 1), records, uneven_battery)


def busy_session(tick):
    """A stream on which every detector of the default battery fires:
    calm and contended 100 ms windows with latency samples (spikes in
    the contended ones, each holding far more background events than a
    finding links), a descriptor leak, a stale-offset resume, a lagging
    ring completion and amplified writes."""
    stream, records = [], []

    def at(tick_no, syscall, proc, tid, ret, **extra):
        stream.append(dict(syscall=syscall, proc_name=proc, pid=tid // 100,
                           tid=tid, ret=ret, time=tick_no * tick,
                           session=SESSION, **extra))

    for window in range(14):
        base = window * 10
        contended = window >= 6 and window % 2 == 0
        for n in range(10):
            at(base + n, "write", "db_bench", 100 + n % 4, 4096)
            records.append(((base + n) * tick, 90 if contended else 1))
        if contended:
            for thread in range(6):
                for n in range(4):
                    at(base + n, "pwrite64", f"rocksdb:low{thread}",
                       200 + thread, 262_144)
    for n in range(5):
        at(3, "openat", "db_bench", 101, 3 + n)
    at(4, "read", "fluent-bit", 301, 0, file_tag="7 9 1", offset=26,
       file_path="/app.log")
    for n in range(3):
        at(5 + n, "read", "fluent-bit", 301, 0, file_tag="7 9 1",
           offset=26)
    for n in range(20):
        at(20 + n, "uring_read", "db_bench", 102, 4096, duration_ns=1000)
    at(41, "uring_read", "db_bench", 102, 4096, duration_ns=80_000_000)
    stream.sort(key=itemgetter("time"))
    return stream, records[::-1]


def test_replay_equals_per_event_merge_when_everything_fires():
    check_replay_equals_per_event_merge(*busy_session(1), uneven_battery)
    stream, records = busy_session(DEFAULT_TICK)
    findings = check_replay_equals_per_event_merge(stream, records,
                                                   default_battery)
    fired = {finding.detector for _, finding in findings}
    assert fired == {cls.name for cls in PRODUCTION}
    spikes = [finding for _, finding in findings
              if finding.detector == "latency-spike-blame"]
    assert len(spikes) == 4
    assert all(len(finding.evidence["event_ids"]) == MAX_EVIDENCE_IDS
               for finding in spikes)


def test_findings_settle_in_the_order_the_stream_settled_them():
    # A detector returns its findings in the order the item-by-item
    # feed emitted them: a confirmed stale offset as its confirming
    # read goes by, then the pending ones by first read, and each
    # io_uring lag at its own completion, not in the order the pids
    # first appeared.
    def event(time_ns, syscall, pid=1, ret=0, **extra):
        return dict(syscall=syscall, proc_name="fb", pid=pid, tid=pid,
                    ret=ret, time=time_ns, session=SESSION, **extra)

    stream = [event(1, "uring_read", 2, duration_ns=1),
              event(2, "uring_read", 2, duration_ns=1),
              event(3, "uring_read", 3, duration_ns=1),
              event(4, "uring_read", 3, duration_ns=1),
              event(5, "uring_read", 3, duration_ns=10),
              event(6, "read", file_tag="7 1 1", offset=26),
              event(7, "read", file_tag="7 2 1", offset=26),
              event(8, "read", file_tag="7 2 1", offset=26),
              event(9, "read", file_tag="7 2 1", offset=26),
              event(10, "read", file_tag="7 3 1", offset=4096),
              event(20, "uring_read", 2, duration_ns=10)]
    findings = check_replay_equals_per_event_merge(stream, [],
                                                   uneven_battery)
    assert [(emit_ns, finding.detector) for emit_ns, finding
            in findings] == [
        (5, "uring-completion-lag"), (6, "stale-offset-resume"),
        (9, "stale-offset-resume"), (10, "stale-offset-resume"),
        (20, "uring-completion-lag")]


# ----------------------------------------------------------------------
# Oracle 3: one graph per thread, then an edge-by-edge merge

def edge_observe(stats, gap_ns):
    """``EdgeStats.observe``, as it was."""
    stats.count += 1
    if gap_ns < 0:
        gap_ns = 0
    stats.gap_total_ns += gap_ns
    if stats.gap_min_ns is None or gap_ns < stats.gap_min_ns:
        stats.gap_min_ns = gap_ns
    if gap_ns > stats.gap_max_ns:
        stats.gap_max_ns = gap_ns


class OracleGraph(DirectlyFollowsGraph):
    """The single-chain, per-event ``DirectlyFollowsGraph.observe``."""

    def __init__(self, name=""):
        super().__init__(name)
        self._prev_node = None
        self._prev_ns = 0

    def observe(self, source):
        node = source["syscall"]
        time_ns = source.get("time", 0)
        self.events += 1
        self.node_counts[node] = self.node_counts.get(node, 0) + 1
        if self.first_ns is None:
            self.first_ns = time_ns
        self.last_ns = max(self.last_ns, time_ns)
        prev = self._prev_node if self._prev_node is not None else START
        key = (prev, node)
        stats = self.edges.get(key)
        if stats is None:
            stats = self.edges[key] = EdgeStats()
        edge_observe(stats, time_ns - self._prev_ns if prev != START else 0)
        self._prev_node = node
        self._prev_ns = time_ns
        return node


def oracle_merged_dfg(stream, name):
    """``merged_dfg``, as it was."""
    merged = OracleGraph(name)
    per_thread = {}
    for source in stream:
        tid = source["tid"]
        graph = per_thread.get(tid)
        if graph is None:
            graph = per_thread[tid] = OracleGraph(str(tid))
        graph.observe(source)
    for graph in per_thread.values():
        merged.events += graph.events
        if graph.first_ns is not None:
            if merged.first_ns is None or graph.first_ns < merged.first_ns:
                merged.first_ns = graph.first_ns
        merged.last_ns = max(merged.last_ns, graph.last_ns)
        for node, count in graph.node_counts.items():
            merged.node_counts[node] = (
                merged.node_counts.get(node, 0) + count)
        for edge, stats in graph.edges.items():
            into = merged.edges.get(edge)
            if into is None:
                into = merged.edges[edge] = EdgeStats()
            into.count += stats.count
            into.gap_total_ns += stats.gap_total_ns
            if stats.gap_min_ns is not None and (
                    into.gap_min_ns is None
                    or stats.gap_min_ns < into.gap_min_ns):
                into.gap_min_ns = stats.gap_min_ns
            into.gap_max_ns = max(into.gap_max_ns, stats.gap_max_ns)
    return merged


# ----------------------------------------------------------------------
# (c) the one transition loop is the three it replaced

#: Times in any order: within a thread a gap may run backwards (it
#: counts as 0), and the earliest event need not be the first.
dfg_stream_st = st.lists(st.fixed_dictionaries(
    {"syscall": st.sampled_from(("read", "write", "fsync", "close")),
     "tid": st.integers(1, 4),
     "pid": st.integers(1, 2)},
    optional={"time": st.integers(0, 50),
              "file_path": st.sampled_from(("/a.log", "/db/1.sst", "")),
              "args": st.sampled_from((None, {}, {"path": "/x.wal"}))}),
    max_size=60)


@settings(max_examples=300, deadline=None)
@given(stream=dfg_stream_st, batch=st.integers(1, 20))
def test_per_thread_loop_equals_graphs_then_merge(stream, batch):
    oracle = graph_as_dict(oracle_merged_dfg(stream, "stream"))
    graph = DirectlyFollowsGraph("stream")
    observe(graph, DocBatch(stream), per_thread=True)
    assert graph_as_dict(graph) == oracle
    # A view whose one read is the stream as it came, unsorted.
    view = SessionEvents(None, INDEX)
    view.__dict__["_read"] = ([], DocBatch(stream), None)
    assert graph_as_dict(merged_dfg(None, "stream", None,
                                    view=view)) == oracle
    pieces = DirectlyFollowsGraph("stream")
    for lo in range(0, len(stream), batch):
        observe(pieces, DocBatch(stream[lo:lo + batch]), per_thread=True)
    assert graph_as_dict(pieces) == oracle


@settings(max_examples=300, deadline=None)
@given(stream=dfg_stream_st, batch=st.integers(1, 20))
def test_single_chain_loop_equals_per_event_observe(stream, batch):
    oracle = OracleGraph("g")
    nodes = [oracle.observe(source) for source in stream]
    whole = DirectlyFollowsGraph("g")
    assert observe(whole, DocBatch(stream)) == nodes
    assert graph_as_dict(whole) == graph_as_dict(oracle)
    pieces = DirectlyFollowsGraph("g")
    for lo in range(0, len(stream), batch):
        observe(pieces, DocBatch(stream[lo:lo + batch]))
    assert graph_as_dict(pieces) == graph_as_dict(oracle)
    single = DirectlyFollowsGraph("g")
    assert [observe(single, DocBatch([source]))[0]
            for source in stream] == nodes
    assert graph_as_dict(single) == graph_as_dict(oracle)


def test_miner_in_consumer_sized_batches_holds_the_session_graph():
    stream, _ = busy_session(DEFAULT_TICK)
    stream = stream * 6                 # time runs backwards five times
    assert len(stream) > 3 * 512
    graph = DirectlyFollowsGraph("stream")
    for lo in range(0, len(stream), 512):
        observe(graph, DocBatch(stream[lo:lo + 512]), per_thread=True)
    assert graph_as_dict(graph) == graph_as_dict(
        oracle_merged_dfg(stream, "stream"))


# ----------------------------------------------------------------------
# One detector per finding, and the post-mortem bodies it replaced

def streamed(store, detector, index=INDEX, session=SESSION):
    """What ``detector`` alone says of a stored session."""
    return [finding for _, finding
            in follow_session(store, index, session, [detector])]


@settings(max_examples=400, deadline=None)
@given(events=events_st, steps=steps_st, untimed=st.integers(0, 2),
       min_unclosed=st.sampled_from((1, 1, 2, 4)))
def test_fd_leak_is_the_batch_rule(events, steps, untimed, min_unclosed):
    store = stored(timed(events, steps, untimed, 1))
    ours, batch = (
        sorted(findings, key=lambda finding: finding.title) for findings in (
            streamed(store, FdLeakDetector(min_unclosed)),
            FdLeakOracle(min_unclosed).run(store, INDEX, SESSION)))
    assert ours == batch


def stale_tags(store, index, session):
    """The file tags the stale-offset detector flags, after checking
    that ``find_stale_offset_resumes`` names the same and that they are
    the ones the batch body flagged."""
    tags = sorted(finding.details["file_tag"] for finding in streamed(
        store, StaleOffsetDetector(), index, session))
    assert tags == [resume.file_tag for resume
                    in find_stale_offset_resumes(store, index, session)]
    assert tags == sorted(finding.details["file_tag"] for finding
                          in StaleOffsetOracle().run(store, index, session))
    return tags


def test_data_after_the_confirmation_leaves_the_resume_flagged():
    # The one input the two stale-offset rules part on: a tag whose
    # data arrives after ``confirm_after`` empty polls.  The bytes
    # before the stale offset were skipped either way, so the
    # detector's rule holds — flagged at the third empty poll — where
    # the body it replaced cleared the tag once any read returned data.
    store = stored([dict(syscall="read", proc_name="fluent-bit", pid=3,
                         tid=3, ret=ret, time=time_ns, file_tag="7 9 1",
                         offset=26, file_path="/app.log", session=SESSION)
                    for time_ns, ret in enumerate((0, 0, 0, 0, 64))])
    finding, = streamed(store, StaleOffsetDetector())
    assert finding.details["empty_reads"] == 3
    assert finding.evidence["window"] == {"start_ns": 0, "end_ns": 3}
    resume, = find_stale_offset_resumes(store, INDEX, SESSION)
    assert (resume.file_tag, resume.offset, resume.time) == ("7 9 1", 26, 0)
    assert detector_oracle.find_stale_offset_resumes(
        store, INDEX, SESSION) == []


def test_stale_offset_flags_what_the_batch_body_flagged():
    buggy = run_fluentbit_case(FLUENTBIT_BUGGY)
    assert len(stale_tags(buggy.store, INDEX,
                          buggy.tracer.config.session_name)) == 1
    fixed = run_fluentbit_case(FLUENTBIT_FIXED)
    assert stale_tags(fixed.store, INDEX,
                      fixed.tracer.config.session_name) == []
    rocksdb = run_rocksdb_case(RocksDBScale(duration_ns=400_000_000))
    assert stale_tags(rocksdb.store, INDEX, rocksdb.session) == []
    for seed in range(1, 51):
        run = execute_pipeline(generate(seed))
        stale_tags(run.inner_store, DST_INDEX, run.session)


# ----------------------------------------------------------------------
# Oracle 4: the per-document session read and batch bodies, as they were
#
# Before the diagnosis layer read lanes, the session view was one
# sorted ``size=None`` search whose subsets were lists of ``(id,
# source)`` pairs, the batch detectors read those documents (and sent
# two unsorted ``size=None`` searches of their own), and a behaviour
# phase walked every window's documents a second time to take it in.
# Those bodies are kept here, as they were, and production must say
# exactly what they said.

class DocumentView:
    """``SessionEvents`` as it was: documents, not lanes."""

    def __init__(self, store, index, session):
        self.store, self.index, self.session = store, index, session
        response = store.search(index, query=self.query(), sort=["time"],
                                size=None)
        self.events = [(hit["_id"], hit["_source"])
                       for hit in response["hits"]["hits"]]

    def query(self, extra=None):
        must = list(extra or [])
        if self.session:
            must.append({"term": {"session": self.session}})
        return {"bool": {"must": must}} if must else {"match_all": {}}

    def grouped(self, field):
        groups = {}
        for event in self.events:
            groups.setdefault(event[1].get(field), []).append(event)
        return groups

    def data_by_file(self):
        per_file = {}
        for _, source in self.events:
            tag = source.get("file_tag")
            if tag is not None and source.get("syscall") in _READS + _WRITES:
                per_file.setdefault(tag, []).append(source)
        return per_file


def doc_evidence(events):
    times = [source.get("time", 0) for _, source in events]
    return make_evidence([event_id for event_id, _ in events[:20]],
                         min(times) if times else None,
                         max(times) if times else None)


def doc_access_patterns(view):
    patterns = []
    for tag, events in sorted(view.data_by_file().items()):
        reads = sum(1 for e in events if e["syscall"] in _READS)
        sizes = [max(e["ret"], 0) for e in events]
        read_sizes = [max(e["ret"], 0) for e in events
                      if e["syscall"] in _READS]
        sequential = considered = 0
        expected = None
        for event in events:
            offset = event.get("offset")
            if offset is None:
                continue
            if expected is not None:
                considered += 1
                if offset == expected:
                    sequential += 1
            expected = offset + max(event["ret"], 0)
        patterns.append(AccessPattern(
            tag, events[0].get("file_path"), reads, len(events) - reads,
            (sequential / considered) if considered else 1.0,
            sum(sizes) / len(sizes),
            sum(read_sizes) / len(read_sizes) if read_sizes else 0.0))
    return patterns


def doc_small_io_findings(detector, view):
    findings = []
    for pattern in doc_access_patterns(view):
        requests = pattern.reads + pattern.writes
        if requests < detector.min_requests:
            continue
        relevant = (pattern.mean_read_bytes
                    if pattern.reads >= pattern.writes
                    else pattern.mean_request_bytes)
        if 0 < relevant < detector.threshold_bytes / 4:
            findings.append(Finding(
                detector.name, "warning",
                f"{pattern.file_path or pattern.file_tag}: {requests} "
                f"requests averaging {relevant:.0f} B — consider batching",
                {"file_tag": pattern.file_tag, "requests": requests,
                 "mean_bytes": relevant},
                doc_evidence(view.grouped("file_tag")[pattern.file_tag])))
    return findings


def doc_random_access_findings(detector, view):
    return [Finding(
        detector.name, "info",
        f"{pattern.file_path or pattern.file_tag}: {pattern.reads} reads, "
        f"only {pattern.sequential_fraction * 100:.0f}% sequential",
        {"file_tag": pattern.file_tag, "reads": pattern.reads,
         "sequential_fraction": pattern.sequential_fraction},
        doc_evidence(view.grouped("file_tag")[pattern.file_tag]))
        for pattern in doc_access_patterns(view)
        if pattern.reads >= detector.min_reads
        and pattern.sequential_fraction <= detector.max_sequential_fraction]


def doc_failed_findings(detector, view):
    response = view.store.search(
        view.index, query=view.query([{"range": {"ret": {"lt": 0}}}]),
        sort=["time"], size=None)
    clusters = {}
    for hit in response["hits"]["hits"]:
        source = hit["_source"]
        clusters.setdefault((source["syscall"], -source["ret"]),
                            []).append(hit)
    findings = []
    for (syscall, errno_value), hits in sorted(clusters.items()):
        if len(hits) < detector.min_failures:
            continue
        try:
            errno_name = Errno(errno_value).name
        except ValueError:
            errno_name = str(errno_value)
        times = [hit["_source"].get("time", 0) for hit in hits]
        findings.append(Finding(
            detector.name, "warning",
            f"{syscall} failed with {errno_name} {len(hits)} times",
            {"syscall": syscall, "errno": errno_name, "count": len(hits)},
            make_evidence([hit["_id"] for hit in hits], min(times),
                          max(times))))
    return findings


def doc_short_lived_findings(detector, view):
    store, index = view.store, view.index
    unlinked = store.search(index, query=view.query([
        {"terms": {"syscall": ["unlink", "unlinkat"]}},
        {"term": {"ret": 0}}]), size=None)
    deleted_paths = {hit["_source"].get("args", {}).get("path")
                     for hit in unlinked["hits"]["hits"]}
    deleted_paths.discard(None)
    if not deleted_paths:
        return []
    writes = store.search(index, query=view.query([
        {"terms": {"syscall": ["write", "pwrite64", "writev"]}},
        {"exists": {"field": "file_path"}},
        {"range": {"ret": {"gt": 0}}}]), size=None)
    churn, churn_hits = {}, {}
    for hit in writes["hits"]["hits"]:
        source = hit["_source"]
        path = source["file_path"]
        if path in deleted_paths:
            churn[path] = churn.get(path, 0) + source["ret"]
            churn_hits.setdefault(path, []).append(hit)
    heavy = {path: total for path, total in churn.items()
             if total >= detector.min_bytes}
    if len(heavy) < detector.min_files:
        return []
    total = sum(heavy.values())
    evidence_hits = [hit for path in sorted(heavy)
                     for hit in churn_hits[path]]
    evidence_hits += list(unlinked["hits"]["hits"])
    times = [hit["_source"].get("time", 0) for hit in evidence_hits]
    return [Finding(
        detector.name, "info",
        f"{len(heavy)} files totalling {total:,} written bytes were "
        "deleted within the session (write churn)",
        {"files": len(heavy), "bytes": total},
        make_evidence([hit["_id"] for hit in evidence_hits],
                      min(times) if times else None,
                      max(times) if times else None))]


DOC_BODIES = {
    SmallIODetector: doc_small_io_findings,
    RandomAccessDetector: doc_random_access_findings,
    FailedSyscallDetector: doc_failed_findings,
    ShortLivedFileDetector: doc_short_lived_findings,
}


def doc_run_detectors(store, session, detectors):
    """``run_detectors`` over the per-document bodies (the contention
    detector reads aggregations only and never had another body)."""
    view = DocumentView(store, INDEX, session)
    findings = []
    for detector in detectors:
        body = DOC_BODIES.get(type(detector))
        findings.extend(detector.run(store, INDEX, session) if body is None
                        else body(detector, view))
    findings.sort(key=lambda f: ({"critical": 0, "warning": 1,
                                  "info": 2}[f.severity],
                                 f.detector, f.title))
    return findings


def doc_segment_phases(events, window_events, drift_threshold):
    """``segment_phases`` as it was: a phase takes a window in by
    walking its documents again."""
    phases, current, prev_drift, window = [], None, 0.0, []

    def graph_of(batch):
        graph = OracleGraph("p")
        for source in batch:
            graph.observe(source)
        return graph

    def close():
        if current is not None and current.events:
            phases.append(Phase(current.first_ns or 0, current.last_ns,
                                current.events, current, prev_drift))

    for source in events:
        window.append(source)
        if len(window) < window_events:
            continue
        incoming = graph_of(window)
        if current is None:
            current = incoming
        else:
            drift = current.distance(incoming)
            if drift > drift_threshold:
                close()
                current, prev_drift = incoming, drift
            else:
                for each in window:
                    current.observe(each)
        window = []
    if window:
        incoming = graph_of(window)
        if current is None:
            current = incoming
        else:
            drift = current.distance(incoming)
            if len(window) >= window_events // 2 and drift > drift_threshold:
                close()
                current, prev_drift = incoming, drift
            else:
                for each in window:
                    current.observe(each)
    close()
    return phases


def doc_compare(store, session_a, session_b, procs):
    """``compare_sessions``' sequence half, over documents."""
    def sequence(session):
        wanted = set(procs or ())
        return [source for _, source
                in DocumentView(store, INDEX, session).events
                if not wanted or source.get("proc_name") in wanted]

    events_a, events_b = sequence(session_a), sequence(session_b)
    norm = []
    for events in (events_a, events_b):
        alias = {}
        norm.append([(alias.setdefault(e["proc_name"], f"P{len(alias)}"),
                      e["syscall"], e["ret"], e.get("offset"))
                     for e in events])
    prefix = 0
    for left, right in zip(*norm):
        if left != right:
            break
        prefix += 1
    if prefix == max(map(len, norm)):
        return prefix, None
    return prefix, Divergence(
        prefix, events_a[prefix] if prefix < len(events_a) else None,
        events_b[prefix] if prefix < len(events_b) else None)


# ----------------------------------------------------------------------
# (d) the lane-reading batch bodies are the per-document ones

#: Thresholds low enough that tiny streams trip every batch detector.
def low_battery():
    return (FailedSyscallDetector(min_failures=1),
            SmallIODetector(threshold_bytes=1 << 16, min_requests=2),
            RandomAccessDetector(max_sequential_fraction=0.9, min_reads=2),
            ShortLivedFileDetector(min_bytes=1, min_files=1))


batch_events_st = st.lists(st.fixed_dictionaries(
    {"syscall": st.sampled_from(("read", "pread64", "write", "pwrite64",
                                 "openat", "close", "unlink", "unlinkat",
                                 "fsync")),
     "proc_name": st.sampled_from(PROCS),
     "pid": st.integers(1, 3),
     "tid": st.integers(1, 5),
     "ret": st.sampled_from((-13, -2, 0, 0, 1, 64, 4096)),
     "time": st.integers(0, 40)},           # in any order
    optional={"file_tag": st.sampled_from(("7 1 1", "7 2 1", "7 3 1")),
              "offset": st.sampled_from((0, 1, 26, 64, 4096)),
              "file_path": st.sampled_from(("/a.log", "/db/1.sst")),
              "args": st.sampled_from(({"path": "/a.log"}, {"fd": 3},
                                       {"path": "/db/1.sst", "fd": 4}))}),
    max_size=60)


def stored_as(stream, parked):
    """A session stored as documents, or parked as lanes."""
    store = DocumentStore()
    docs = [dict(event, session=SESSION) for event in stream]
    if parked:
        store.bulk_columnar(INDEX, DocBatch(docs))
    else:
        store.bulk(INDEX, docs)
    return store


@settings(max_examples=200, deadline=None)
@given(stream=batch_events_st, parked=st.booleans())
def test_batch_detectors_on_lanes_say_what_the_document_bodies_said(
        stream, parked):
    store = stored_as(stream, parked)
    battery = low_battery()
    assert run_detectors(store, INDEX, SESSION, battery) == \
        doc_run_detectors(store, SESSION, battery)
    view = DocumentView(store, INDEX, SESSION)
    assert classify_file_accesses(store, INDEX, SESSION) == \
        doc_access_patterns(view)


@settings(max_examples=200, deadline=None)
@given(stream=dfg_stream_st, window=st.integers(2, 9),
       threshold=st.sampled_from((0.0, 0.2, 0.5)))
def test_phases_that_absorb_window_graphs_are_the_phases_that_rewalked(
        stream, window, threshold):
    got = segment_phases(DocBatch(stream), window, threshold, name="p")
    want = doc_segment_phases(stream, window, threshold)
    assert [(p.as_dict(), graph_as_dict(p.dfg), p.drift) for p in got] == \
        [(p.as_dict(), graph_as_dict(p.dfg), p.drift) for p in want]


@settings(max_examples=100, deadline=None)
@given(left=batch_events_st, right=batch_events_st,
       procs=st.sampled_from((None, ["db_bench"], ["fluent-bit", "x"])))
def test_compare_on_lanes_is_compare_on_documents(left, right, procs):
    store = DocumentStore()
    for session, stream in (("a", left), ("b", right)):
        store.bulk(INDEX, [dict(event, session=session) for event in stream])
    comparison = compare_sessions(store, "a", "b", INDEX, procs)
    assert (comparison.common_prefix, comparison.divergence) == \
        doc_compare(store, "a", "b", procs)


def test_the_case_studies_on_lanes_say_what_the_document_bodies_said():
    case = run_rocksdb_case(RocksDBScale(duration_ns=400_000_000))
    assert run_detectors(case.store, INDEX, case.session) == \
        doc_run_detectors(case.store, case.session, DEFAULT_DETECTORS)
    events = [source for _, source
              in DocumentView(case.store, INDEX, case.session).events]
    view = SessionEvents(case.store, INDEX, case.session)
    assert [(p.as_dict(), p.drift) for p in segment_phases(view.batch)] == \
        [(p.as_dict(), p.drift)
         for p in doc_segment_phases(events, 64, 0.4)]


def test_short_lived_evidence_is_in_stored_order():
    # The unsorted searches the scan replaced returned rows as stored;
    # the view holds them by time.  Two writes stored out of time order
    # tell the two apart.
    stream = [dict(syscall="write", proc_name="db_bench", pid=1, tid=1,
                   ret=64, time=time_ns, file_path="/a.log")
              for time_ns in (30, 10)]
    stream.append(dict(syscall="unlink", proc_name="db_bench", pid=1, tid=1,
                       ret=0, time=20, args={"path": "/a.log"}))
    for parked in (False, True):
        store = stored_as(stream, parked)
        battery = [ShortLivedFileDetector(min_bytes=1, min_files=1)]
        finding, = run_detectors(store, INDEX, SESSION, battery)
        assert finding.evidence["event_ids"] == ["1", "2", "3"]
        assert [finding] == doc_run_detectors(store, SESSION, battery)
