"""Diagnosis-layer trajectory benchmark: tap overhead, mining, replay.

The streaming detectors ride the tracer's consumer path, so their cost
is paid on every ingested batch.  The acceptance gate for shipping
them enabled is **<10% ingest overhead**: feeding a ~100k-event
synthetic trace (``DIO_BENCH_EVENTS`` overrides the size) the way the
consumer feeds it — raw ring records ``RecordBatch.decode``-d a batch
at a time, the batch handed to the tap, then ``bulk_columnar`` — with
the full :class:`~repro.analysis.streaming.DiagnosisTap` observing
every batch may cost at most 10% more wall-clock than the same feed
without the tap.  Only the feed is timed: the records are generated a
batch at a time outside the clock, so a 1M-event run holds one batch
of them, not the trace.  Batch DFG mining and phase segmentation are
timed alongside
(they are post-mortem, so they get a budget rather than a ratio gate),
and so is what a post-mortem ``dio diagnose`` spends: ``replay_s``
(:func:`~repro.analysis.diagnose.follow_session` over the stored
trace — the same ``observe_batch`` the tapped ingest above runs) and
``diagnose_s`` (the whole :func:`diagnose_session`), both held to
within 20% of the best same-size entry.  The stored trace is what the
untapped feed leaves: batches parked as lanes.

Results are appended to ``BENCH_diagnosis.json`` at the repo root so
future PRs are held to the same trajectory.
"""

import os
import random
import time
from pathlib import Path

from repro.analysis.dfg import merged_dfg, mine_phases
from repro.analysis.diagnose import diagnose_session, follow_session
from repro.analysis.streaming import DiagnosisTap
from repro.backend import DocumentStore
from repro.tracer.batch import RecordBatch

N_EVENTS = int(os.environ.get("DIO_BENCH_EVENTS", "100000"))
ROUNDS = 3
BATCH = 512                  # the consumer's staging batch size scale
SESSION = "bench-diagnosis"
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_diagnosis.json"

INDEXED_FIELDS = ("syscall", "proc_name", "pid", "tid", "file_tag",
                  "session", "time")

_SYSCALLS = ("read", "write", "pread64", "pwrite64", "fsync", "lseek",
             "openat", "close")
#: Client + background mix so every streaming detector does real work
#: (spike windows, write-amp tallies, per-process fd counts) — this is
#: the tap's worst case, not its best.
_PROCS = ("db_bench", "db_bench", "rocksdb:low0", "rocksdb:low1",
          "rocksdb:low2", "rocksdb:high0", "wal_writer")


#: Every record's ``args`` (the tap and the store never read them, so
#: they are shared, not repeated a million times).
_ARGS = {"fd": 3}


def _record_batches(n: int, seed: int = 1207):
    """The trace as the consumer drains it: raw ring records, ``BATCH``
    at a time (one fresh list each, the same for every call)."""
    rng = random.Random(seed)
    clock = 0
    for lo in range(0, n, BATCH):
        records = []
        for i in range(lo, min(lo + BATCH, n)):
            clock += rng.randrange(500, 1500)
            records.append({
                "syscall": _SYSCALLS[i % len(_SYSCALLS)],
                "args": _ARGS,
                "comm": _PROCS[rng.randrange(len(_PROCS))],
                "pid": 4000 + rng.randrange(8),
                "tid": 4000 + rng.randrange(32),
                "enter_ns": clock,
                "exit_ns": clock + 400,
                "ret": rng.randrange(0, 65536),
                "file_tag": f"7 {rng.randrange(16)} 1",
                "offset": rng.randrange(0, 1 << 20),
            })
        yield records


def _feed(n: int, tap=None) -> tuple[float, DocumentStore]:
    """One feed of the trace: the seconds spent in decode, tap and
    bulk (the record generation is off the clock), and the store."""
    store = DocumentStore()
    store.ensure_index("dio_trace", indexed_fields=INDEXED_FIELDS)
    spent = 0.0
    last_ns = 0
    for records in _record_batches(n):
        start = time.perf_counter()
        batch = RecordBatch.decode(records, session=SESSION)
        if tap is not None:
            tap.observe_batch(batch)
        store.bulk_columnar("dio_trace", batch)
        spent += time.perf_counter() - start
        last_ns = records[-1]["enter_ns"]
    if tap is not None:
        start = time.perf_counter()
        tap.finalize(last_ns)
        spent += time.perf_counter() - start
    return spent, store


def _ingest(n: int, tap) -> float:
    """Best-of-rounds seconds of the consumer's feed."""
    return min(_feed(n, tap() if tap is not None else None)[0]
               for _ in range(ROUNDS))


def _best_of_rounds(work) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = work()
        best = min(best, time.perf_counter() - start)
    return best, result


def _regression_gate(entry: dict) -> None:
    """Fail on >20% regression vs the best same-size run.

    Applied to the post-mortem replay and the whole diagnosis; entries
    written before a metric existed simply do not vote on it.  The
    50 ms of slack is the tap gate's: timer noise on tiny runs.
    """
    from _baseline import load_trajectory

    history = [e for e in load_trajectory(ARTIFACT)
               if e.get("benchmark") == "diagnosis_layer"
               and e.get("events") == entry["events"]]
    for metric in ("replay_s", "diagnose_s"):
        seen = [e[metric] for e in history if metric in e]
        if not seen:
            continue
        ceiling = 1.2 * min(seen) + 0.05
        assert entry[metric] <= ceiling, (
            f"{metric} regressed: {entry[metric]:.4f} s vs baseline "
            f"best {min(seen):.4f} s (ceiling {ceiling:.4f} s)")


def test_diagnosis_trajectory():
    plain_s = _ingest(N_EVENTS, tap=None)
    tapped_s = _ingest(N_EVENTS, tap=DiagnosisTap)
    overhead = tapped_s / plain_s - 1.0

    # Batch mining over the stored trace (post-mortem path).
    _, store = _feed(N_EVENTS)
    start = time.perf_counter()
    graph = merged_dfg(store, "dio_trace", SESSION)
    dfg_s = time.perf_counter() - start
    start = time.perf_counter()
    phases = mine_phases(store, "dio_trace", session=SESSION)
    phases_s = time.perf_counter() - start
    assert graph.events == N_EVENTS
    assert sum(phase.events for phase in phases) == N_EVENTS

    # What `dio diagnose` spends on the stored trace.
    replay_s, replayed = _best_of_rounds(
        lambda: follow_session(store, "dio_trace", SESSION))
    diagnose_s, report = _best_of_rounds(
        lambda: diagnose_session(store, SESSION))
    assert replayed.events_observed == report.events == N_EVENTS

    entry = {
        "benchmark": "diagnosis_layer",
        "events": N_EVENTS,
        "rounds": ROUNDS,
        "batch": BATCH,
        "ingest_plain_s": round(plain_s, 4),
        "ingest_tapped_s": round(tapped_s, 4),
        "tap_overhead": round(overhead, 4),
        "dfg_mining_s": round(dfg_s, 4),
        "phase_mining_s": round(phases_s, 4),
        "replay_s": round(replay_s, 4),
        "diagnose_s": round(diagnose_s, 4),
        "dfg_nodes": len(graph.node_counts),
        "dfg_edges": len(graph.edges),
        "phases": len(phases),
    }
    _regression_gate(entry)

    from _baseline import append_trajectory
    append_trajectory(ARTIFACT, entry)
    print(f"\nreplay of the stored trace: {replay_s:.4f} s; "
          f"whole diagnosis: {diagnose_s:.4f} s")

    # The acceptance gate: streaming diagnosis must not tax ingest by
    # more than 10%.  50 ms of slack absorbs timer noise on tiny runs.
    assert tapped_s <= plain_s * 1.10 + 0.05, entry
    # Post-mortem mining budget: well under the ingest cost itself.
    assert dfg_s + phases_s <= max(2.0, 2 * plain_s), entry
