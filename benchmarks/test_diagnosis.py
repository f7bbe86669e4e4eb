"""Diagnosis-layer trajectory benchmark: tap overhead, mining, replay.

The streaming detectors ride the tracer's consumer path, so their cost
is paid on every ingested batch.  The acceptance gate for shipping
them enabled is **<10% ingest overhead**: bulk-loading a ~100k-event
synthetic trace (``DIO_BENCH_EVENTS`` overrides the size) with the
full :class:`~repro.analysis.streaming.DiagnosisTap` observing every
batch may cost at most 10% more wall-clock than the same load without
the tap.  Batch DFG mining and phase segmentation are timed alongside
(they are post-mortem, so they get a budget rather than a ratio gate),
and so is what a post-mortem ``dio diagnose`` spends: ``replay_s``
(:func:`~repro.analysis.diagnose.follow_session` over the stored
trace — the same ``observe_batch`` the tapped ingest above runs) and
``diagnose_s`` (the whole :func:`diagnose_session`), both held to
within 20% of the best same-size entry.

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
#: (contention windows, write-amp tallies, fd watermarks) — this is
#: the tap's worst case, not its best.
_PROCS = ("db_bench", "db_bench", "rocksdb:low0", "rocksdb:low1",
          "rocksdb:low2", "rocksdb:high0", "wal_writer")


def _make_events(n: int, seed: int = 1207) -> list[dict]:
    rng = random.Random(seed)
    events = []
    clock = 0
    for i in range(n):
        clock += rng.randrange(500, 1500)
        proc = _PROCS[rng.randrange(len(_PROCS))]
        events.append({
            "syscall": _SYSCALLS[i % len(_SYSCALLS)],
            "proc_name": proc,
            "pid": 4000 + rng.randrange(8),
            "tid": 4000 + rng.randrange(32),
            "time": clock,
            "ret": rng.randrange(0, 65536),
            "file_tag": f"7 {rng.randrange(16)} 1",
            "offset": rng.randrange(0, 1 << 20),
            "session": SESSION,
        })
    return events


def _ingest(events: list[dict], tap) -> float:
    """Best-of-rounds wall-clock for the batched ingest path."""
    best = float("inf")
    for _ in range(ROUNDS):
        store = DocumentStore()
        store.ensure_index("dio_trace", indexed_fields=INDEXED_FIELDS)
        active = tap() if tap is not None else None
        start = time.perf_counter()
        for lo in range(0, len(events), BATCH):
            batch = [dict(event) for event in events[lo:lo + BATCH]]
            if active is not None:
                active.observe_batch(batch)
            store.bulk("dio_trace", batch)
        if active is not None:
            active.finalize(events[-1]["time"])
        best = min(best, time.perf_counter() - start)
    return best


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
    events = _make_events(N_EVENTS)

    plain_s = _ingest(events, tap=None)
    tapped_s = _ingest(events, tap=DiagnosisTap)
    overhead = tapped_s / plain_s - 1.0

    # Batch mining over the stored trace (post-mortem path).
    store = DocumentStore()
    store.ensure_index("dio_trace", indexed_fields=INDEXED_FIELDS)
    store.bulk("dio_trace", [dict(event) for event in events])
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
    # more than 10%.  50 ms of slack absorbs timer noise on tiny runs
    # (same slack as the telemetry-overhead gate).
    assert tapped_s <= plain_s * 1.10 + 0.05, entry
    # Post-mortem mining budget: well under the ingest cost itself.
    assert dfg_s + phases_s <= max(2.0, 2 * plain_s), entry
