"""Scatter-gather trajectory benchmark: sharded router vs one store.

Simulates the deployment the router exists for — a backend *serving
dashboards while ingesting* — over a ~100k-event synthetic trace
(``DIO_BENCH_EVENTS`` overrides the size).  The trace is ingested in
chronological chunks; after every chunk the workload refreshes

- four flat summary panels over the whole index (an un-nested
  ``date_histogram``, two ``terms``, one ``stats``) — *not* the
  paper's Fig. 4 request, which nests ``terms`` inside the
  ``date_histogram``; ``benchmarks/e2e`` ``live_tail_sharded`` sends
  that one,
- a per-process drill-down (the same aggs under a ``term`` filter),
- a "recent events" pane (``range`` on ``time``, sorted descending).

With ``time_window`` sharding each chunk lands on one or two shards,
so the cold shards answer from their epoch-keyed partial caches and
only the hot shard recomputes — the single store invalidates its whole
aggregation cache on every chunk and recomputes over all documents.
That cache locality is the whole speed-up: the router visits its
shards one after the other on the caller's thread.  (It used to fan
out over a thread pool.  Threads over pure-Python shards under the GIL
returned nothing: on this workload at 100k events, same process,
alternating runs, median ``serve_s`` threaded -> serial was 0.90 ->
0.76 s at 4 shards, 0.58 -> 0.54 s at 8 and 1.09 -> 1.08 s at 2, with a
run-to-run spread of +-25% on either side — so the pool is gone.)
The curve runs shard counts 1/2/4/8 and gates >= 2x combined
search+aggregation wall-clock at 4 shards at full (1M-event) scale.

Every curve point runs under a differential gate against the
``shard_count=1`` reference: byte-identical documents (scan digest),
query answers, aggregation payloads, correlation (report and
post-update store state), and diagnosis.  Results append to
``BENCH_sharding.json`` at the repo root.
"""

import hashlib
import json
import os
import random
import time
from pathlib import Path

from repro.analysis.diagnose import diagnose_session
from repro.backend.correlation import FilePathCorrelator
from repro.backend.router import create_store

N_EVENTS = int(os.environ.get("DIO_BENCH_EVENTS", "100000"))
REFRESHES = 20
SHARD_CURVE = (1, 2, 4, 8)
SESSION = "bench"
INDEX = "dio_trace"
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_sharding.json"

INDEXED_FIELDS = ("syscall", "proc_name", "pid", "tid", "file_tag",
                  "session", "time", "latency_ns")

#: ~16 time windows across the whole trace regardless of scale: an
#: ingest chunk (1/20th of the trace) then spans at most two windows,
#: so each refresh dirties one or two shards and the rest serve their
#: cached partials — the access pattern time-window sharding exists for.
WINDOW_NS = max(1_000_000, N_EVENTS * 1000 // 16)

_SYSCALLS = ("read", "write", "pread64", "pwrite64", "openat", "fsync")
_PROCS = ("db_bench", "rocksdb:low0", "rocksdb:low1", "rocksdb:high",
          "wal_writer")

#: The refresh dashboard: a flat timeline plus the summary panels.
#: Every agg here merges from per-shard partials in O(buckets) — the
#: cold shards answer from cache and the merge cost stays flat as the
#: trace grows.  Percentiles (whose partials carry raw value lists, an
#: O(N) merge) are exercised once in the differential gate instead.
DASHBOARD_AGGS = {
    "timeline": {"date_histogram": {"field": "time",
                                    "interval": WINDOW_NS // 4}},
    "per_syscall": {"terms": {"field": "syscall", "size": 10}},
    "per_pid": {"terms": {"field": "pid", "size": 10}},
    "latency": {"stats": {"field": "latency_ns"}},
}

GATE_AGGS = dict(DASHBOARD_AGGS,
                 p={"percentiles": {"field": "latency_ns",
                                    "percents": [50, 95, 99]}})


def _make_events(n: int, seed: int = 2208) -> list[dict]:
    rng = random.Random(seed)
    events = []
    clock = 0
    for i in range(n):
        clock += rng.randrange(500, 1500)
        doc = {
            "syscall": _SYSCALLS[i % len(_SYSCALLS)],
            "proc_name": _PROCS[rng.randrange(len(_PROCS))],
            "pid": 4000 + rng.randrange(8),
            "tid": 4000 + rng.randrange(32),
            "time": clock,
            "time_exit": clock + rng.randrange(200, 5000),
            "latency_ns": rng.randrange(200, 2_000_000),
            "ret": rng.randrange(0, 65536),
            "args": {},
            "session": SESSION,
        }
        if doc["syscall"] == "openat":
            doc["args"] = {"path": f"/data/blob-{i % 17:02d}"}
            doc["file_tag"] = f"tag-{i % 17:02d}"
        elif i % 3 == 0:
            # Tagged I/O; tags 17..19 never see an openat, so the
            # correlator must report them unresolved.
            doc["file_tag"] = f"tag-{i % 20:02d}"
        events.append(doc)
    return events


def _refresh(store, now_ns: int) -> None:
    """One dashboard refresh: full aggs, drill-down, recent pane."""
    store.search(INDEX, size=0, aggs=DASHBOARD_AGGS)
    proc = _PROCS[(now_ns // WINDOW_NS) % len(_PROCS)]
    store.search(INDEX, {"term": {"proc_name": proc}}, size=0,
                 aggs={"lat": {"stats": {"field": "latency_ns"}}})
    store.search(INDEX,
                 {"range": {"time": {"gte": max(0, now_ns - WINDOW_NS // 2),
                                     "lte": now_ns}}},
                 sort=[{"time": {"order": "desc"}}], size=50)


def _serve_while_ingesting(events, shard_count):
    """(store, ingest_s, serve_s) for one curve point."""
    store = create_store(shard_count=shard_count, shard_key="time_window",
                         time_window_ns=WINDOW_NS)
    store.ensure_index(INDEX, indexed_fields=INDEXED_FIELDS)
    chunk = max(1, len(events) // REFRESHES)
    ingest_s = serve_s = 0.0
    for lo in range(0, len(events), chunk):
        batch = [dict(doc) for doc in events[lo:lo + chunk]]
        t0 = time.perf_counter()
        store.bulk(INDEX, batch)
        ingest_s += time.perf_counter() - t0
        now_ns = batch[-1]["time"]
        t0 = time.perf_counter()
        _refresh(store, now_ns)
        serve_s += time.perf_counter() - t0
    return store, ingest_s, serve_s


def _scan_digest(store, query=None) -> str:
    digest = hashlib.sha256()
    for doc_id, source in store.scan(INDEX, query):
        digest.update(json.dumps([doc_id, source], sort_keys=False,
                                 default=str).encode())
    return digest.hexdigest()


def _observables(store, events) -> dict:
    """Everything the differential gate compares, as digests/values."""
    last = events[-1]["time"]
    queries = [
        None,
        {"term": {"syscall": "fsync"}},
        {"range": {"time": {"gte": last // 2}}},
        {"bool": {"must": [{"term": {"session": SESSION}}],
                  "must_not": [{"term": {"proc_name": "db_bench"}}]}},
    ]
    dash = store.search(INDEX, size=0, aggs=GATE_AGGS)
    recent = store.search(
        INDEX, {"range": {"time": {"gte": max(0, last - 2 * WINDOW_NS),
                                   "lte": last}}},
        sort=[{"time": {"order": "desc"}}], size=50)
    report = FilePathCorrelator(store).correlate(INDEX, SESSION)
    diagnosis = diagnose_session(store, SESSION, index=INDEX)
    return {
        "docs": _scan_digest(store),
        "counts": [store.count(INDEX, q) for q in queries],
        "aggs": json.dumps(dash, sort_keys=True),
        "recent": json.dumps(recent, sort_keys=True, default=str),
        "correlation": (report.tags_resolved, report.documents_updated,
                        report.documents_tagged,
                        report.documents_unresolved),
        "post_correlation_docs": _scan_digest(store),
        "diagnosis": hashlib.sha256(json.dumps(
            diagnosis.as_dict(), sort_keys=True,
            default=str).encode()).hexdigest(),
    }


def _differential_gate(reference: dict, observed: dict, shards: int):
    for key, expected in reference.items():
        assert observed[key] == expected, (
            f"shard_count={shards} diverges from the single store "
            f"on {key!r}")


def _regression_gate(entry: dict) -> None:
    """Fail on >20% combined-serve regression vs the best same-size run."""
    from _baseline import load_trajectory

    history = [e for e in load_trajectory(ARTIFACT)
               if e.get("benchmark") == "sharded_scatter_gather"
               and e.get("events") == entry["events"]]
    if not history:
        return
    best = max(e["speedup_at_4"] for e in history)
    floor = 0.8 * best
    assert entry["speedup_at_4"] >= floor, (
        f"scatter-gather serving regressed: speedup_at_4 "
        f"{entry['speedup_at_4']:.3f} vs baseline best {best:.3f} "
        f"(floor {floor:.3f})")


def test_sharding_trajectory():
    events = _make_events(N_EVENTS)

    curve = []
    reference = None
    single_serve = None
    for shards in SHARD_CURVE:
        store, ingest_s, serve_s = _serve_while_ingesting(events, shards)
        observed = _observables(store, events)
        if reference is None:          # shard_count=1 anchors the curve
            reference, single_serve = observed, serve_s
        else:
            _differential_gate(reference, observed, shards)
        curve.append({
            "shards": shards,
            "ingest_s": round(ingest_s, 4),
            "serve_s": round(serve_s, 4),
            "speedup": round(single_serve / serve_s, 3),
        })
        del store

    by_shards = {point["shards"]: point for point in curve}
    entry = {
        "benchmark": "sharded_scatter_gather",
        "events": N_EVENTS,
        "refreshes": REFRESHES,
        "shard_key": "time_window",
        "window_ns": WINDOW_NS,
        "curve": curve,
        "speedup_at_4": by_shards[4]["speedup"],
    }
    _regression_gate(entry)

    from _baseline import append_trajectory
    append_trajectory(ARTIFACT, entry)

    # The headline acceptance gate only binds at full scale: smoke runs
    # are dominated by fixed coordinator costs, not per-document work.
    if N_EVENTS >= 1_000_000:
        assert entry["speedup_at_4"] >= 2.0, entry
    else:
        assert entry["speedup_at_4"] > 0, entry
