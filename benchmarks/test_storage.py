"""Segment-storage trajectory benchmark: cold start and footprint.

Persists the same synthetic session both ways — `export_session` (one
JSON-lines file, the interchange and oracle format) and `save_session`
(WAL + immutable columnar segment files, docs/STORAGE.md) — and
measures what the engine was built for:

- **cold start, engine only** (``segments_cold_s``): *open +
  zone-pruned count* — time from nothing-in-memory to answering a
  narrow time-window count from the engine itself.  The segment store
  opens footer-first and zone-prunes to the one segment that overlaps
  the window; JSON-lines has to re-parse the whole session first.  No
  store is loaded, so this is not what ``dio diagnose --session`` or
  ``dio compare`` wait for.
- **cold open, ready to serve a panel** (``load_first_panel_s`` /
  ``load_events_per_s``): what the analyst pays — ``load_session`` of
  the whole segment store into a fresh ``DocumentStore``, then the
  Fig. 4 ``date_histogram`` + ``terms`` request answered from it.
- **save** (``rows_save_events_per_s`` / ``lanes_save_events_per_s``):
  ``save_session`` of the session from a store that holds it as
  documents (``store.bulk``) and from one that holds it as lanes
  (``bulk_columnar`` of ``RecordBatch``es — what a tracer leaves
  behind, and the save a traced execution actually does).  The two
  directories must be byte-identical.
- **footprint**: bytes on disk per stored event.

The headline gates only bind at full scale (1M events): cold start
**≥5x** faster than the JSON-lines re-parse and **≥2x** smaller on
disk.  The regression gate holds both cold-start throughputs
(``segments_cold_events_per_s``, ``load_events_per_s``) and both save
throughputs to within 20% of the best same-size entry in
``BENCH_storage.json``.  A differential
stage loads the session back from both formats and requires identical
documents, query counts, aggregations, and diagnosis — the binary
format never buys a different answer.
"""

import json
import os
import random
import time
from pathlib import Path

from repro.analysis.contention import syscall_counts_by_thread
from repro.backend import (INDEXED_EVENT_FIELDS, DocumentStore,
                           SegmentStorage)
from repro.backend.persistence import (export_session, import_session,
                                       load_session, save_session)
from repro.tracer import RecordBatch

N_EVENTS = int(os.environ.get("DIO_BENCH_EVENTS", "1000000"))
ROUNDS = 1 if N_EVENTS >= 500_000 else 3
#: The segment-side cold starts are milliseconds at smoke sizes, where
#: one scheduler hiccup is a third of the reading: best of more tries
#: (they cost next to nothing beside one JSON-lines re-parse).
SEGMENT_ROUNDS = ROUNDS if N_EVENTS >= 500_000 else 15
INDEX = "dio_trace"
SESSION = "bench-storage"
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_storage.json"

#: Segment sizing: enough files that zone pruning has room to work
#: (64 segments at full scale), but never degenerate at smoke sizes.
FLUSH_EVENTS = max(1024, N_EVENTS // 64)

_SYSCALLS = ("read", "write", "pread64", "pwrite64", "fsync", "lseek",
             "openat", "close")
_PROCS = ("db_bench", "db_bench", "rocksdb:low0", "rocksdb:low1",
          "rocksdb:high0", "wal_writer")


def _make_docs(n: int, seed: int = 2209) -> list[dict]:
    """Event-shaped documents, same fields ``Event.to_doc`` emits."""
    rng = random.Random(seed)
    docs = []
    clock = 0
    for i in range(n):
        clock += rng.randrange(500, 1500)
        duration = rng.randrange(200, 5000)
        syscall = _SYSCALLS[i % len(_SYSCALLS)]
        doc = {
            "syscall": syscall,
            "args": {"fd": 3 + rng.randrange(4)},
            "ret": rng.randrange(0, 65536),
            "pid": 4000 + rng.randrange(4),
            "tid": 4000 + rng.randrange(16),
            "proc_name": _PROCS[rng.randrange(len(_PROCS))],
            "time": clock,
            "time_exit": clock + duration,
            "duration_ns": duration,
            "session": SESSION,
            "file_type": "regular",
            "offset": rng.randrange(0, 1 << 20),
            "file_tag": f"7 {rng.randrange(16)} 1",
        }
        docs.append(doc)
    return docs


#: Records per ring batch, the tracer's default batch size.
BATCH = 2048


def _row_store(docs: list[dict]) -> DocumentStore:
    """The session held as documents."""
    store = DocumentStore()
    store.bulk(INDEX, docs)
    return store


def _lane_store(docs: list[dict]) -> DocumentStore:
    """The same session as a tracer leaves it: decoded ring batches
    parked as lanes, no document built."""
    records = [{"syscall": doc["syscall"], "args": doc["args"],
                "ret": doc["ret"], "pid": doc["pid"], "tid": doc["tid"],
                "comm": doc["proc_name"], "enter_ns": doc["time"],
                "exit_ns": doc["time_exit"], "file_type": doc["file_type"],
                "offset": doc["offset"], "file_tag": doc["file_tag"]}
               for doc in docs]
    store = DocumentStore()
    store.ensure_index(INDEX, indexed_fields=INDEXED_EVENT_FIELDS)
    for start in range(0, len(records), BATCH):
        store.bulk_columnar(INDEX, RecordBatch.decode(
            records[start:start + BATCH], session=SESSION))
    return store


def _save(make_store, docs: list[dict], root: Path):
    """Best ``save_session`` time over ``ROUNDS`` fresh stores (a save
    derives nothing in a lane store's batches, but a document batch
    keeps the ``time`` lane the sort read); the last directory and
    store are kept."""
    best = float("inf")
    for round_ in range(ROUNDS):
        store = make_store(docs)
        path = root / f"round-{round_}"
        start = time.perf_counter()
        saved = save_session(store, SESSION, path, index=INDEX,
                             flush_events=FLUSH_EVENTS)
        best = min(best, time.perf_counter() - start)
        assert saved == len(docs)
    return best, store, path


def _cold_start_segments(root: Path, window: dict):
    start = time.perf_counter()
    engine = SegmentStorage(root, create=False)
    hits = engine.count(window)
    elapsed = time.perf_counter() - start
    engine.close()
    return elapsed, hits


def _cold_start_jsonl(path: Path, window: dict):
    start = time.perf_counter()
    store = DocumentStore()
    import_session(store, path, index=INDEX, rename_to="cold")
    hits = store.count(INDEX, window)
    elapsed = time.perf_counter() - start
    return elapsed, hits


def _load_first_panel(root: Path, window_ns: int):
    """``load_session`` into a fresh store, then the Fig. 4 panel."""
    start = time.perf_counter()
    store = DocumentStore()
    load_session(store, root, index=INDEX)
    panel = syscall_counts_by_thread(store, INDEX, window_ns, SESSION)
    elapsed = time.perf_counter() - start
    return elapsed, panel


def _differential_gate(seg_root: Path, jsonl_path: Path) -> None:
    """Identical stores back from both formats: docs, queries, aggs,
    diagnosis."""
    from repro.analysis.diagnose import diagnose_session

    via_seg, via_jsonl = DocumentStore(), DocumentStore()
    load_session(via_seg, seg_root, index=INDEX, rename_to=SESSION)
    load_session(via_jsonl, jsonl_path, index=INDEX, rename_to=SESSION)
    assert (list(via_seg.scan(INDEX, {"match_all": {}}))
            == list(via_jsonl.scan(INDEX, {"match_all": {}})))
    queries = [
        {"term": {"syscall": "write"}},
        {"range": {"time": {"gte": 0, "lt": 10 ** 12}}},
        {"bool": {"must": [{"term": {"proc_name": "db_bench"}}],
                  "must_not": [{"term": {"syscall": "close"}}]}},
    ]
    for query in queries:
        assert (via_seg.count(INDEX, query)
                == via_jsonl.count(INDEX, query)), query
    aggs = {
        "per_syscall": {"terms": {"field": "syscall", "size": 20}},
        "latency": {"stats": {"field": "duration_ns"}},
        "p": {"percentiles": {"field": "duration_ns",
                              "percents": [50, 95, 99]}},
    }
    lhs = via_seg.search(INDEX, size=0, aggs=aggs)["aggregations"]
    rhs = via_jsonl.search(INDEX, size=0, aggs=aggs)["aggregations"]
    assert json.dumps(lhs, sort_keys=True) == json.dumps(rhs,
                                                         sort_keys=True)
    lhs_diag = diagnose_session(via_seg, SESSION, index=INDEX)
    rhs_diag = diagnose_session(via_jsonl, SESSION, index=INDEX)
    assert (json.dumps(lhs_diag.as_dict(), sort_keys=True, default=str)
            == json.dumps(rhs_diag.as_dict(), sort_keys=True,
                          default=str))


def _regression_gate(entry: dict) -> None:
    """Fail on >20% regression vs the best same-size run.

    Applied to both cold-start and both save throughputs; entries
    written before a metric existed simply do not vote on it.
    """
    from _baseline import load_trajectory

    history = [e for e in load_trajectory(ARTIFACT)
               if e.get("benchmark") == "segment_storage"
               and e.get("events") == entry["events"]]
    for metric in ("segments_cold_events_per_s", "load_events_per_s",
                   "rows_save_events_per_s", "lanes_save_events_per_s"):
        seen = [e[metric] for e in history if metric in e]
        if not seen:
            continue
        floor = 0.8 * max(seen)
        assert entry[metric] >= floor, (
            f"{metric} regressed: {entry[metric]:.0f} events/s vs "
            f"baseline best {max(seen):.0f} (floor {floor:.0f})")


def test_storage_trajectory(tmp_path):
    docs = _make_docs(N_EVENTS)
    seg_save_s, store, seg_root = _save(_row_store, docs, tmp_path / "rows")
    lanes_save_s, lane_store, lane_root = _save(_lane_store, docs,
                                                tmp_path / "lanes")
    # Same session, same files — and the lane save built no document.
    assert ({p.name: p.read_bytes() for p in lane_root.iterdir()}
            == {p.name: p.read_bytes() for p in seg_root.iterdir()})
    assert lane_store._indices[INDEX].hydrated_docs_total == 0
    del lane_store              # the cold starts below want a quiet heap

    jsonl_path = tmp_path / "session.jsonl"
    start = time.perf_counter()
    export_session(store, SESSION, jsonl_path, index=INDEX)
    jsonl_save_s = time.perf_counter() - start

    # A window the width of roughly one segment, in the middle.
    times = [docs[0]["time"], docs[-1]["time"]]
    span = times[1] - times[0]
    mid = times[0] + span // 2
    window = {"range": {"time": {"gte": mid,
                                 "lt": mid + max(1, span // 64)}}}

    seg_cold = jsonl_cold = float("inf")
    seg_hits = jsonl_hits = None
    for _ in range(SEGMENT_ROUNDS):
        elapsed, hits = _cold_start_segments(seg_root, window)
        if elapsed < seg_cold:
            seg_cold, seg_hits = elapsed, hits
    for _ in range(ROUNDS):
        elapsed, hits = _cold_start_jsonl(jsonl_path, window)
        if elapsed < jsonl_cold:
            jsonl_cold, jsonl_hits = elapsed, hits
    assert seg_hits == jsonl_hits and seg_hits > 0

    panel_window_ns = max(1, span // 100)
    load_panel_s = float("inf")
    for _ in range(SEGMENT_ROUNDS):
        elapsed, panel = _load_first_panel(seg_root, panel_window_ns)
        load_panel_s = min(load_panel_s, elapsed)
    assert sum(sum(threads.values())
               for threads in panel.values()) == N_EVENTS

    seg_bytes = SegmentStorage(seg_root, create=False).disk_bytes()
    jsonl_bytes = jsonl_path.stat().st_size
    speedup = jsonl_cold / seg_cold
    footprint_ratio = jsonl_bytes / seg_bytes

    _differential_gate(seg_root, jsonl_path)

    entry = {
        "benchmark": "segment_storage",
        "events": N_EVENTS,
        "rounds": ROUNDS,
        "segment_rounds": SEGMENT_ROUNDS,
        "flush_events": FLUSH_EVENTS,
        "segments_save_s": round(seg_save_s, 4),
        "rows_save_events_per_s": round(N_EVENTS / seg_save_s, 1),
        "lanes_save_s": round(lanes_save_s, 4),
        "lanes_save_events_per_s": round(N_EVENTS / lanes_save_s, 1),
        "jsonl_save_s": round(jsonl_save_s, 4),
        "segments_cold_s": round(seg_cold, 4),
        "jsonl_cold_s": round(jsonl_cold, 4),
        "segments_cold_events_per_s": round(N_EVENTS / seg_cold, 1),
        "jsonl_cold_events_per_s": round(N_EVENTS / jsonl_cold, 1),
        "cold_speedup": round(speedup, 3),
        "load_first_panel_s": round(load_panel_s, 4),
        "load_events_per_s": round(N_EVENTS / load_panel_s, 1),
        "segments_bytes": seg_bytes,
        "jsonl_bytes": jsonl_bytes,
        "segments_bytes_per_event": round(seg_bytes / N_EVENTS, 2),
        "jsonl_bytes_per_event": round(jsonl_bytes / N_EVENTS, 2),
        "footprint_ratio": round(footprint_ratio, 3),
    }
    _regression_gate(entry)

    from _baseline import append_trajectory
    append_trajectory(ARTIFACT, entry)
    print(f"\nsave, session held as rows:  {seg_save_s:.4f} s "
          f"({entry['rows_save_events_per_s']:,.0f} events/s)")
    print(f"save, session held as lanes: {lanes_save_s:.4f} s "
          f"({entry['lanes_save_events_per_s']:,.0f} events/s)")
    print(f"open + zone-pruned count: {seg_cold:.4f} s "
          f"({entry['segments_cold_events_per_s']:,.0f} events/s)")
    print(f"ready to serve a panel:   {load_panel_s:.4f} s "
          f"({entry['load_events_per_s']:,.0f} events/s)")

    # Headline acceptance gates bind at full scale; smoke runs are
    # dominated by fixed costs, so they only sanity-check direction.
    if N_EVENTS >= 1_000_000:
        assert speedup >= 5.0, entry
        assert footprint_ratio >= 2.0, entry
    else:
        assert speedup >= 1.0, entry
        assert footprint_ratio >= 1.0, entry
