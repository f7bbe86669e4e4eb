"""``ingest_replay``: the write side with the simulator bypassed.

Pre-generated ring records sit in the 4 per-CPU rings of a
``DIOTracer`` (setup).  Timed: the consumer drains them —
``RecordBatch.decode`` → ``bulk_columnar`` in batches of 2048 — and
correlates file paths on shutdown; ``save_session`` writes segments;
``SegmentStorage(create=False)`` opens them cold and counts a
one-segment-wide time window.  No application runs and no dashboard is
drawn, so this isolates the tracer's user-space half, the backend's
ingest path and the storage engine.
"""

from __future__ import annotations

from repro.backend import SegmentStorage, create_store
from repro.kernel import Kernel
from repro.sim import Environment
from repro.tracer import DIOTracer, TracerConfig
from repro.tracer.batch import RecordBatch
from repro.tracer.events import estimate_record_size

from common import (BATCH, FLUSH_EVENTS, INDEX, SESSION, Outcome,
                    save_segments, segment_footprint)
from inputs import expected_docs, make_records
from meter import Meter, timed
from reference import event_key

NAME = "ingest_replay"
WHY = ("write side of the backend and the segment engine with the "
       "simulator bypassed: ring drain, decode, bulk_columnar, save, "
       "cold open")
SIZES = {
    "full": {"records": 100_000},
    "smoke": {"records": 5_000},
}
NCPUS = 4


def prepare(seed: int, size: dict, directory) -> dict:
    records = make_records(seed, size["records"])
    times = [record["enter_ns"] for record in records]
    # One segment's worth of virtual time, from the middle of the trace.
    segments = max(1, len(records) // FLUSH_EVENTS)
    width = max(1, (times[-1] - times[0]) // segments)
    start = times[len(times) // 2]
    return {"records": records,
            "window": {"range": {"time": {"gte": start,
                                          "lt": start + width}}},
            "window_hits": sum(start <= t < start + width for t in times)}


def stage(inputs: dict, wrap) -> dict:
    """A tracer whose rings already hold every record (untimed)."""
    env = Environment()
    kernel = Kernel(env, ncpus=NCPUS)
    store = wrap(create_store())
    tracer = DIOTracer(env, kernel, store, TracerConfig(
        session_name=SESSION, batch_size=BATCH))
    tracer.attach()
    produce = tracer.ring.produce
    for i, record in enumerate(inputs["records"]):
        produce(i % NCPUS, record,
                estimate_record_size(record["syscall"], record["args"]))
    return {"env": env, "store": store, "tracer": tracer, **inputs}


def run(staged: dict, meter: Meter, directory, wrap) -> dict:
    env, store, tracer = staged["env"], staged["store"], staged["tracer"]
    with meter.phase("sim.run"):
        env.run(until=env.process(tracer.shutdown()))
    path = directory / "session"
    with meter.phase("segments.save"):
        saved = save_segments(store, SESSION, path)
    with meter.phase("segments.open"):
        engine = SegmentStorage(path, create=False)
    with meter.phase("segments.window_count"):
        hits = engine.count(staged["window"])
    engine.close()
    return {"store": store, "tracer": tracer, "saved": saved,
            "path": path, "hits": hits, "query_store": store,
            "ingested_docs": saved}


def measure(staged: dict, result: dict, meter: Meter,
            wall_s: float) -> dict:
    events = result["saved"]
    files, disk_bytes = segment_footprint(result["path"])
    return {
        "events": events,
        "wall_s": wall_s,
        "events_per_s": events / wall_s,
        "cold_open_s": (meter.seconds("segments.open")
                        + meter.seconds("segments.window_count")),
        "disk_bytes_per_event": disk_bytes / events,
        "segments.files": files,
        "segments.disk_bytes": disk_bytes,
    }


def check(staged: dict, result: dict, outcome: Outcome) -> None:
    stats = result["tracer"].stats
    records = staged["records"]
    expected = sorted(expected_docs(records, SESSION), key=event_key)
    stored = sorted((doc for _, doc in result["store"].scan(INDEX)),
                    key=event_key)
    # Conservation first, then every stored event against the input it
    # came from (decode, args sanitisation, correlation included).
    lost = len(records) - stats.dropped - len(stored)
    wrong = sum(1 for got, want in zip(stored, expected) if got != want)
    outcome.check(lost == 0 and wrong == 0
                  and stats.produced == stats.shipped == len(stored),
                  f"events: {lost} unaccounted, {wrong} differ from input",
                  weight=len(records), missed=abs(lost) + wrong)
    outcome.check(result["hits"] == staged["window_hits"],
                  f"cold windowed count {result['hits']} != "
                  f"{staged['window_hits']}")
    engine = SegmentStorage(result["path"], create=False, read_only=True)
    on_disk = sorted(engine.scan(None), key=event_key)
    engine.close()
    outcome.check(on_disk == expected and result["saved"] == len(expected),
                  "saved session differs from the input")


def layers(inputs: dict, stage_fresh, result: dict, meter: Meter,
           view) -> dict:
    """Decode timed directly over the same 2048-record batches."""
    records = inputs["records"]
    decode_s = timed(
        meter.host, lambda batch: RecordBatch.decode(batch, session=SESSION),
        [records[start:start + BATCH]
         for start in range(0, len(records), BATCH)])
    stats = result["tracer"].stats.as_dict()
    # No application ran: everything env.run did outside the store is
    # the tracer's consumer (ring drain, decode, staging, correlator).
    tracer_s = view.self_s(span="sim.run")
    return {
        "ebpf_tracer.busy_s": tracer_s,
        "ebpf.ring_produced": stats["produced"],
        "ebpf.ring_dropped": stats["dropped"],
        "tracer.filtered_out": stats["filtered_out"],
        "tracer.shipped": stats["shipped"],
        "tracer.batches": stats["batches"],
        "tracer.decode_s": decode_s,
        "tracer.drain_s": max(tracer_s - decode_s, 0.0),
    }
