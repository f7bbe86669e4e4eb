"""``live_tail_sharded``: reads beside writes, through the router.

``create_store(shard_count=4, shard_key="time_window")``; batches of
2048 records interleaved in one thread: ``bulk_columnar`` one batch,
then one dashboard refresh of three panels — Fig. 4 nested aggregations
over the whole index, per-process ``percentiles`` under a ``term``
filter, and a recent-events ``range`` search sorted newest-first.

Same backend as ``ingest_replay`` and ``dashboard_serve``, used
differently: every batch invalidates the epoch-keyed aggregation caches
and leaves index work for the next query to replay, so cost that
vectorized ingest deferred from ingest to first query — a win on
``ingest_replay`` — is paid here.  It is also the only workload where
sharding can earn or lose its keep on the queries dashboards send.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter

from repro.backend import create_store
from repro.tracer.batch import RecordBatch
from repro.visualizer import DIODashboards

from common import (BATCH, INDEX, INDEXED_FIELDS, SESSION, WINDOW_NS,
                    Outcome, request_calls, request_metrics, same_json,
                    total_and_aggs, total_and_hits)
from inputs import CLIENT_COMM, make_records, record_to_doc
from meter import Meter, Untimed
from reference import event_key, percentile

NAME = "live_tail_sharded"
WHY = ("reads beside writes through the 4-shard router: each batch "
       "invalidates caches and defers index work to the next refresh")
SIZES = {
    "full": {"batches": 30},
    "smoke": {"batches": 4},
}
SHARDS = 4
RECENT_NS = WINDOW_NS // 2
DRILL_PROCS = (CLIENT_COMM, "rocksdb:low0", "rocksdb:high0")
#: Which layer the store requests' time belongs to: from outside, the
#: router and its shards are one.
STORE_LAYER = "router"


def prepare(seed: int, size: dict, directory) -> dict:
    records = make_records(seed, size["batches"] * BATCH)
    return {"records": records,
            "batches": [records[start:start + BATCH]
                        for start in range(0, len(records), BATCH)]}


def stage(inputs: dict, wrap) -> dict:
    return inputs


def refresh(store, dash: DIODashboards, tick: int, now_ns: int,
            meter) -> list:
    """One dashboard refresh: three panels."""
    proc = DRILL_PROCS[tick % len(DRILL_PROCS)]
    with meter.phase("visualizer.fig4"):
        fig4 = dash.syscalls_over_time(WINDOW_NS)
    with meter.phase("request.drilldown"):
        response = store.search(
            INDEX, size=0, query={"term": {"proc_name": proc}},
            aggs={"latency": {"percentiles": {"field": "duration_ns",
                                              "percents": [50, 95, 99]}}})
        drill = total_and_aggs(response)
    with meter.phase("request.window"):
        response = store.search(
            INDEX, size=50, sort=[{"time": {"order": "desc"}}],
            query={"range": {"time": {"gt": now_ns - RECENT_NS}}})
        recent = total_and_hits(response)
    return [fig4, drill, recent]


def tail(batches: list, store, meter: Meter) -> list:
    """Ingest one batch, refresh the dashboard, repeat."""
    store.ensure_index(INDEX, indexed_fields=INDEXED_FIELDS)
    dash = DIODashboards(store, INDEX, session=SESSION)
    answers = []
    for tick, records in enumerate(batches):
        with meter.phase("tracer.decode"):
            batch = RecordBatch.decode(records, session=SESSION)
        with meter.phase("request.ingest"):
            store.bulk_columnar(INDEX, batch)
        answers.append(refresh(store, dash, tick, records[-1]["enter_ns"],
                               meter))
    return answers


def run(staged: dict, meter: Meter, directory, wrap) -> dict:
    store = wrap(create_store(shard_count=SHARDS, shard_key="time_window"))
    answers = tail(staged["batches"], store, meter)
    return {"store": store, "answers": answers, "query_store": store,
            "ingested_docs": len(staged["records"])}


def measure(staged: dict, result: dict, meter: Meter,
            wall_s: float) -> dict:
    events = len(staged["records"])
    return {
        "events": events,
        "wall_s": wall_s,
        "events_per_s": events / wall_s,
        **request_metrics(meter),
    }


def check(staged: dict, result: dict, outcome: Outcome) -> None:
    # The reference grows with the store: records arrive in time order,
    # so the prefix seen so far is already sorted.
    docs: list[dict] = []
    times: list[int] = []
    cells: Counter = Counter()
    durations: dict[str, list[int]] = {}
    for tick, (records, answer) in enumerate(zip(staged["batches"],
                                                 result["answers"])):
        for record in records:
            doc = record_to_doc(record, SESSION)
            docs.append(doc)
            times.append(doc["time"])
            cells[doc["time"] // WINDOW_NS * WINDOW_NS,
                  doc["proc_name"]] += 1
            durations.setdefault(doc["proc_name"], []).append(
                doc["duration_ns"])
        fig4, drill, recent = answer
        expected: dict[int, dict[str, int]] = {}
        for (window, proc), count in cells.items():
            expected.setdefault(window, {})[proc] = count
        outcome.check(fig4 == expected, f"refresh {tick}: Fig. 4")
        proc = DRILL_PROCS[tick % len(DRILL_PROCS)]
        latencies = sorted(durations.get(proc, ()))
        outcome.check(same_json(drill, (len(latencies), {"latency": {
            "values": {f"{p:g}": percentile(latencies, p)
                       for p in (50, 95, 99)}}})),
                      f"refresh {tick}: {proc} latency percentiles")
        low = bisect_right(times, times[-1] - RECENT_NS)
        outcome.check(recent == (len(times) - low,
                                 docs[max(low, len(docs) - 50):][::-1]),
                      f"refresh {tick}: recent events")

    store = result["store"]
    stored = sorted((doc for _, doc in store.scan(INDEX)), key=event_key)
    outcome.check(stored == docs, "stored events differ from input",
                  weight=len(docs),
                  missed=abs(len(docs) - len(stored)) or None)

    # Sharding must be invisible: one store fed the same batches gives
    # byte-identical final answers and the same documents.
    single = create_store()
    single.ensure_index(INDEX, indexed_fields=INDEXED_FIELDS)
    for records in staged["batches"]:
        single.bulk_columnar(INDEX, RecordBatch.decode(records,
                                                       session=SESSION))
    final = refresh(single, DIODashboards(single, INDEX, session=SESSION),
                    len(staged["batches"]) - 1, times[-1], Untimed())
    outcome.check(same_json(final, result["answers"][-1]),
                  "sharded final refresh differs from a single store")
    outcome.check([doc for _, doc in single.scan(INDEX)]
                  == [doc for _, doc in store.scan(INDEX)],
                  "sharded scan differs from a single store")


def layers(inputs: dict, stage_fresh, result: dict, meter: Meter,
           view) -> dict:
    """The same tail against one unsharded store, for the ratio."""
    single_meter = Meter(meter.host)
    tail(inputs["batches"], create_store(), single_meter)
    single_s = sum(call.seconds for call in request_calls(single_meter))
    sharded_s = sum(call.seconds for call in request_calls(meter))
    store = result["store"]
    per_shard = [shard.count(INDEX) for shard in store.shards]
    stats = store.agg_stats()
    return {
        "tracer.decode_s": view.self_s(span="tracer.decode"),
        "router.ingest_s": view.total_s(span="store.bulk_columnar"),
        "router.query_s": view.total_s(span="store.search"),
        "router.shard_skew": max(per_shard) / (sum(per_shard)
                                               / len(per_shard)),
        "router.agg_cache_hit_ratio": stats["cache_hit_rate"],
        "router.pruning_ratio": store.pruning_ratio(),
        "router.vs_single_query_ratio": sharded_s / single_s,
    }
