"""``dashboard_serve``: the read side on a static store.

Setup builds a session from generated records and saves it as
segments.  Timed: ``load_session`` into a fresh store, then a seeded
sequence of requests issued the way ``DIODashboards`` and
``analysis.contention`` issue them — Fig. 4 ``date_histogram`` +
nested ``terms``; a per-process drill-down with ``cardinality`` and
``percentiles``; sliding time-window searches sorted newest-first,
``size=50``; term counts; Fig. 2 ``file_access_rows`` — 60 % repeats of
an earlier request (the aggregation-cache hit path) and 40 % first-seen
(the kernel path); then one ``diagnose_session``.  No simulator, no
tracer, no writes: a query-engine or diagnosis change shows here and an
ingest change must not.
"""

from __future__ import annotations

import random

from repro.analysis.dfg import merged_dfg
from repro.analysis.diagnose import diagnose_session
from repro.backend import FilePathCorrelator, create_store, load_session
from repro.tracer.batch import RecordBatch
from repro.visualizer import DIODashboards

from common import (BATCH, INDEX, INDEXED_FIELDS, SESSION, WINDOW_NS,
                    Outcome, batch_contention, request_calls,
                    request_metrics, same_json, save_segments,
                    total_and_aggs, total_and_hits)
from inputs import (CLIENT_COMM, CLIENT_TIDS, COMPACTION_TIDS, FLUSH_COMM,
                    FLUSH_TID, expected_docs, make_records, tag_paths)
from meter import Meter, timed
from reference import Trace, event_key

NAME = "dashboard_serve"
WHY = ("read side on a static store: load_session, 60/40 repeated/"
       "first-seen dashboard requests, diagnose_session; no simulator, "
       "no writes")
SIZES = {
    "full": {"records": 32_000, "requests": 300},
    "smoke": {"records": 3_000, "requests": 40},
}
#: Three plan positions in five repeat an earlier request: 60 %.
REPEAT_SLOTS = (1, 2, 4)
KINDS = ("fig4", "drilldown", "window", "term_count", "file_access")
BACKGROUND = (FLUSH_COMM,) + tuple(f"rocksdb:low{i}" for i in range(7))


def request_plan(rng: random.Random, count: int, span: tuple[int, int],
                 paths: list[str]) -> list[tuple]:
    """``count`` requests; the first is always the Fig. 4 landing panel.

    Which kind comes when, which process a drill-down or a Fig. 2 table
    is about, and which earlier request a repeat repeats are all fixed
    by position; the seed draws only the remaining parameters.  Two
    seeds then differ in *what* is asked, not in how much work it is.
    """
    first_ns, last_ns = span
    procs = (CLIENT_COMM,) + BACKGROUND
    counted = ([("syscall", name) for name in
                ("open", "close", "read", "write", "pread64")]
               + [("proc_name", name) for name in procs]
               + [("tid", tid) for tid in
                  CLIENT_TIDS + (FLUSH_TID,) + COMPACTION_TIDS])
    syscall_sets = (None, ("open", "close"), ("write",))
    fresh = {
        "fig4": lambda n: (WINDOW_NS // 10 * rng.randrange(1, 60),),
        "drilldown": lambda n: (procs[n % len(procs)],
                                WINDOW_NS // 2 * rng.randrange(1, 8)),
        "window": lambda n: (rng.randrange(first_ns, last_ns),
                             WINDOW_NS * (1 + n % 5)),
        "term_count": lambda n: counted[n % len(counted)],
        "file_access": lambda n: ((BACKGROUND[n % len(BACKGROUND)],),
                                  syscall_sets[n % len(syscall_sets)],
                                  rng.choice([None, None] + paths)),
    }
    repeats = random.Random(count)      # the same for every seed
    plan = [("fig4", WINDOW_NS)]
    seen = set(plan)
    drawn = 0
    while len(plan) < count:
        position = len(plan)
        if position % 5 in REPEAT_SLOTS:
            plan.append(plan[repeats.randrange(position)])
            continue
        kind = KINDS[drawn % len(KINDS)]
        request = (kind,) + fresh[kind](drawn // len(KINDS))
        drawn += 1
        if request not in seen:
            seen.add(request)
            plan.append(request)
    return plan


def prepare(seed: int, size: dict, directory) -> dict:
    """Build the session the analyst will open, and what they will ask."""
    records = make_records(seed, size["records"])
    store = create_store()
    store.ensure_index(INDEX, indexed_fields=INDEXED_FIELDS)
    for start in range(0, len(records), BATCH):
        store.bulk_columnar(INDEX, RecordBatch.decode(
            records[start:start + BATCH], session=SESSION))
    FilePathCorrelator(store).correlate(INDEX, session=SESSION)
    path = directory / "session"
    save_segments(store, SESSION, path)
    rng = random.Random(seed + 1)
    plan = request_plan(
        rng, size["requests"],
        (records[0]["enter_ns"], records[-1]["enter_ns"]),
        sorted(tag_paths(records).values())[:6])
    return {"records": records, "path": path, "plan": plan}


def stage(inputs: dict, wrap) -> dict:
    return inputs


def issue(request: tuple, store, dash: DIODashboards):
    """One request, exactly as the dashboards send it."""
    kind = request[0]
    if kind == "fig4":
        return dash.syscalls_over_time(request[1])
    if kind == "drilldown":
        _, proc, window_ns = request
        response = store.search(
            INDEX, size=0,
            query={"bool": {"must": [{"term": {"proc_name": proc}},
                                     {"term": {"session": SESSION}}]}},
            aggs={
                "over_time": {
                    "date_histogram": {"field": "time",
                                       "fixed_interval": window_ns},
                    "aggs": {"tids": {"cardinality": {"field": "tid"}}}},
                "latency": {"percentiles": {"field": "duration_ns",
                                            "percents": [50, 95, 99]}},
            })
        return total_and_aggs(response)
    if kind == "window":
        _, start_ns, width_ns = request
        response = store.search(
            INDEX, size=50, sort=[{"time": {"order": "desc"}}],
            query={"range": {"time": {"gte": start_ns,
                                      "lt": start_ns + width_ns}}})
        return total_and_hits(response)
    if kind == "term_count":
        _, field, value = request
        return store.count(INDEX, {"term": {field: value}})
    _, procs, syscalls, path = request
    return dash.file_access_rows(procs=procs, syscalls=syscalls, path=path)


def expected(request: tuple, trace: Trace):
    """The same request answered from the generated events."""
    kind = request[0]
    if kind == "fig4":
        return trace.fig4(request[1])
    if kind == "drilldown":
        return trace.drilldown(request[1], request[2])
    if kind == "window":
        return trace.window(request[1], request[1] + request[2], 50)
    if kind == "term_count":
        return trace.term_count(request[1], request[2])
    return trace.file_access(request[1], request[2], request[3])


#: Requests that go through ``DIODashboards`` are the visualizer's.
PHASE_OF = {"fig4": "visualizer.fig4", "drilldown": "request.drilldown",
            "window": "request.window", "term_count": "request.term_count",
            "file_access": "visualizer.file_access"}


def run(staged: dict, meter: Meter, directory, wrap) -> dict:
    store = wrap(create_store())
    with meter.phase("segments.load"):
        load_session(store, staged["path"])
    dash = DIODashboards(store, INDEX, session=SESSION)
    answers = []
    for request in staged["plan"]:
        with meter.phase(PHASE_OF[request[0]]):
            answers.append(issue(request, store, dash))
    with meter.phase("analysis.diagnose"):
        report = diagnose_session(store, SESSION)
    return {"store": store, "answers": answers, "report": report,
            "query_store": store, "ingested_docs": len(staged["records"])}


def measure(staged: dict, result: dict, meter: Meter,
            wall_s: float) -> dict:
    events = len(staged["records"])
    return {
        "events": events,
        "wall_s": wall_s,
        "events_per_s": events / wall_s,
        "cold_open_s": (meter.seconds("segments.load")
                        + request_calls(meter)[0].seconds),
        "diagnose_s": meter.seconds("analysis.diagnose"),
        **request_metrics(meter),
    }


def check(staged: dict, result: dict, outcome: Outcome) -> None:
    docs = expected_docs(staged["records"], SESSION)
    trace = Trace(docs)
    memo: dict[tuple, object] = {}
    for request, answer in zip(staged["plan"], result["answers"]):
        if request not in memo:
            memo[request] = expected(request, trace)
        outcome.check(same_json(answer, memo[request]),
                      f"request {request!r}")
    loaded = sorted((doc for _, doc in result["store"].scan(INDEX)),
                    key=event_key)
    outcome.check(loaded == trace.docs,
                  "loaded session differs from the input",
                  weight=len(docs))
    report = result["report"]
    outcome.check(report.events == len(docs),
                  "diagnosis analysed a different number of events")
    outcome.check(batch_contention(report)
                  == trace.expects_contention_finding(),
                  "diagnosis and Fig. 4 disagree about contention")


def layers(inputs: dict, stage_fresh, result: dict, meter: Meter,
           view) -> dict:
    return {
        "analysis.dfg_s": timed(
            meter.host, lambda store: merged_dfg(store, INDEX, SESSION),
            [result["store"]]),
        "analysis.findings": len(result["report"].findings),
    }
