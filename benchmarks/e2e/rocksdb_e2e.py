"""``rocksdb_e2e``: the paper's §III-C case study on the full path.

``db_bench`` (8 clients, YCSB-A, Zipfian keys, a *fixed operation
budget* so the work is identical on every commit) over the simulated
kernel with ``RocksDBScale()`` defaults, traced by ``DIOTracer``
(data-syscall scope, PID filter, default config) into a store;
``tracer.shutdown()`` with file-path correlation; ``save_session``;
``load_session`` into a fresh store; the Fig. 3/Fig. 4 panels; and
``diagnose_session``.  The simulator, kernel, applications, eBPF layer
and tracer do most of the work here and none in the other three
workloads, so a speed-up in any of them must show here and nowhere
else.
"""

from __future__ import annotations

from repro.analysis.contention import detect_contention
from repro.analysis.dfg import merged_dfg
from repro.analysis.diagnose import diagnose_session
from repro.apps.rocksdb import DBBench, RocksDB
from repro.backend import create_store, load_session
from repro.experiments.rocksdb_case import (DATA_SYSCALL_SCOPE, RocksDBScale,
                                            build_kernel)
from repro.tracer import DIOTracer, TracerConfig
from repro.tracer.batch import RecordBatch
from repro.visualizer import DIODashboards

from common import (INDEX, SESSION, WINDOW_NS, Outcome, batch_contention,
                    save_segments, segment_footprint)
from meter import Meter, timed
from reference import Trace, event_key, parse_table

NAME = "rocksdb_e2e"
WHY = ("the paper's RocksDB case on the whole path: only workload where "
       "simulator, kernel, apps, eBPF and tracer do the work")
#: 12,000 operations per thread reach ~0.7 virtual seconds: far enough
#: for compaction bursts to overlap the clients, so Fig. 4 shows (and
#: the diagnosis must then report) the paper's contention.
SIZES = {
    "full": {"ops_per_thread": 12_000},
    "smoke": {"ops_per_thread": 200},
}
#: The flush thread's files: a Fig. 2 table small enough to read.
FIG2_PROCS = ("rocksdb:high0",)


def prepare(seed: int, size: dict, directory) -> dict:
    """Nothing reusable: every pass needs its own simulated machine."""
    return {"seed": seed, "ops": size["ops_per_thread"]}


def stage(inputs: dict, wrap) -> dict:
    """Boot the testbed and load the database (untimed)."""
    scale = RocksDBScale(seed=inputs["seed"])
    kernel = build_kernel(scale)
    env = kernel.env
    process = kernel.spawn_process("db_bench")
    db = RocksDB(kernel, process, scale.db_options())
    bench = DBBench(kernel, db, client_threads=scale.client_threads,
                    key_count=scale.key_count, value_size=scale.value_size,
                    read_fraction=scale.read_fraction, seed=scale.seed)

    def load():
        yield from db.open(bench.client_tasks[0])
        yield from bench.load()

    env.run(until=env.process(load()))
    return {"kernel": kernel, "process": process, "db": db, "bench": bench,
            "ops": inputs["ops"]}


def run_bench(staged: dict, meter: Meter, tracer=None) -> dict:
    """The benchmark proper on the simulated machine, traced or not."""
    env = staged["kernel"].env
    bench, db = staged["bench"], staged["db"]
    marks = {"steps_before": env.events_processed, "start_ns": env.now}

    def main():
        if tracer is not None:
            tracer.attach()
        result = yield from bench.run_ops(staged["ops"]).wait()
        db.close()
        marks["finish_ns"] = env.now
        if tracer is not None:
            yield from tracer.shutdown()
        return result

    with meter.phase("sim.run"):
        marks["bench"] = env.run(until=env.process(main()))
    marks["steps"] = env.events_processed - marks["steps_before"]
    return marks


def run(staged: dict, meter: Meter, directory, wrap) -> dict:
    kernel = staged["kernel"]
    store = wrap(create_store())
    tracer = DIOTracer(kernel.env, kernel, store, TracerConfig(
        syscalls=DATA_SYSCALL_SCOPE,
        pids=frozenset({staged["process"].pid}),
        session_name=SESSION))
    marks = run_bench(staged, meter, tracer)

    path = directory / "session"
    with meter.phase("segments.save"):
        saved = save_segments(store, SESSION, path)
    fresh = wrap(create_store())
    with meter.phase("segments.load"):
        load_session(fresh, path)

    dash = DIODashboards(fresh, INDEX, session=SESSION)
    panels = {}
    with meter.phase("visualizer.fig4"):
        panels["fig4"] = dash.syscalls_over_time(WINDOW_NS)
    with meter.phase("analysis.contention"):
        panels["contention"] = detect_contention(fresh, INDEX, WINDOW_NS,
                                                 session=SESSION)
    with meter.phase("visualizer.process_io"):
        panels["process_io"] = dash.process_io_table()
    with meter.phase("visualizer.syscall_summary"):
        panels["syscalls"] = dash.syscall_summary()
    with meter.phase("visualizer.file_access"):
        panels["file_access"] = dash.file_access_rows(procs=FIG2_PROCS)
    with meter.phase("analysis.diagnose"):
        report = diagnose_session(fresh, SESSION,
                                  latency_records=marks["bench"].records())
    return {"store": store, "fresh": fresh, "tracer": tracer,
            "marks": marks, "saved": saved, "path": path,
            "panels": panels, "report": report, "query_store": fresh,
            "ingested_docs": 2 * saved}      # traced, then loaded


def measure(staged: dict, result: dict, meter: Meter,
            wall_s: float) -> dict:
    events = result["saved"]
    files, disk_bytes = segment_footprint(result["path"])
    return {
        "events": events,
        "wall_s": wall_s,
        "events_per_s": events / wall_s,
        "cold_open_s": meter.seconds("segments.load"),
        "diagnose_s": meter.seconds("analysis.diagnose"),
        "disk_bytes_per_event": disk_bytes / events,
        "segments.files": files,
        "segments.disk_bytes": disk_bytes,
    }


def check(staged: dict, result: dict, outcome: Outcome) -> None:
    stats = result["tracer"].stats
    store, fresh = result["store"], result["fresh"]
    stored = store.count(INDEX)
    offered = stats.produced + stats.dropped
    # Conservation: every record the ring accepted is in the store;
    # every one it refused is counted as dropped.
    outcome.check(stats.produced == stats.shipped == stored,
                  f"events: produced {stats.produced}, shipped "
                  f"{stats.shipped}, stored {stored}",
                  weight=offered, missed=abs(stats.produced - stored))

    original = sorted((doc for _, doc in store.scan(INDEX)), key=event_key)
    reloaded = sorted((doc for _, doc in fresh.scan(INDEX)), key=event_key)
    outcome.check(original == reloaded and len(reloaded) == result["saved"],
                  "reloaded session differs from the traced one")

    trace = Trace(original)
    panels = result["panels"]
    outcome.check(panels["fig4"] == trace.fig4(WINDOW_NS), "Fig. 4 panel")
    expected = trace.contention(WINDOW_NS)
    got = panels["contention"]
    outcome.check(
        all(getattr(got, field) == value
            for field, value in expected.items()), "contention report")
    outcome.check(parse_table(panels["process_io"])
                  == trace.process_io_rows(), "process I/O panel")
    outcome.check(parse_table(panels["syscalls"]) == trace.syscall_rows(),
                  "syscall summary panel")
    outcome.check(panels["file_access"]
                  == trace.file_access(procs=FIG2_PROCS), "Fig. 2 rows")

    report = result["report"]
    outcome.check(batch_contention(report)
                  == trace.expects_contention_finding(),
                  "diagnosis and Fig. 4 disagree about contention")
    outcome.check(report.events == stored,
                  "diagnosis analysed a different number of events")


def layers(inputs: dict, stage_fresh, result: dict, meter: Meter,
           view) -> dict:
    """Per-layer numbers only this workload can supply.

    ``stage_fresh()`` boots another machine for the untraced twin;
    ``view`` is the traced pass's span view (see ``core.SpanView``).
    """
    twin_meter = Meter(meter.host)
    twin = run_bench(stage_fresh(), twin_meter)
    sim_s = twin_meter.seconds("sim.run")

    # Decode cost, timed directly over the batches the consumer saw
    # (rebuilt from the stored events, default batch size).
    docs = [doc for _, doc in result["fresh"].scan(INDEX)]
    records = [{**doc, "comm": doc["proc_name"], "enter_ns": doc["time"],
                "exit_ns": doc["time_exit"]} for doc in docs]
    size = TracerConfig().batch_size
    decode_s = timed(
        meter.host, lambda batch: RecordBatch.decode(batch, session=SESSION),
        [records[start:start + size]
         for start in range(0, len(records), size)])
    dfg_s = timed(meter.host,
                  lambda store: merged_dfg(store, INDEX, SESSION),
                  [result["fresh"]])

    stats = result["tracer"].stats.as_dict()
    traced_self = view.self_s(span="sim.run")
    tracer_s = max(traced_self - sim_s, 0.0)
    return {
        "sim_kernel_apps.busy_s": sim_s,
        "sim.events_processed": twin["steps"],
        "sim.steps_per_s": twin["steps"] / sim_s,
        "kernel.sim_elapsed_ns": twin["finish_ns"] - twin["start_ns"],
        "apps.ops": twin["bench"].op_count,
        "ebpf_tracer.busy_s": tracer_s,
        "ebpf.ring_produced": stats["produced"],
        "ebpf.ring_dropped": stats["dropped"],
        "tracer.filtered_out": stats["filtered_out"],
        "tracer.shipped": stats["shipped"],
        "tracer.batches": stats["batches"],
        "tracer.decode_s": decode_s,
        "tracer.drain_s": max(tracer_s - decode_s, 0.0),
        "analysis.dfg_s": dfg_s,
        "analysis.findings": len(result["report"].findings),
    }
