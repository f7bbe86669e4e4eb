"""Runs one workload: setup, timed passes, checks, per-layer budget.

One *pass* is one execution of a workload's timed phase.  A run with
tracing off sets up several times (``setup_s`` is the median), repeats
untraced passes for ``--seconds`` — at least ``MIN_PASSES`` — and
reports the median of each metric.  A traced run sets up once, makes
one pass that it throws away (the first pass in a process is 4–9 %
slower than the ones after it), and then runs rounds of an untraced
pass, a traced pass and the twins the per-layer split needs; which of
the two passes goes first alternates from round to round, and the ratio
of their median walls is the tracing overhead.
"""

from __future__ import annotations

import gc
import resource
import shutil
import time
from pathlib import Path
from statistics import median_low as median
from typing import NamedTuple

import dashboard_serve
import ingest_replay
import live_tail_sharded
import rocksdb_e2e
from common import REQUEST_KINDS, Outcome
from meter import (HostSpeed, Meter, SpanTime, TimedStore, span_recorder,
                   span_times)
from metrics import (END_TO_END, MAX_UNATTRIBUTED, PER_LAYER, applies)

MODULES = {module.NAME: module for module in
           (rocksdb_e2e, ingest_replay, dashboard_serve, live_tail_sharded)}
#: An untraced run sets up at least 3 times before the first pass, and
#: up to 15 times while that takes under a sixth of ``--seconds`` in
#: all; ``setup_s`` is the median.  (A set-up of 0.1 s at process start
#: is the noisiest thing the benchmark times; a median of 3 of them
#: moved 16 % between runs.)
SETUP_REPEATS = (3, 15)
SETUP_SHARE = 1 / 6
#: Every median over passes has at least this many behind it, however
#: short ``--seconds`` is.
MIN_PASSES = 3
INGEST_SPANS = ("store.bulk", "store.bulk_columnar")


class SpanView:
    """Sums over the traced pass's spans."""

    def __init__(self, spans: list[SpanTime]) -> None:
        self.spans = spans

    def pick(self, span: str = "", phase: str = ""):
        return (s for s in self.spans
                if s.name.startswith(span) and s.phase.startswith(phase))

    def self_s(self, span: str = "", phase: str = "") -> float:
        return sum(s.self_s for s in self.pick(span, phase))

    def total_s(self, span: str = "", phase: str = "") -> float:
        return sum(s.total_s for s in self.pick(span, phase))

    def first_query_s(self) -> float:
        """Store time of the first request after each ingest or load.

        That request pays for index work the vectorized ingest parked
        (lane backlog, column build), so the sum is what deferral cost.
        """
        total, after_ingest = 0.0, False
        for span in self.spans:
            if not span.name.startswith("store."):
                continue
            if span.name in INGEST_SPANS:
                after_ingest = True
            elif after_ingest:
                total += span.total_s
                after_ingest = False
        return total


def quantile(ordered: list[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_budget(view: SpanView, split: dict, store_layer: str) -> dict:
    """Self seconds per layer of the traced pass."""
    budget = {
        "sim_kernel_apps": split.get("sim_kernel_apps.busy_s", 0.0),
        "ebpf_tracer": (view.self_s("sim.") + view.self_s("tracer.")
                        - split.get("sim_kernel_apps.busy_s", 0.0)),
        store_layer: view.self_s("store."),
        "segments": view.self_s("segments."),
        "visualizer": view.self_s("visualizer."),
        "analysis": view.self_s("analysis."),
    }
    return {layer: seconds for layer, seconds in budget.items() if seconds}


def layer_metrics(module, inputs, stage_fresh, result, meter: Meter,
                  wall_s: float) -> tuple[dict, dict, list]:
    """Every per-layer metric of one traced pass, and its budget."""
    view = SpanView(span_times(meter.recorder, meter.calls))
    own = module.layers(inputs, stage_fresh, result, meter, view)
    docs, store = result["ingested_docs"], result["query_store"]
    store_layer = getattr(module, "STORE_LAYER", "backend")

    out = dict(own)
    ingest_s = sum(view.total_s(name) for name in INGEST_SPANS)
    if ingest_s and store_layer == "backend":
        out["backend.ingest_s"] = ingest_s
        out["backend.ingest_calls"] = sum(
            1 for s in view.spans if s.name in INGEST_SPANS)
        out["backend.ingest_docs_per_s"] = docs / ingest_s
    out["backend.correlate_s"] = sum(
        view.total_s(name, phase="sim.run")
        for name in ("store.scan", "store.stream", "store.update_docs"))
    out["backend.first_query_s"] = view.first_query_s()

    latencies = []
    for phase, metric in REQUEST_KINDS.items():
        seconds = sorted(c.seconds for c in meter.calls if c.name == phase)
        if seconds:
            out[metric] = 1e3 * quantile(seconds, 0.5)
            latencies += seconds
    if latencies:
        latencies.sort()
        out["backend.query_p95_ms"] = 1e3 * quantile(latencies, 0.95)
        out["backend.query_max_ms"] = 1e3 * latencies[-1]

    stats = store.agg_stats()
    served = stats["pushdowns"] + stats["fallbacks"]
    out["backend.agg_cache_hit_ratio"] = stats["cache_hit_rate"]
    out["backend.agg_pushdown_ratio"] = (stats["pushdowns"] / served
                                         if served else 0.0)
    out["backend.plan_pruning_ratio"] = store.pruning_ratio()

    events = result.get("saved", docs)
    for phase in ("save", "load", "open", "window_count"):
        seconds = view.self_s("segments." + phase)
        if seconds:
            out[f"segments.{phase}_s"] = seconds
            if phase in ("save", "load"):
                out[f"segments.{phase}_events_per_s"] = events / seconds
    out["visualizer.render_s"] = view.self_s("visualizer.")
    out["analysis.diagnose_self_s"] = view.self_s("analysis.diagnose")
    out["analysis.diagnose_store_s"] = view.total_s(
        "store.", phase="analysis.diagnose")
    out["analysis.contention_s"] = view.total_s("analysis.contention")

    budget = layer_budget(view, own, store_layer)
    out["harness.unattributed_ratio"] = max(
        0.0, 1.0 - sum(budget.values()) / wall_s)
    return out, budget, view.spans


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size_name: str, workdir: Path, tamper=None) -> dict:
    """One run of one workload; returns everything it measured.

    ``tamper`` (tests only) wraps every store the workload creates, to
    prove the checker notices a wrong answer.
    """
    try:
        with HostSpeed() as host:
            return measured_run(MODULES[name], seed, seconds, trace,
                                size_name, workdir,
                                tamper or (lambda store: store), host)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class Pass(NamedTuple):
    """One execution of a workload's timed phase, and what it measured."""

    state: dict
    result: dict
    meter: Meter
    wall_s: float
    numbers: dict


def medians(samples: list[dict]) -> dict:
    return {key: median(sample[key] for sample in samples)
            for key in samples[0]}


def measured_run(module, seed: int, seconds: float, trace: bool,
                 size_name: str, workdir: Path, tamper,
                 host: HostSpeed) -> dict:
    name = module.NAME
    size = module.SIZES[size_name]

    # -- setup, several times over -------------------------------------
    setup_meter = Meter(host)
    inputs = staged = None

    def stage(wrap):
        nonlocal staged
        staged = None
        gc.collect()
        fresh_dir(workdir / "pass")
        with setup_meter.phase("setup.stage"):
            staged = module.stage(inputs, wrap)
        return staged

    most = 1 if trace else SETUP_REPEATS[1]
    for repeat in range(most):
        if (repeat >= SETUP_REPEATS[0]
                and setup_meter.raw_wall_s() > SETUP_SHARE * seconds):
            break
        inputs = staged = None
        gc.collect()
        with setup_meter.phase("setup.prepare"):
            inputs = module.prepare(seed, size,
                                    fresh_dir(workdir / "inputs"))
        stage(tamper)
    # A set-up can be shorter than the host-speed timer's period, so all
    # of them share one factor: the host's speed over the whole section.
    setup_s = setup_meter.finish().host_speed * sum(
        median(call.raw_s for call in setup_meter.calls if call.name == step)
        for step in ("setup.prepare", "setup.stage"))

    # -- timed passes ----------------------------------------------------
    def one_pass(recorder):
        nonlocal staged
        wrap = ((lambda store: TimedStore(tamper(store), recorder))
                if recorder is not None else tamper)
        # A traced pass needs stores wrapped at staging time too.
        state = staged if staged is not None and recorder is None \
            else stage(wrap)
        staged = None
        gc.collect()
        meter = Meter(host, recorder)
        result = module.run(state, meter, workdir / "pass", wrap)
        timing = meter.finish()
        numbers = module.measure(state, result, meter, timing.wall_s)
        numbers["harness.raw_wall_s"] = timing.raw_wall_s
        numbers["harness.host_speed"] = timing.host_speed
        return Pass(state, result, meter, timing.wall_s, numbers)

    untraced: list[dict] = []
    traced: list[dict] = []
    traced_walls: list[float] = []
    budgets: list[dict] = []
    last_spans: list[dict] = []
    outcome = Outcome()
    rss = None

    def untraced_pass():
        nonlocal rss
        done = one_pass(None)
        untraced.append(done.numbers)
        if rss is None:
            # The high-water mark of set-up and one pass, read before
            # the checker builds its reference data in this process.
            rss = peak_rss_mb()
        module.check(done.state, done.result, outcome)

    def traced_pass():
        nonlocal last_spans
        done = one_pass(span_recorder(host))
        numbers, budget, spans = layer_metrics(
            module, inputs, lambda: module.stage(inputs, tamper),
            done.result, done.meter, done.wall_s)
        traced.append(numbers)
        traced_walls.append(done.wall_s)
        budgets.append(budget)
        last_spans = [{"phase": s.phase, "span": s.name,
                       "total_s": s.total_s, "self_s": s.self_s}
                      for s in spans]
        module.check(done.state, done.result, outcome)

    if trace:
        # Warm-up, not measured.  It is checked like the rest, so that
        # every measured pass starts on the heap a check leaves behind.
        done = one_pass(None)
        module.check(done.state, done.result, outcome)
        done = None
    began = time.perf_counter()
    while True:
        rounds = len(untraced)
        if time.perf_counter() - began >= seconds and rounds >= (
                1 if trace else MIN_PASSES):
            break
        # Each pass is checked and dropped before the next one starts, so
        # all run over the same heap: the collector's cost grows with it.
        order = [untraced_pass, traced_pass] if trace else [untraced_pass]
        for one in (order if rounds % 2 == 0 else reversed(order)):
            one()

    numbers = medians(untraced)
    numbers["setup_s"] = setup_s
    numbers["peak_rss_mb"] = rss
    if trace:
        numbers.update(medians(traced))
        numbers["harness.trace_overhead_ratio"] = (
            median(traced_walls) / numbers["wall_s"])
        if numbers["harness.unattributed_ratio"] > MAX_UNATTRIBUTED:
            outcome.check(False, "budget does not close: "
                          f"{numbers['harness.unattributed_ratio']:.1%} of "
                          "the traced wall is in no layer's self time")
    numbers["failed_ratio"] = outcome.failed / outcome.attempted

    declared = END_TO_END + (PER_LAYER if trace else ())
    return {
        "workload": name,
        "seed": seed,
        "size": dict(size, name=size_name),
        "traced": trace,
        "passes": [sample["wall_s"] for sample in untraced],
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "notes": outcome.notes[:20],
        "events": numbers.pop("events"),
        "metrics": {m.name: numbers.get(m.name, 0) for m in declared
                    if applies(m, name) or m in END_TO_END},
        "extra": {key: value for key, value in numbers.items()
                  if key not in {m.name for m in declared}},
        "budget": ({layer: median(b.get(layer, 0.0) for b in budgets)
                    for layer in budgets[0]} if trace else {}),
        "spans": last_spans,
    }
