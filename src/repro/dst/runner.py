"""Execute one DST scenario end-to-end and judge it.

``run_scenario`` is the whole harness for one seed:

1. **fast run** — the full pipeline (apps → kernel → tracer →
   consumer/spill → store → correlation) on the production paths, with
   the scenario's fault plan, consumer kills, and store crashes applied
   on the virtual clock;
2. **invariants** — :mod:`repro.dst.invariants` over the final state;
3. **differential battery** — planner/columnar answers vs. the naive
   oracles on the fast store, plus dashboard renders;
4. **twins** — every armed twin row of the axis registry
   (:data:`repro.dst.scenario.AXES`) runs the scenario again with its
   overrides and is compared with the fast run: the ``oracle`` twin
   and, on ring-aware scenarios, the ``classic`` twin;
5. **determinism** — a byte-identical digest check against a fresh
   execution of the fast run;
6. **post-run stages** — every stage row, under one temp dir:
   ``storage_recovery_checks``, ``segment_storage_checks`` and
   ``shard_lifecycle_checks`` (:mod:`repro.dst.stages`).

This module knows no axis by name (``tests/test_dst.py`` holds the two
lists above to the registry).  Every step is deterministic, so a failing
seed reproduces with ``dio dst repro <seed>`` forever.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import pathlib
import random
import tempfile
from typing import Optional

from repro.backend.naive import legacy_correlate
from repro.backend.router import create_store
from repro.dst import differential, invariants
from repro.dst.crash import BulkOnlyStore, CrashingStore
from repro.dst.ops import PATH_POOL, run_ops
from repro.dst.scenario import AXES, Scenario, stream
from repro.dst.stages import DASHBOARD_AGGS
from repro.faults import FaultPlan, FaultWindow, FaultyStore
from repro.kernel.inode import FileType
from repro.kernel.syscalls import Kernel
from repro.sim import Environment
from repro.tracer import DIOTracer, TracerConfig
from repro.visualizer.render import render_histogram, render_table

#: Index and session naming for DST runs.
DST_INDEX = "dio_trace"


@dataclasses.dataclass
class RunResult:
    """Verdict for one scenario."""

    seed: int
    failures: list
    digest: str
    events_produced: int
    events_stored: int
    consumer_crashes: int
    store_crashes: int
    faults_injected: int
    scenario: Scenario

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclasses.dataclass
class PipelineRun:
    """Final state of one pipeline execution: everything the
    invariants, the twin comparisons and the post-run stages read."""

    scenario: Scenario
    tracer: DIOTracer
    kernel: Kernel
    store: FaultyStore          # outermost wrapper the tracer wrote through
    inner_store: object         # the bare store underneath, sharded or not
    crashing: Optional[CrashingStore]   # crash layer, if scheduled
    session: str
    traced_pids: set
    report: object              # correlation report (oracle: legacy's)
    docs: list                  # (doc_id, source) snapshot, post-correlation
    index: str = DST_INDEX
    #: :func:`repro.dst.stages.session_export`'s once-per-seed result.
    export: Optional[tuple] = None

    def stream(self, name: str) -> random.Random:
        """One of this seed's derived streams (``scenario.stream``)."""
        return stream(self.scenario.seed, name)


def execute_pipeline(scenario: Scenario, *,
                     oracle: bool = False) -> PipelineRun:
    """Run the whole pipeline once for ``scenario``.

    ``oracle`` runs the reference path, the one thing a scenario cannot
    say: the tracer sees a ``bulk``-only store and correlation is
    :func:`legacy_correlate`.  Everything else a twin changes it
    changes in the scenario (``dataclasses.replace``).
    """
    env = Environment()
    kernel = Kernel(env, ncpus=scenario.ncpus)
    session = f"dst-{scenario.seed}"

    # Pre-create the namespace the op programs reference, and seed the
    # read targets with content (untraced setup, before attach).
    for base in ("/data", "/logs", "/scratch"):
        if kernel.vfs.lookup(base) is None:
            kernel.vfs.mkdir(base)
    for path in PATH_POOL:
        inode = kernel.vfs.create(path, FileType.REGULAR)
        inode.write_bytes(0, b"s" * 8192, 0)

    # Spawn all processes first so PID filtering is known before the
    # tracer is configured.
    procs = []
    traced_pids = set()
    for spec in scenario.processes:
        kproc = kernel.spawn_process(spec["name"])
        procs.append((kproc, spec))
        if spec.get("traced", True):
            traced_pids.add(kproc.pid)

    inner = create_store(shard_count=scenario.shard_count, shard_key="pid")
    crashing = (CrashingStore(inner, scenario.store_crashes,
                              clock=lambda: env.now)
                if scenario.store_crashes else None)
    plan = FaultPlan(FaultWindow(**w) for w in scenario.fault_windows)
    faulty = FaultyStore(inner if crashing is None else crashing, plan,
                         clock=lambda: env.now)

    config = TracerConfig(
        session_name=session,
        index=DST_INDEX,
        pids=tuple(sorted(traced_pids)) if scenario.has_untraced else None,
        ring_capacity_bytes_per_cpu=scenario.ring_capacity_bytes_per_cpu,
        ring_policy=scenario.ring_policy,
        batch_size=scenario.batch_size,
        poll_interval_ns=scenario.poll_interval_ns,
        ship_max_retries=scenario.ship_max_retries,
        max_inflight_events=scenario.max_inflight_events,
        backpressure_policy=scenario.backpressure_policy,
        resilience_seed=scenario.seed,
        correlate_on_stop=not oracle,
        ring_mode=scenario.ring_mode,
    )
    tracer = DIOTracer(env, kernel,
                       BulkOnlyStore(faulty) if oracle else faulty, config)
    tracer.attach()

    def crash_schedule():
        for at_ns in sorted(scenario.consumer_crashes):
            if at_ns > env.now:
                yield at_ns - env.now
            tracer.kill_consumer()
            yield scenario.consumer_restart_delay_ns
            tracer.restart_consumer()

    def main():
        apps = [env.process(run_ops(kernel, kproc.threads[0], spec["ops"]))
                for kproc, spec in procs]
        crasher = env.process(crash_schedule())
        yield env.all_of(apps)
        # All kills/restarts must land before shutdown so the drain
        # below waits on the final consumer incarnation.
        yield crasher
        yield from tracer.shutdown()

    env.run(until=env.process(main()))

    docs = []
    if DST_INDEX in inner.index_names():
        docs = sorted(inner.scan(DST_INDEX, {"match_all": {}}),
                      key=lambda pair: int(pair[0]))
    return PipelineRun(
        scenario=scenario, tracer=tracer, kernel=kernel, store=faulty,
        inner_store=inner, crashing=crashing, session=session,
        traced_pids=traced_pids, docs=docs,
        report=(legacy_correlate(inner, DST_INDEX, session=session)
                if oracle else tracer.correlation_report))


# ----------------------------------------------------------------------
# Digest (same-seed reruns must be byte-identical)

def run_digest(run: PipelineRun, battery_results: list,
               dashboards: list[str]) -> str:
    """sha256 over everything an operator could observe from the run.

    Includes the full diagnosis report (batch + streaming findings,
    DFG fingerprint, phases), so the determinism stage pins same-seed
    byte-identical diagnosis output too.
    """
    from repro.analysis.diagnose import diagnose_session

    diagnosis = (diagnose_session(run.inner_store, run.session,
                                  index=DST_INDEX).as_dict()
                 if run.docs else None)
    payload = {
        "docs": run.docs,
        "stats": run.tracer.stats.as_dict(),
        "report": run.report.as_dict() if run.report else None,
        "battery": battery_results,
        "dashboards": dashboards,
        "diagnosis": diagnosis,
        "syscall_counts": dict(sorted(
            run.tracer.kernel.syscall_counts.items())),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def render_dashboards(run: PipelineRun) -> list[str]:
    """The dashboard stage: render what ``dio dashboard`` would show."""
    if not run.docs:
        return ["(no data)"]
    store = run.inner_store
    response = store.search(DST_INDEX, size=0, aggs=DASHBOARD_AGGS)
    buckets = [(b["key"], b["doc_count"])
               for b in response["aggregations"]["by_syscall"]["buckets"]]
    histogram = render_histogram(buckets)
    table = render_table(
        ("metric", "value"),
        sorted(run.tracer.stats.as_dict().items()))
    return [histogram, table]


# ----------------------------------------------------------------------
# The full per-seed harness

def run_scenario(scenario: Scenario, *, check_determinism: bool = True,
                 check_oracle: bool = True,
                 tmp_dir=None) -> RunResult:
    """Run every stage for one scenario; see the module docstring."""
    fast = execute_pipeline(scenario)
    failures = invariants.check_all(fast)

    times = [source.get("time", 0) for _, source in fast.docs]
    time_lo, time_hi = (min(times), max(times)) if times else (0, 1)

    def observe(run: PipelineRun) -> tuple[list[str], str]:
        """``(battery failures, digest)`` of one execution."""
        battery_failures, battery = differential.run_battery(
            run.inner_store, DST_INDEX, run.stream("battery"),
            time_lo, time_hi)
        return battery_failures, run_digest(run, battery,
                                            render_dashboards(run))

    battery_failures, digest = observe(fast)
    failures += battery_failures

    twins = [axis.twin for axis in AXES if axis.twin] if check_oracle else []
    for twin in twins:
        if twin.armed(scenario):
            failures += twin.compare(fast, execute_pipeline(
                dataclasses.replace(scenario, **twin.overrides),
                oracle=twin.oracle))

    if check_determinism:
        _, rerun_digest = observe(execute_pipeline(scenario))
        if rerun_digest != digest:
            failures.append(
                f"non-deterministic: same-seed rerun digest "
                f"{rerun_digest[:16]} != {digest[:16]}")

    with (tempfile.TemporaryDirectory(prefix="dio-dst-") if tmp_dir is None
          else contextlib.nullcontext(tmp_dir)) as tmp:
        for axis in AXES:
            if axis.stage and fast.docs:
                failures += axis.stage(fast, pathlib.Path(tmp))

    return RunResult(
        seed=scenario.seed,
        failures=failures,
        digest=digest,
        events_produced=fast.tracer.ring.stats.produced,
        events_stored=len(fast.docs),
        consumer_crashes=len(scenario.consumer_crashes),
        store_crashes=(fast.crashing.crashes_total
                       if fast.crashing else 0),
        faults_injected=fast.store.faults_injected,
        scenario=scenario,
    )
