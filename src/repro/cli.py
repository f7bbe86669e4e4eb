"""``dio`` command-line interface.

Runs the paper's experiments from a terminal::

    dio fluentbit --version 1.4.0     # §III-B, Fig. 2a
    dio fluentbit --version 2.0.5     # §III-B, Fig. 2b
    dio rocksdb --duration 2.0        # §III-C, Fig. 3 + Fig. 4
    dio overhead --ops 1500           # §III-D, Table II
    dio capabilities                  # Table III
    dio resilience                    # ingestion under backend outage

Each subcommand prints the DIO dashboards the corresponding figure or
table was generated from.  Traces can be kept for post-mortem work
(paper §II design principle)::

    dio fluentbit --version 1.4.0 --export buggy.jsonl
    dio fluentbit --version 2.0.5 --export fixed.jsonl
    dio sessions buggy.jsonl fixed.jsonl      # list stored sessions
    dio analyze buggy.jsonl                   # run the detector battery
    dio compare buggy.jsonl fixed.jsonl       # first behavioural diff
    dio segments /var/lib/dio/run --verify    # inspect a segment store

Every TRACE argument accepts either a JSON-lines export or a segment
store directory (docs/STORAGE.md) — the loader auto-detects.
"""

from __future__ import annotations

import argparse
import math
import sys

SECOND = 1_000_000_000


def _positive(kind):
    """The argparse type of a count (``int``) or a duration (``float``):
    a finite value above zero, else a usage error (exit 2)."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
        return value
    return parse


def _cmd_fluentbit(args) -> int:
    from repro.analysis.patterns import find_stale_offset_resumes
    from repro.backend.persistence import export_session
    from repro.experiments import run_fluentbit_case

    case = run_fluentbit_case(args.version)
    session = case.tracer.config.session_name
    print(f"Fluent Bit {args.version} traced by DIO (session {session!r})\n")
    print(case.figure2_table())
    print()
    print(f"client wrote   : {case.written_bytes} bytes")
    print(f"flb delivered  : {case.delivered_bytes} bytes")
    print(f"data lost      : {case.lost_bytes} bytes")
    findings = find_stale_offset_resumes(case.store, "dio_trace")
    for finding in findings:
        print(f"stale-offset resume detected: {finding.proc_name} read "
              f"{finding.file_path or finding.file_tag} from offset "
              f"{finding.offset} on a fresh file")
    if args.export:
        count = export_session(case.store, session, args.export)
        print(f"\nexported {count} events to {args.export}")
    return 0


def _cmd_rocksdb(args) -> int:
    from repro.analysis.contention import detect_contention
    from repro.experiments import run_rocksdb_case
    from repro.experiments.rocksdb_case import RocksDBScale

    scale = RocksDBScale(duration_ns=int(args.duration * SECOND))
    case = run_rocksdb_case(scale)
    window = 100_000_000
    print("Fig. 3 — p99 client latency over time (source: db_bench)\n")
    print(case.dashboards.latency_timeline(case.bench.records(), window))
    print()
    print("Fig. 4 — syscalls over time by thread name (source: DIO)\n")
    print(case.dashboards.syscalls_over_time_chart(window))
    print()
    report = detect_contention(case.store, "dio_trace", window,
                               session=case.session)
    print(f"contended windows (>= {report.threshold} compaction threads): "
          f"{len(report.contended_windows)}")
    print(f"client syscalls/window: calm {report.client_rate_calm:.0f} vs "
          f"contended {report.client_rate_contended:.0f} "
          f"({report.client_slowdown:.1f}x slowdown)")
    print(f"ring-buffer discards: {case.tracer.stats.drop_ratio * 100:.2f}%")
    from repro.analysis.blame import blame_spikes, render_blame

    print()
    print("spike blame (busiest background threads per spike window):")
    print(render_blame(blame_spikes(
        case.store, case.bench.records(), window,
        session=case.session, spike_factor=2.0)))
    if args.export:
        from repro.backend.persistence import export_session

        count = export_session(case.store, case.session, args.export)
        print(f"\nexported {count} events to {args.export}")
    return 0


def _load_traces(paths):
    from repro.backend import DocumentStore
    from repro.backend.persistence import load_session

    # load_session auto-detects the on-disk layout, so every trace
    # argument accepts a JSON-lines file or a segment-store directory.
    store = DocumentStore()
    sessions = [load_session(store, path) for path in paths]
    return store, sessions


def _cmd_segments(args) -> int:
    import json
    from collections import Counter

    from repro.backend.segments import SegmentError, SegmentStorage
    from repro.visualizer import render_table

    try:
        # Inspect/verify must never alter the store (no manifest
        # rewrite, no quarantine, no WAL truncation); only --compact
        # needs a writable open.
        engine = SegmentStorage(args.store, create=False,
                                read_only=not args.compact)
    except SegmentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    exit_code = 0
    report = {"stats": None, "open_report": engine.open_report}
    if args.compact:
        report["compaction"] = engine.compact()
    if args.verify:
        sweep = engine.verify()
        report["verify"] = sweep
        # Damage found at open time (segments dropped from the live
        # view) is a verify failure too, not just bad live blocks.
        if not sweep["ok"] or engine.open_report["segments_dropped"]:
            exit_code = 1
    report["stats"] = stats = engine.stats()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return exit_code
    rows = []
    for seg in stats["segments"]:
        span = ("-" if seg["time_min"] is None else
                f"{seg['time_min']/1e9:.3f}s..{seg['time_max']/1e9:.3f}s")
        rows.append([seg["name"], seg["rows"], seg["session"], span,
                     f"{seg['bytes'] / 1024:.1f} KiB",
                     len(seg["zone_fields"])])
    print(render_table(
        ["segment", "rows", "session", "time range", "size", "zones"],
        rows))
    print(f"\nrows: {stats['rows']}  (buffered in WAL: "
          f"{stats['buffer_docs']})  on disk: "
          f"{stats['disk_bytes'] / 1024:.1f} KiB")
    # What each field costs, summed over the segments.
    kinds: dict[str, Counter] = {}
    sizes: Counter = Counter()
    for seg in stats["segments"]:
        for field, block in seg["fields"].items():
            kinds.setdefault(field, Counter())[block["kind"]] += 1
            sizes[field] += block["bytes"]
    if kinds:
        print()
        print(render_table(["field", "blocks", "bytes"], [
            [field, ", ".join(f"{count} {kind}" for kind, count
                              in kinds[field].items()), sizes[field]]
            for field in kinds]))
    if engine.open_report["segments_dropped"]:
        dropped = engine.open_report["dropped"]
        verb = ("detected" if engine.read_only else "quarantined")
        print(f"{verb} {len(dropped)} damaged segment(s) on open:")
        for entry in dropped:
            where = (f" -> {entry['quarantined']}"
                     if "quarantined" in entry else "")
            print(f"  {entry['name']}: {entry['error']}{where}")
    if args.compact:
        comp = report["compaction"]
        print(f"compaction: {comp['compactions']} run(s) merged "
              f"{comp['segments_merged']} segment(s) "
              f"({comp['rows']} rows)")
    if args.verify:
        sweep = report["verify"]
        status = "ok" if sweep["ok"] else "FAILED"
        print(f"checksum sweep: {status} "
              f"({sum(s['blocks_checked'] for s in sweep['segments'])} "
              "blocks checked)")
        for seg in sweep["segments"]:
            for error in seg["errors"]:
                print(f"  {seg['path']}: {error}")
    return exit_code


def _cmd_sessions(args) -> int:
    from repro.backend.persistence import list_sessions
    from repro.visualizer import render_table

    store, _ = _load_traces(args.traces)
    rows = [[s["session"], s["events"],
             f"{(s['last_ns'] - s['first_ns']) / 1e9:.3f} s",
             ", ".join(s["processes"])]
            for s in list_sessions(store)]
    print(render_table(["session", "events", "span", "processes"], rows))
    return 0


def _cmd_analyze(args) -> int:
    import json

    from repro.analysis.diagnose import diagnose_session

    store, sessions = _load_traces(args.traces)
    exit_code = 0
    results = []
    for session in sessions:
        findings = [ranked.finding for ranked
                    in diagnose_session(store, session).findings]
        if any(f.severity == "critical" for f in findings):
            exit_code = 1
        if args.json:
            results.append({"session": session,
                            "findings": [f.as_dict() for f in findings]})
            continue
        print(f"=== findings for session {session!r} ===")
        if not findings:
            print("no issues detected")
        for finding in findings:
            print(f"  {finding}")
        print()
    if args.json:
        print(json.dumps(results, indent=2, sort_keys=True))
    return exit_code


def _cmd_replay(args) -> int:
    from repro.kernel import Kernel
    from repro.sim import Environment
    from repro.tracer.replay import TraceReplayer

    store, sessions = _load_traces(args.traces)
    for session in sessions:
        env = Environment()
        kernel = Kernel(env)
        replayer = TraceReplayer.from_session(store, kernel, session,
                                              timed=args.timed)
        report = env.run(until=env.process(replayer.run()))
        print(f"session {session!r}: replayed {report.issued} syscalls "
              f"({report.skipped} skipped) in "
              f"{report.duration_ns / 1e9:.3f} virtual seconds; "
              f"return-value fidelity {report.fidelity * 100:.1f}%")
        stats = kernel.device.stats
        print(f"  disk: {stats.bytes_written:,} B written, "
              f"{stats.bytes_read:,} B read")
    return 0


def _cmd_dashboard(args) -> int:
    from repro.visualizer import Dashboard, load_predefined

    store, sessions = _load_traces(args.traces)
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            dashboard = Dashboard.from_spec(handle.read())
    else:
        dashboard = load_predefined(args.name)
    for session in sessions:
        print(dashboard.render(store, session=session))
        print()
    if args.agg_stats:
        stats = store.agg_stats()
        print("aggregation engine: "
              f"pushdowns={stats['pushdowns']} "
              f"fallbacks={stats['fallbacks']} "
              f"cache_hits={stats['cache_hits']} "
              f"cache_misses={stats['cache_misses']} "
              f"hit_rate={stats['cache_hit_rate']:.0%} "
              f"kernel_ms={stats['kernel_ms']:.2f}")
    return 0


def _cmd_compare(args) -> int:
    from repro.analysis.compare import compare_sessions
    from repro.visualizer import render_table

    store, sessions = _load_traces([args.trace_a, args.trace_b])
    session_a, session_b = sessions
    comparison = compare_sessions(store, session_a, session_b)
    if args.json:
        import json

        from repro.analysis.dfg import compare_session_dfgs

        divergence = comparison.divergence
        print(json.dumps({
            "session_a": session_a,
            "session_b": session_b,
            "syscall_deltas": comparison.syscall_deltas,
            "common_prefix": comparison.common_prefix,
            "behaviorally_identical": comparison.behaviorally_identical,
            "divergence": ({
                "position": divergence.position,
                "event_a": divergence.event_a,
                "event_b": divergence.event_b,
            } if divergence else None),
            "dfg": compare_session_dfgs(store, session_a,
                                        session_b).as_dict(),
        }, indent=2, sort_keys=True))
        return 0
    print(f"comparing {session_a!r} (A) with {session_b!r} (B)\n")
    if comparison.syscall_deltas:
        rows = [[name, f"{delta:+d}"]
                for name, delta in comparison.syscall_deltas.items()]
        print(render_table(["syscall", "count B-A"], rows))
        print()
    if comparison.behaviorally_identical:
        print("sessions are behaviorally identical "
              f"({comparison.common_prefix} matching steps)")
        return 0
    print(f"identical for the first {comparison.common_prefix} steps; "
          "first divergence:")
    print(f"  {comparison.divergence.describe()}")
    return 0


def _cmd_diagnose(args) -> int:
    import json

    from repro.analysis.diagnose import diagnose_session

    latency_by_session = {}
    if args.scenario:
        if args.scenario == "rocksdb":
            from repro.experiments import run_rocksdb_case
            from repro.experiments.rocksdb_case import RocksDBScale

            scale = RocksDBScale(duration_ns=int(args.duration * SECOND))
            case = run_rocksdb_case(scale)
            store, sessions = case.store, [case.session]
            latency_by_session[case.session] = case.bench.records()
        else:
            from repro.experiments import run_fluentbit_case

            case = run_fluentbit_case(args.version)
            store = case.store
            sessions = [case.tracer.config.session_name]
    elif args.traces:
        store, sessions = _load_traces(args.traces)
    else:
        print("dio diagnose: provide trace files or --scenario",
              file=sys.stderr)
        return 2
    if args.session:
        if args.session not in sessions:
            print(f"dio diagnose: session {args.session!r} not found "
                  f"(have: {', '.join(sessions)})", file=sys.stderr)
            return 2
        sessions = [args.session]

    reports = []
    for session in sessions:
        report = diagnose_session(
            store, session, latency_records=latency_by_session.get(session))
        if args.follow:
            print(f"--- streaming findings for session {session!r} ---")
            for ranked in sorted(
                    (ranked for ranked in report.findings
                     if ranked.source == "streaming"),
                    key=lambda ranked: (ranked.emit_ns,
                                        ranked.finding.detector,
                                        ranked.finding.title)):
                print(f"[{ranked.emit_ns / 1e6:10.1f} ms] {ranked.finding}")
            print()
        reports.append(report)

    if args.json:
        payload = [report.as_dict() for report in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload,
                         indent=2, sort_keys=True))
    else:
        for report in reports:
            print(report.render())
            print()
    return 0


def _cmd_overhead(args) -> int:
    from repro.experiments import run_overhead_comparison
    from repro.visualizer import render_table

    result = run_overhead_comparison(ops_per_thread=args.ops)
    print("Table II — execution time under each tracer "
          "(same operation budget)\n")
    print(render_table(
        ["deployment", "execution time", "overhead",
         "events w/o file path", "ring discards"],
        result.table2_rows()))
    return 0


def _cmd_uring(args) -> int:
    """The io_uring blind-spot comparison: classic vs ring-aware."""
    import json

    from repro.experiments import UringScale, run_uring_comparison
    from repro.visualizer import render_table

    scale = UringScale(batches=max(1, args.records // args.batch_size),
                       batch_size=args.batch_size)
    comparison = run_uring_comparison(scale)
    if args.json:
        print(json.dumps(comparison.as_dict(), indent=2, sort_keys=True))
        return 0 if comparison.outcomes_match else 1
    print("io_uring blind spot — the same log workload, classic "
          "syscalls vs ring submission\n")
    rows = []
    for name, run in comparison.runs.items():
        rows.append([
            name, run.app_mode, run.ring_mode or "-",
            f"{run.execution_time_ns / 1e6:.3f} ms",
            run.store_events, run.per_op_events, run.doorbell_events,
        ])
    print(render_table(
        ["deployment", "app", "tracer", "exec time", "events",
         "per-op I/O", "doorbells"], rows))
    print(f"\nclassic visibility on the ring port: "
          f"{comparison.classic_visibility_ratio * 100:.1f}% "
          f"of ring-aware I/O events")
    print(f"ring-aware tracing overhead: "
          f"{(comparison.ring_aware_overhead - 1) * 100:+.2f}% vs "
          f"untraced")
    print(f"classic/io_uring outcomes identical: "
          f"{comparison.outcomes_match}")
    return 0 if comparison.outcomes_match else 1


def _cmd_resilience(args) -> int:
    import json

    from repro.experiments import ResilienceScale, run_resilience_case
    from repro.visualizer import render_table

    scale = ResilienceScale(duration_ns=int(args.duration * SECOND))
    case = run_resilience_case(scale, compare_baseline=not args.no_baseline)
    try:
        report = case.verify()
        verdict = "PASS"
    except AssertionError as exc:
        report = case.report()
        verdict = f"FAIL: {exc}"

    print("Resilient ingestion — RocksDB traced through a scripted "
          "backend outage\n")
    rows = [[w["kind"], f"{w['start_ns'] / 1e9:.3f} s",
             f"{(w['end_ns'] - w['start_ns']) / 1e6:.0f} ms"]
            for w in report["plan"]["windows"]]
    print(render_table(["fault", "start", "length"], rows))
    print()
    stats = report["stats"]
    print(f"accepted records   : {report['accepted']}")
    print(f"indexed records    : {report['indexed']}")
    print(f"lost records       : {report['lost']}")
    print(f"faults injected    : {report['faults_injected']}")
    print(f"bulk retries       : {stats['ship_retries']} "
          f"({stats['retry_rate'] * 100:.2f}% of "
          f"{stats['bulk_attempts']} attempts)")
    print(f"breaker transitions: opened {report['breaker']['opened']}, "
          f"closed {report['breaker']['closed']}")
    print(f"spill WAL          : {report['spill']['records']} spilled, "
          f"{report['spill']['replayed']} replayed, "
          f"{report['spill']['pending']} pending")
    envelope = report["envelope"]
    print(f"drain lag          : {envelope['drain_lag_ns'] / 1e9:.3f} "
          "virtual s after app exit")
    if envelope["baseline_app_done_ns"] is not None:
        delta = (envelope["app_done_ns"]
                 - envelope["baseline_app_done_ns"])
        print(f"app vs fault-free  : {delta:+d} ns")
    print(f"\nloss/latency envelope: {verdict}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"report written to {args.json}")
    return 0 if verdict == "PASS" else 1


def _cmd_capabilities(_args) -> int:
    from repro.baselines import capability_table

    print("Table III — tool comparison\n")
    print(capability_table())
    return 0


def _run_traced_scenario(args):
    """Run one built-in traced scenario; returns its DIOTracer.

    Everything runs on the virtual clock, so the telemetry that comes
    back — counters, span quantiles, exports — is deterministic.
    """
    if args.scenario == "rocksdb":
        from repro.experiments import run_rocksdb_case
        from repro.experiments.rocksdb_case import RocksDBScale

        scale = RocksDBScale(duration_ns=int(args.duration * SECOND))
        return run_rocksdb_case(scale).tracer
    if args.scenario == "resilience":
        from repro.experiments import ResilienceScale, run_resilience_case

        scale = ResilienceScale(duration_ns=int(args.duration * SECOND))
        return run_resilience_case(scale, compare_baseline=False).tracer
    from repro.experiments import run_fluentbit_case

    return run_fluentbit_case(args.version).tracer


def _add_scenario_arguments(parser) -> None:
    parser.add_argument("--scenario",
                        choices=("fluentbit", "rocksdb", "resilience"),
                        default="fluentbit",
                        help="traced workload to run (default: fluentbit)")
    parser.add_argument("--version", choices=("1.4.0", "2.0.5"),
                        default="1.4.0",
                        help="Fluent Bit version (fluentbit scenario)")
    parser.add_argument("--duration", type=_positive(float), default=0.4,
                        help="virtual seconds of db_bench load "
                             "(rocksdb/resilience scenarios)")


def _cmd_metrics(args) -> int:
    tracer = _run_traced_scenario(args)
    if args.format == "json":
        print(tracer.telemetry.to_json())
    else:
        print(tracer.telemetry.to_prometheus(), end="")
    return 0


def _cmd_health(args) -> int:
    import json

    from repro.visualizer import SelfMonitoringDashboard

    tracer = _run_traced_scenario(args)
    report = tracer.telemetry.health_report()
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(f"pipeline health for session "
              f"{tracer.config.session_name!r}\n")
        print(SelfMonitoringDashboard(tracer.telemetry).render())
        print(report.conservation.line())
    # Events the terms do not account for are a pipeline fault.
    return 0 if report.conservation.holds else 1


def _cmd_fleet(args) -> int:
    """Serve a fleet of tracing sessions from one sharded backend."""
    import json
    from dataclasses import replace

    from repro.backend.tenancy import TenantBackend, TenantQuotaExceeded
    from repro.dst import generate
    from repro.dst.runner import DST_INDEX, execute_pipeline
    from repro.visualizer import render_table

    fleet = TenantBackend(shards_per_tenant=args.shards,
                          default_quota_docs=args.quota)
    for offset in range(args.tenants):
        seed = args.seed + offset
        tenant = fleet.register(f"host-{seed}")
        tenant.ensure_index(DST_INDEX)
        # Each tenant is one traced host: a seeded pipeline capture
        # shipped into the tenant's disjoint shard set.
        run = execute_pipeline(replace(generate(seed), shard_count=1))
        sources = [source for _, source in run.docs]
        try:
            tenant.bulk(DST_INDEX, sources)
        except TenantQuotaExceeded:
            pass
        # One dashboard refresh per tenant, so the rollup shows real
        # query traffic (and exercises the scatter-gather path).
        if tenant.docs_held():
            tenant.search(DST_INDEX, size=0, aggs={
                "by_syscall": {"terms": {"field": "syscall", "size": 50}}})
    report = fleet.fleet_report()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if not report["total_rejections"] else 1
    print(f"fleet: {report['tenant_count']} tenants, "
          f"{report['total_docs']} documents, "
          f"{report['total_rejections']} quota rejections\n")
    rows = []
    for name, entry in report["tenants"].items():
        quota = entry["quota_docs"]
        rows.append([
            name, entry["status"], entry["docs"],
            "-" if quota is None else quota,
            f"{entry['quota_utilisation'] * 100:.0f}%",
            entry["quota_rejections"], entry["shard_count"],
            entry["queries"],
        ])
    print(render_table(
        ["tenant", "health", "docs", "quota", "used", "rejected",
         "shards", "queries"], rows))
    return 0


def _cmd_dst_run(args) -> int:
    import json

    from repro.dst import run_seeds

    seeds = range(args.start, args.start + args.seeds)
    print(f"dst: running seeds {seeds.start}..{seeds.stop - 1}")

    def progress(result):
        if not result.ok:
            print(f"  seed {result.seed}: FAIL "
                  f"({len(result.failures)} failures)")
        elif args.verbose:
            print(f"  seed {result.seed}: ok "
                  f"({result.events_stored} events, "
                  f"digest {result.digest[:12]})")

    campaign = run_seeds(seeds, shrink_failures=args.shrink,
                         progress=progress)
    summary = campaign.summary()
    print(f"dst: {summary['seeds_run']} seeds, "
          f"{summary['seeds_failed']} failed, "
          f"{summary['events_stored']} events stored, "
          f"{summary['consumer_crashes']} consumer crashes, "
          f"{summary['store_crashes']} store crashes, "
          f"{summary['faults_injected']} faults injected")
    if args.save_failures and campaign.failed_seeds:
        import pathlib
        out = pathlib.Path(args.save_failures)
        out.mkdir(parents=True, exist_ok=True)
        for result in campaign.results:
            if result.ok:
                continue
            scenario = campaign.shrunk.get(result.seed, result.scenario)
            path = out / f"seed-{result.seed}.json"
            scenario.save(path)
            (out / f"seed-{result.seed}.failures.txt").write_text(
                "\n".join(result.failures) + "\n", encoding="utf-8")
            print(f"  saved {path}")
    for seed in campaign.failed_seeds:
        print(f"reproduce with: dio dst repro {seed}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
    return 0 if campaign.ok else 1


def _cmd_dst_repro(args) -> int:
    from dataclasses import replace

    from repro.dst import AXES, Scenario, generate, run_scenario, shrink

    if args.scenario:
        scenario = Scenario.load(args.scenario)
        print(f"dst: replaying scenario file {args.scenario}")
    else:
        scenario = generate(args.seed)
    scenario = replace(scenario, **{
        axis.field: getattr(args, axis.field) for axis in AXES
        if axis.override_help and getattr(args, axis.field) is not None})
    print(f"dst: {scenario.describe()}")
    result = run_scenario(scenario)
    if result.ok:
        print(f"dst: seed {scenario.seed} passes "
              f"(digest {result.digest[:16]})")
        if args.save:
            print(f"dst: nothing to shrink, nothing saved to {args.save}")
        return 0
    print(f"dst: seed {scenario.seed} FAILS:")
    for failure in result.failures:
        print(f"  {failure}")
    if args.shrink:
        outcome = shrink(scenario, max_runs=args.shrink_budget)
        print(f"dst: shrunk {outcome.original_ops} -> "
              f"{outcome.final_ops} ops "
              f"({outcome.runs_used} runs)")
        if args.save:
            outcome.scenario.save(args.save)
            print(f"dst: minimal scenario saved to {args.save}")
        else:
            print(outcome.scenario.to_json())
    return 1


def _cmd_dst_corpus(args) -> int:
    from repro.dst import run_corpus

    outcomes = run_corpus(args.dir)
    if not outcomes:
        print(f"dst: no corpus scenarios under {args.dir}")
        return 0
    failed = 0
    for path, result in outcomes:
        verdict = "ok" if result.ok else "FAIL"
        print(f"  {path.name}: {verdict}")
        if not result.ok:
            failed += 1
            for failure in result.failures[:5]:
                print(f"    {failure}")
    print(f"dst: corpus {len(outcomes)} scenarios, {failed} failed")
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="dio",
        description="DIO (DSN 2023) reproduction: syscall-observability "
                    "experiments on a simulated kernel.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_flb = sub.add_parser("fluentbit", help="§III-B data-loss diagnosis")
    p_flb.add_argument("--version", choices=("1.4.0", "2.0.5"),
                       default="1.4.0")
    p_flb.add_argument("--export", metavar="PATH",
                       help="save the traced session to a JSON-lines file")
    p_flb.set_defaults(func=_cmd_fluentbit)

    p_rdb = sub.add_parser("rocksdb", help="§III-C contention diagnosis")
    p_rdb.add_argument("--duration", type=_positive(float), default=2.0,
                       help="virtual seconds of db_bench load")
    p_rdb.add_argument("--export", metavar="PATH",
                       help="save the traced session to a JSON-lines file")
    p_rdb.set_defaults(func=_cmd_rocksdb)

    p_sessions = sub.add_parser("sessions",
                                help="list sessions stored in trace files")
    p_sessions.add_argument("traces", nargs="+", metavar="TRACE")
    p_sessions.set_defaults(func=_cmd_sessions)

    p_segments = sub.add_parser(
        "segments",
        help="inspect a segment store (rows, time ranges, zone maps)")
    p_segments.add_argument("store", metavar="DIR",
                            help="segment store directory")
    p_segments.add_argument("--compact", action="store_true",
                            help="merge contiguous runs of small segments")
    p_segments.add_argument("--verify", action="store_true",
                            help="recompute every block/footer checksum")
    p_segments.add_argument("--json", action="store_true",
                            help="machine-readable report")
    p_segments.set_defaults(func=_cmd_segments)

    p_analyze = sub.add_parser(
        "analyze", help="run the misbehaviour detectors on trace files")
    p_analyze.add_argument("traces", nargs="+", metavar="TRACE")
    p_analyze.add_argument("--json", action="store_true",
                           help="emit findings as machine-readable JSON")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_compare = sub.add_parser(
        "compare", help="diff two traced sessions' behaviour")
    p_compare.add_argument("trace_a", metavar="TRACE_A")
    p_compare.add_argument("trace_b", metavar="TRACE_B")
    p_compare.add_argument("--json", action="store_true",
                           help="emit the comparison (including DFG "
                                "drift) as machine-readable JSON")
    p_compare.set_defaults(func=_cmd_compare)

    p_diag = sub.add_parser(
        "diagnose",
        help="automatic diagnosis: batch + streaming detectors, DFG "
             "phases, evidence-backed report")
    p_diag.add_argument("traces", nargs="*", metavar="TRACE",
                        help="trace files to diagnose post-mortem")
    p_diag.add_argument("--scenario", choices=("fluentbit", "rocksdb"),
                        help="run a built-in case study, then diagnose "
                             "the session it stored")
    p_diag.add_argument("--version", choices=("1.4.0", "2.0.5"),
                        default="1.4.0",
                        help="Fluent Bit version (fluentbit scenario)")
    p_diag.add_argument("--duration", type=_positive(float), default=0.4,
                        help="virtual seconds of db_bench load "
                             "(rocksdb scenario)")
    p_diag.add_argument("--session", metavar="NAME",
                        help="diagnose only this session")
    output = p_diag.add_mutually_exclusive_group()
    output.add_argument("--follow", action="store_true",
                        help="before the report, print the streaming "
                             "findings with their emission timestamps, "
                             "in emission-time, detector, title order")
    output.add_argument("--json", action="store_true",
                        help="emit the diagnosis report as JSON (each "
                             "streaming finding carries its emit_ns)")
    p_diag.set_defaults(func=_cmd_diagnose)

    p_replay = sub.add_parser(
        "replay", help="re-execute stored sessions on a fresh kernel")
    p_replay.add_argument("traces", nargs="+", metavar="TRACE")
    p_replay.add_argument("--timed", action="store_true",
                          help="preserve recorded inter-event gaps")
    p_replay.set_defaults(func=_cmd_replay)

    p_dash = sub.add_parser(
        "dashboard", help="render a (predefined) dashboard over traces")
    p_dash.add_argument("traces", nargs="+", metavar="TRACE")
    p_dash.add_argument("--name", default="overview",
                        help="predefined dashboard name (default: overview)")
    p_dash.add_argument("--spec", metavar="JSON_FILE",
                        help="custom dashboard spec file instead of --name")
    p_dash.add_argument("--agg-stats", action="store_true",
                        help="after rendering, print the store's columnar "
                             "aggregation counters (pushdown / cache)")
    p_dash.set_defaults(func=_cmd_dashboard)

    p_ovh = sub.add_parser("overhead", help="Table II tracer comparison")
    p_ovh.add_argument("--ops", type=_positive(int), default=1500,
                       help="operations per client thread")
    p_ovh.set_defaults(func=_cmd_overhead)

    p_uring = sub.add_parser(
        "uring", help="io_uring blind spot: the same log workload "
                      "classic vs ring-aware")
    p_uring.add_argument("--records", type=_positive(int), default=192,
                         help="log records per deployment (default 192)")
    p_uring.add_argument("--batch-size", type=_positive(int), default=8,
                         help="records per submission batch (default 8)")
    p_uring.add_argument("--json", action="store_true",
                         help="emit the comparison as JSON")
    p_uring.set_defaults(func=_cmd_uring)

    p_res = sub.add_parser(
        "resilience",
        help="trace RocksDB through a scripted backend outage and "
             "check the loss/latency envelopes")
    p_res.add_argument("--duration", type=_positive(float), default=1.0,
                       help="virtual seconds of db_bench load")
    p_res.add_argument("--json", metavar="PATH",
                       help="write the scenario report as JSON")
    p_res.add_argument("--no-baseline", action="store_true",
                       help="skip the fault-free twin run (faster; "
                            "drops the app-isolation check)")
    p_res.set_defaults(func=_cmd_resilience)

    p_cap = sub.add_parser("capabilities", help="Table III feature matrix")
    p_cap.set_defaults(func=_cmd_capabilities)

    p_metrics = sub.add_parser(
        "metrics", help="run a traced scenario and export its telemetry")
    _add_scenario_arguments(p_metrics)
    p_metrics.add_argument("--format", choices=("prometheus", "json"),
                           default="prometheus",
                           help="exposition format (default: prometheus)")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_health = sub.add_parser(
        "health", help="run a traced scenario and print pipeline health")
    _add_scenario_arguments(p_health)
    p_health.add_argument("--format", choices=("text", "json"),
                          default="text",
                          help="report format (default: text)")
    p_health.set_defaults(func=_cmd_health)

    p_fleet = sub.add_parser(
        "fleet", help="serve several traced hosts from one sharded "
                      "multi-tenant backend and print per-tenant health")
    p_fleet.add_argument("--tenants", type=_positive(int), default=3,
                         help="traced hosts to simulate (default: 3)")
    p_fleet.add_argument("--shards", type=_positive(int), default=2,
                         help="shards per tenant (default: 2)")
    p_fleet.add_argument("--quota", type=int, default=None,
                         help="per-tenant document quota "
                              "(default: unlimited)")
    p_fleet.add_argument("--seed", type=int, default=1,
                         help="first workload seed (default: 1)")
    p_fleet.add_argument("--json", action="store_true",
                         help="emit the fleet report as JSON")
    p_fleet.set_defaults(func=_cmd_fleet)

    p_dst = sub.add_parser(
        "dst", help="deterministic simulation testing: seeded "
                    "whole-pipeline fuzzing with crash/fault injection")
    dst_sub = p_dst.add_subparsers(dest="dst_command", required=True)

    p_dst_run = dst_sub.add_parser(
        "run", help="run a seed campaign through the full harness")
    p_dst_run.add_argument("--seeds", type=_positive(int), default=50,
                           help="number of seeds to run (default: 50)")
    p_dst_run.add_argument("--start", type=int, default=1,
                           help="first seed (default: 1)")
    p_dst_run.add_argument("--shrink", action="store_true",
                           help="minimise failing scenarios before "
                                "reporting them")
    p_dst_run.add_argument("--save-failures", metavar="DIR",
                           help="write failing scenarios (shrunk when "
                                "--shrink) and failure lists to DIR")
    p_dst_run.add_argument("--json", metavar="PATH",
                           help="write the campaign summary as JSON")
    p_dst_run.add_argument("--verbose", action="store_true",
                           help="print every seed, not just failures")
    p_dst_run.set_defaults(func=_cmd_dst_run)

    p_dst_repro = dst_sub.add_parser(
        "repro", help="replay one seed (or a saved scenario) and "
                      "report its failures")
    p_dst_repro.add_argument("seed", type=int, nargs="?", default=0,
                             help="seed to replay")
    p_dst_repro.add_argument("--scenario", metavar="PATH",
                             help="replay a saved scenario JSON instead "
                                  "of generating from the seed")
    p_dst_repro.add_argument("--shrink", action="store_true",
                             help="minimise the scenario if it fails")
    p_dst_repro.add_argument("--shrink-budget", type=int, default=64,
                             help="max harness runs while shrinking")
    if "dst" in (sys.argv[1:] if argv is None else argv):
        # The axis registry imports the whole pipeline; only a dst
        # command line pays for it.
        from repro.dst import AXES
        for axis in AXES:
            if axis.override_help:
                p_dst_repro.add_argument(
                    "--" + axis.field.replace("_", "-"),
                    type=type(axis.simplest),
                    choices=sorted(set(axis.values)),
                    help=f"override the scenario's {axis.field} axis "
                         f"({axis.override_help})")
    p_dst_repro.add_argument("--save", metavar="PATH",
                             help="write the shrunk scenario to PATH "
                                  "(with --shrink)")
    p_dst_repro.set_defaults(func=_cmd_dst_repro)

    p_dst_corpus = dst_sub.add_parser(
        "corpus", help="replay the checked-in regression corpus")
    p_dst_corpus.add_argument("--dir", default="tests/corpus",
                              help="corpus directory "
                                   "(default: tests/corpus)")
    p_dst_corpus.set_defaults(func=_cmd_dst_corpus)

    args = parser.parse_args(argv)
    if args.command == "dst" and args.dst_command == "repro" \
            and args.save and not args.shrink:
        p_dst_repro.error("--save writes the shrunk scenario: "
                          "it needs --shrink")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
