"""Generated metrics reference: the registry is the documentation.

``docs/METRICS.md`` is not hand-maintained — it is rendered from the
help text every component supplies when it registers its metric
families.  :func:`build_reference_registry` runs a tiny deterministic
pipeline that touches every subsystem (kernel filter, ring buffers,
hardened consumer, spill WAL, circuit breaker, fault injection, store,
correlator, spans, derived health gauges), so every ``dio_*`` family
ends up registered; :func:`metrics_reference_markdown` renders them.

Regenerate the document after adding or changing a metric::

    PYTHONPATH=src python -m repro.telemetry.reference

``tests/test_docs_metrics.py`` fails when the committed file drifts
from the registry, so a new metric without documentation (or stale
documentation for a removed one) cannot land silently.
"""

from __future__ import annotations

from repro.telemetry.registry import MetricsRegistry

#: Section ordering: (metric-name prefix, section heading, blurb).
_SECTIONS = (
    ("dio_filter_", "Kernel filter",
     "In-kernel scope filtering (paper §III-A): what the eBPF programs "
     "accept or reject before any record is materialised."),
    ("dio_ring_", "Per-CPU ring buffers",
     "The kernel→user-space handoff (§III-D): fixed-capacity per-CPU "
     "buffers whose discards the paper measures at 3.5% under load."),
    ("dio_consumer_", "Consumer",
     "The single user-space consumer process: batching, parsing, "
     "staging, backpressure, and backoff."),
    ("dio_shipper_", "Shipper",
     "Bulk requests from the consumer to the backend."),
    ("dio_ingest_", "Vectorized ingest",
     "The columnar bulk-ingest path: ring batches decoded straight "
     "into RecordBatch lanes and appended via ``bulk_columnar`` with "
     "lazily materialised ``_source`` dicts."),
    ("dio_breaker_", "Circuit breaker",
     "Protects a degraded backend from retry storms; state 0=closed, "
     "1=half-open, 2=open."),
    ("dio_spill_", "Spill WAL",
     "The dead-letter write-ahead log: batches that exhausted their "
     "retries, kept for replay on recovery."),
    ("dio_segment_", "Segment storage engine",
     "Local durable storage (``storage_dir``): acknowledged batches "
     "land in a write-ahead log and are sealed into immutable "
     "columnar segment files with zone maps and checksummed footers "
     "(byte layout in docs/STORAGE.md).  See ``dio segments``."),
    ("dio_faults_", "Fault injection",
     "Only present when the backend is wrapped in a "
     "``repro.faults.FaultyStore`` (tests, ``dio resilience``)."),
    ("dio_store_", "Document store",
     "The simulated Elasticsearch-like backend."),
    ("dio_shard_", "Scatter-gather shard router",
     "The sharded backend (``repro.backend.router``): deterministic "
     "key-based routing over N document-store shards, shard-by-shard "
     "scatter-gather reads, and partial-merge aggregation.  Present "
     "when the store is built with ``create_store(shard_count > 1)``."),
    ("dio_tenant_", "Tenancy",
     "Per-tenant isolation on top of the shard router "
     "(``repro.backend.tenancy``): disjoint shard sets, admission-"
     "controlled document quotas, and the per-tenant health rollup "
     "``dio fleet`` renders."),
    ("dio_correlator_", "Correlator",
     "Shutdown-time file-path correlation (§III-B): joining "
     "file-descriptor tags back to paths."),
    ("dio_sim_", "Simulation substrate",
     "The discrete-event engine underneath everything."),
    ("dio_span_", "Spans",
     "Pipeline span durations, labeled by span name (e.g. "
     "``consumer.batch``, ``shipper.bulk``, ``shipper.replay``)."),
    ("dio_health_", "Derived health gauges",
     "Computed from the families above by "
     ":class:`repro.telemetry.health.PipelineHealth`: the derived "
     "values a test reads as gauges.  ``dio health`` renders all of "
     "them, and more, from the same methods."),
)

_HEADER = """# DIO metrics reference

Every metric the pipeline registers, with the help text it was
registered with.  **Generated — do not edit by hand.**  Regenerate
with::

    PYTHONPATH=src python -m repro.telemetry.reference

`tests/test_docs_metrics.py` checks this file against the registry, so
it cannot drift.  See `docs/RELIABILITY.md` for how the resilience
metrics fit together and `ARCHITECTURE.md` for the pipeline they
instrument.
"""


def build_reference_registry() -> MetricsRegistry:
    """A registry with every ``dio_*`` family registered.

    Runs the smallest pipeline that instantiates every subsystem: a
    handful of writes traced through a fault-wrapped store, shut down
    cleanly so the correlator and derived health gauges bind too.
    Deterministic by construction (virtual clock, fixed seeds).
    """
    import tempfile

    from repro.backend import DocumentStore
    from repro.faults import FaultPlan, FaultyStore
    from repro.kernel import O_CREAT, O_WRONLY, Kernel
    from repro.sim import Environment
    from repro.tracer import DIOTracer, TracerConfig

    env = Environment()
    kernel = Kernel(env, ncpus=1)
    faulty = FaultyStore(DocumentStore(), FaultPlan(),
                         clock=lambda: env.now)
    with tempfile.TemporaryDirectory() as storage_dir:
        tracer = DIOTracer(env, kernel, faulty,
                           TracerConfig(session_name="reference",
                                        storage_dir=storage_dir))
        task = kernel.spawn_process("ref").threads[0]
        tracer.attach()

        def main():
            fd = yield from kernel.syscall(task, "open", path="/ref",
                                           flags=O_CREAT | O_WRONLY)
            yield from kernel.syscall(task, "write", fd=fd, data=b"x")
            yield from kernel.syscall(task, "close", fd=fd)
            yield from tracer.shutdown()

        env.run(until=env.process(main()))

    # The sharded router and the tenancy layer bind their families on
    # top (registration is idempotent, so the shared dio_store_*
    # names are simply reused).
    from repro.backend import ShardedDocumentStore, TenantBackend
    registry = tracer.telemetry.registry
    router = ShardedDocumentStore(shard_count=2)
    router.ensure_index("dio_trace")
    router.bind_telemetry(registry, clock=lambda: env.now)
    fleet = TenantBackend(shards_per_tenant=2)
    fleet.register("reference")
    fleet.bind_telemetry(registry)
    return registry


def metrics_reference_markdown(registry: MetricsRegistry) -> str:
    """Render the registry as the ``docs/METRICS.md`` document."""
    families = registry.collect()
    lines = [_HEADER]
    seen = set()
    sections = [(heading, blurb + "\n",
                 [f for f in families if f.name.startswith(prefix)])
                for prefix, heading, blurb in _SECTIONS]
    for _, _, group in sections:
        seen.update(f.name for f in group)
    sections.append(("Other", None,
                     [f for f in families if f.name not in seen]))
    for heading, blurb, group in sections:
        if not group:
            continue
        lines.append(f"\n## {heading}\n")
        if blurb is not None:
            lines.append(blurb)
        lines.append("| metric | type | labels | description |")
        lines.append("|---|---|---|---|")
        for family in group:
            labels = ", ".join(f"`{l}`" for l in family.labelnames) or "—"
            help_text = " ".join(family.help.split()) or "—"
            lines.append(f"| `{family.name}` | {family.kind} "
                         f"| {labels} | {help_text} |")
    return "\n".join(lines) + "\n"


def main() -> int:
    """Regenerate ``docs/METRICS.md`` next to the package source."""
    import pathlib

    docs = pathlib.Path(__file__).resolve().parents[3] / "docs"
    docs.mkdir(exist_ok=True)
    target = docs / "METRICS.md"
    target.write_text(
        metrics_reference_markdown(build_reference_registry()),
        encoding="utf-8")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
