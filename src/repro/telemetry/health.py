"""Pipeline health: one snapshot over every instrumented stage.

The paper monitors its Elasticsearch backend with a Kibana dashboard;
this module is the equivalent for our whole pipeline.  It composes the
per-stage metric families (kernel filter → ring buffer → consumer →
bulk shipper → store → correlator, plus the simulation substrate) into
a single :class:`HealthReport`:

- per-stage counters, read live from the registry;
- per-stage latency quantiles (p50/p95/p99) from the span histogram;
- *derived gauges* — drop ratio, consumer lag, retry rate, unresolved
  ratio — computed from the underlying counters and also registered as
  callback gauges (``dio_health_*``) so exporters expose them;
- the *conservation identity* — ``produced = stored + Σ named
  losses``, one term per site where an event can stop short of the
  store (:class:`Conservation`).

Everything reads through the registry by metric name, so the health
layer needs no references into the components themselves.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.telemetry.registry import MetricsRegistry, REPORT_QUANTILES
from repro.telemetry.spans import SPAN_HISTOGRAM

#: Pipeline stages in data-flow order.
STAGES = ("kernel_filter", "ring_buffer", "consumer", "shipper", "store",
          "correlator", "sim")

#: stage -> ((short counter label, metric name), ...).  Short labels
#: keep rendered reports readable; metric names are the registry truth.
STAGE_COUNTERS: dict[str, tuple[tuple[str, str], ...]] = {
    "kernel_filter": (
        ("accepted", "dio_filter_accepted_total"),
        ("rejected", "dio_filter_rejected_total"),
    ),
    "ring_buffer": (
        ("produced", "dio_ring_produced_total"),
        ("dropped", "dio_ring_dropped_total"),
        ("consumed", "dio_ring_consumed_total"),
        ("bytes", "dio_ring_bytes_produced_total"),
    ),
    "consumer": (
        ("batches", "dio_consumer_batches_total"),
        ("parsed", "dio_consumer_events_parsed_total"),
    ),
    "shipper": (
        ("shipped", "dio_shipper_events_total"),
        ("retries", "dio_shipper_retries_total"),
        ("attempts", "dio_consumer_bulk_attempts_total"),
        ("spilled", "dio_spill_records_total"),
        ("replayed", "dio_spill_replayed_records_total"),
    ),
    "store": (
        ("bulk_requests", "dio_store_bulk_requests_total"),
        ("docs_indexed", "dio_store_documents_indexed_total"),
        ("queries", "dio_store_queries_total"),
        ("agg_pushdown", "dio_store_agg_pushdown_total"),
        ("agg_fallback", "dio_store_agg_fallback_total"),
        ("agg_cache_hits", "dio_store_agg_cache_hits_total"),
    ),
    "correlator": (
        ("tags_resolved", "dio_correlator_tags_resolved_total"),
        ("docs_updated", "dio_correlator_documents_updated_total"),
        ("unresolved", "dio_correlator_documents_unresolved_total"),
    ),
    "sim": (
        ("events", "dio_sim_events_processed_total"),
        ("queue_depth", "dio_sim_queue_depth"),
    ),
}

#: stage -> span name whose duration histogram gives stage latency.
STAGE_SPANS: dict[str, str] = {
    "consumer": "consumer.parse",
    "shipper": "shipper.bulk",
    "store": "store.bulk",
    "correlator": "correlator.correlate",
}


#: The conservation identity: every event the kernel filters accept is
#: offered to the ring, and ends in the store or at exactly one of the
#: loss sites — ``(label, metric)`` each.  Under ``overwrite-oldest`` an
#: evicted record counts once, as dropped (it was produced, then
#: overwritten), so the identity holds under every ring policy.
PRODUCED = ("produced", "dio_filter_accepted_total")
STORED = ("stored", "dio_shipper_events_total")
LOSSES = (
    ("ring_dropped", "dio_ring_dropped_total"),        # overflow policy
    ("ring_pending", "dio_ring_pending_records"),      # never drained
    ("shed", "dio_consumer_shed_total"),               # backpressure
    ("staged", "dio_consumer_staged_records"),         # parsed, unshipped
    ("spill_pending", "dio_spill_pending_records"),    # not yet replayed
    ("crash_lost", "dio_consumer_crash_lost_total"),   # consumer crash
)


class Conservation(NamedTuple):
    """``produced = stored + Σ losses``, read off the registry."""

    produced: int
    stored: int
    losses: dict[str, int]

    @classmethod
    def read(cls, registry: MetricsRegistry) -> "Conservation":
        """The identity's terms as the registry holds them now."""
        return cls(int(registry.value(PRODUCED[1])),
                   int(registry.value(STORED[1])),
                   {label: int(registry.value(metric))
                    for label, metric in LOSSES})

    @property
    def unaccounted(self) -> int:
        """Produced events no term accounts for (negative: over-counted)."""
        return self.produced - self.stored - sum(self.losses.values())

    @property
    def holds(self) -> bool:
        """Whether the terms add up."""
        return self.unaccounted == 0

    def line(self) -> str:
        """The identity as one line, with its verdict."""
        terms = " + ".join(f"{label} {count}" for label, count in (
            (STORED[0], self.stored), *self.losses.items()))
        verdict = ("holds" if self.holds
                   else f"DOES NOT HOLD: off by {self.unaccounted}")
        return f"conservation: produced {self.produced} = {terms} ({verdict})"

    def as_dict(self) -> dict:
        """The terms, the verdict and the line as plain data."""
        return {"produced": self.produced, "stored": self.stored,
                "losses": dict(self.losses), "holds": self.holds,
                "line": self.line()}


class StageHealth(NamedTuple):
    """Health of one pipeline stage."""

    name: str
    counters: dict[str, float]
    #: p50/p95/p99 of the stage's span duration (ns), or ``None`` when
    #: the stage has no recorded spans.
    latency_ns: Optional[dict[str, float]]

    def as_dict(self) -> dict:
        """Stage health as plain data."""
        return {"name": self.name, "counters": dict(self.counters),
                "latency_ns": dict(self.latency_ns) if self.latency_ns else None}


class HealthReport(NamedTuple):
    """One point-in-time health snapshot of the whole pipeline."""

    stages: tuple[StageHealth, ...]
    derived: dict[str, float]
    conservation: Conservation

    def as_dict(self) -> dict:
        """Report as plain data (what ``dio health --format json`` prints)."""
        return {"stages": [stage.as_dict() for stage in self.stages],
                "derived": dict(self.derived),
                "conservation": self.conservation.as_dict()}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class PipelineHealth:
    """Computes health snapshots and registers derived gauges."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry

    # ------------------------------------------------------------------
    # Derived gauges

    def drop_ratio(self) -> float:
        """Ring-buffer discards / offered records (§III-D's 3.5%)."""
        dropped = self.registry.value("dio_ring_dropped_total")
        produced = self.registry.value("dio_ring_produced_total")
        return _ratio(dropped, produced + dropped)

    def consumer_lag(self) -> float:
        """Records sitting in the ring buffers, not yet consumed."""
        return self.registry.value("dio_ring_pending_records")

    def retry_rate(self) -> float:
        """Failed bulk requests per *attempted* bulk request.

        The denominator is attempts, not successful batches: under
        adaptive batch shrinking the two diverge, and dividing by
        batches understated retry pressure.
        """
        return _ratio(self.registry.value("dio_shipper_retries_total"),
                      self.registry.value("dio_consumer_bulk_attempts_total"))

    def spill_backlog(self) -> float:
        """Records in the dead-letter WAL awaiting replay."""
        return self.registry.value("dio_spill_pending_records")

    def breaker_state(self) -> float:
        """Shipping circuit breaker: 0=closed, 1=half-open, 2=open."""
        return self.registry.value("dio_breaker_state")

    def unresolved_ratio(self) -> float:
        """Correlator's fraction of tagged events without a path."""
        return _ratio(
            self.registry.value("dio_correlator_documents_unresolved_total"),
            self.registry.value("dio_correlator_documents_tagged_total"))

    def agg_cache_hit_rate(self) -> float:
        """Aggregation cache hits per lookup (dashboard refresh reuse)."""
        hits = self.registry.value("dio_store_agg_cache_hits_total")
        misses = self.registry.value("dio_store_agg_cache_misses_total")
        return _ratio(hits, hits + misses)

    def agg_pushdown_ratio(self) -> float:
        """Aggregation requests served by the columnar kernels."""
        pushed = self.registry.value("dio_store_agg_pushdown_total")
        fallback = self.registry.value("dio_store_agg_fallback_total")
        return _ratio(pushed, pushed + fallback)

    #: The derived values a health report carries, in report order.
    DERIVED = ("drop_ratio", "consumer_lag", "retry_rate",
               "unresolved_ratio", "spill_backlog", "breaker_state",
               "agg_cache_hit_rate", "agg_pushdown_ratio")

    #: The derived values also exported as callback gauges:
    #: gauge name -> method name.
    GAUGES = {
        "dio_health_drop_ratio": "drop_ratio",
        "dio_health_consumer_lag_records": "consumer_lag",
        "dio_health_retry_rate": "retry_rate",
        "dio_health_unresolved_ratio": "unresolved_ratio",
    }

    def bind_derived_gauges(self) -> None:
        """Expose :data:`GAUGES` as ``dio_health_*`` callbacks."""
        for name, method in self.GAUGES.items():
            self.registry.gauge(
                name, f"Derived pipeline health gauge ({method}).",
            ).set_function(getattr(self, method))

    # ------------------------------------------------------------------
    # Snapshot

    def _stage_latency(self, stage: str) -> Optional[dict[str, float]]:
        span_name = STAGE_SPANS.get(stage)
        if span_name is None:
            return None
        family = self.registry.get(SPAN_HISTOGRAM)
        if family is None:
            return None
        child = family._children.get((span_name,))
        if child is None or child.count == 0:
            return None
        return {f"p{int(q * 100)}": child.quantile(q)
                for q in REPORT_QUANTILES}

    def snapshot(self) -> HealthReport:
        """Compose the current registry state into a health report."""
        stages = tuple(
            StageHealth(
                name=stage,
                counters={label: self.registry.value(metric)
                          for label, metric in STAGE_COUNTERS[stage]},
                latency_ns=self._stage_latency(stage),
            )
            for stage in STAGES)
        derived = {method: getattr(self, method)()
                   for method in self.DERIVED}
        return HealthReport(stages=stages, derived=derived,
                            conservation=Conservation.read(self.registry))
