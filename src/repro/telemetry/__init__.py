"""DIO's self-telemetry: the pipeline observing itself.

A dependency-free instrumentation subsystem (paper §IV motivation: the
evaluation hinges on the tracer accounting for its own discards,
batching, and retries):

- :class:`~repro.telemetry.registry.MetricsRegistry` — labeled
  counters, gauges, and fixed-bucket histograms with p50/p95/p99
  quantile estimates;
- :class:`~repro.telemetry.spans.SpanTracer` /
  :meth:`~repro.telemetry.telemetry.Telemetry.span` — span-based
  tracing of pipeline stages in *simulated* nanoseconds, so traces are
  deterministic;
- :class:`~repro.telemetry.health.PipelineHealth` — per-stage health
  snapshots with derived drop-ratio / consumer-lag / retry-rate gauges;
- :mod:`~repro.telemetry.export` — Prometheus text and JSON exporters
  over the same registry state.

Components join in through ``bind_telemetry(registry)`` hooks (see
``Environment``, ``PerCPURingBuffer``, ``KernelFilter``,
``DocumentStore``, ``FilePathCorrelator``); ``DIOTracer`` wires the
whole pipeline and keeps ``TracerStats`` as a compatibility facade.
"""

from repro.telemetry.registry import (Counter, DEFAULT_BUCKETS, Gauge,
                                      Histogram, MetricFamily,
                                      MetricsRegistry, REPORT_QUANTILES,
                                      TelemetryError)
from repro.telemetry.spans import (MAX_FINISHED_SPANS, SPAN_HISTOGRAM, Span,
                                   SpanTracer)
from repro.telemetry.health import (HealthReport, PipelineHealth,
                                    STAGE_COUNTERS, STAGE_SPANS, STAGES,
                                    StageHealth)
from repro.telemetry.export import registry_as_dict, to_json, to_prometheus
from repro.telemetry.telemetry import Telemetry

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "HealthReport",
    "MAX_FINISHED_SPANS",
    "MetricFamily",
    "MetricsRegistry",
    "PipelineHealth",
    "REPORT_QUANTILES",
    "SPAN_HISTOGRAM",
    "STAGES",
    "STAGE_COUNTERS",
    "STAGE_SPANS",
    "Span",
    "SpanTracer",
    "StageHealth",
    "Telemetry",
    "TelemetryError",
    "registry_as_dict",
    "to_json",
    "to_prometheus",
]
