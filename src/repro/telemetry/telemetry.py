"""The per-pipeline telemetry bundle.

One :class:`Telemetry` object travels with one pipeline (typically one
:class:`~repro.tracer.tracer.DIOTracer`): it owns the metrics
registry, a span tracer bound to the pipeline's virtual clock, and the
health composer.  Components receive the registry through their
``bind_telemetry`` hooks; user-facing layers read back through
:meth:`health_report`, :meth:`to_prometheus`, and :meth:`to_json`.

Self-telemetry has no off switch: every pipeline binds every stage, so
a health report never reads an unbound family as zero.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.telemetry.export import to_json, to_prometheus
from repro.telemetry.health import HealthReport, PipelineHealth
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import SpanTracer


class Telemetry:
    """Registry + spans + health for one pipeline."""

    def __init__(self, clock: Optional[Callable[[], int]] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.clock = clock if clock is not None else (lambda: 0)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.spans = SpanTracer(self.clock, self.registry)
        self.health = PipelineHealth(self.registry)
        self.health.bind_derived_gauges()

    def span(self, name: str):
        """Context manager recording a named span."""
        return self.spans.span(name)

    def health_report(self) -> HealthReport:
        """Current :class:`~repro.telemetry.health.HealthReport`."""
        return self.health.snapshot()

    def to_prometheus(self) -> str:
        """Prometheus text exposition of the registry."""
        return to_prometheus(self.registry)

    def to_json(self, indent: int = 2) -> str:
        """JSON exposition of the registry."""
        return to_json(self.registry, indent=indent)

    def __repr__(self) -> str:
        return f"<Telemetry metrics={len(self.registry)}>"
