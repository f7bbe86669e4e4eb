"""Span-based tracing of the pipeline's own stages.

A *span* is a named interval on the simulation's virtual clock::

    with telemetry.span("shipper.bulk"):
        ...        # simulated time may pass here (timeouts, retries)

Because the clock is the deterministic :class:`~repro.sim.Environment`
clock, span durations are exact virtual nanoseconds and identical
across runs — the observability pipeline observes itself without
perturbing what it measures (the property uringscope argues for).

Spans nest: entering a span while another is open records the parent
name and depth, so a trace reads like a call tree.  Durations also
feed the ``dio_span_duration_ns`` histogram family (one child per span
name), which is where health reports get their per-stage p50/p95/p99.

Inside generator-based simulation processes the ``with`` block may
suspend on ``yield``; the span simply spans the virtual time that
passed, which is exactly the stage latency we want.  The span stack is
per :class:`SpanTracer`, so give concurrent processes their own tracer
if parentage must stay exact.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.telemetry.registry import MetricsRegistry

#: Completed spans kept for inspection; older spans beyond this are
#: dropped (and counted) so unbounded runs cannot hoard memory.
MAX_FINISHED_SPANS = 10_000

#: Histogram family span durations are recorded into.
SPAN_HISTOGRAM = "dio_span_duration_ns"


class Span:
    """One finished named interval."""

    __slots__ = ("name", "start_ns", "end_ns", "depth", "parent")

    def __init__(self, name: str, start_ns: int, end_ns: int,
                 depth: int, parent: Optional[str]):
        self.name = name
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.depth = depth
        self.parent = parent

    @property
    def duration_ns(self) -> int:
        """Virtual nanoseconds the span covered."""
        return self.end_ns - self.start_ns

    def as_dict(self) -> dict:
        """Span fields as a plain dict."""
        return {
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns,
            "depth": self.depth,
            "parent": self.parent,
        }

    def __repr__(self) -> str:
        return (f"<Span {self.name!r} [{self.start_ns}..{self.end_ns}] "
                f"depth={self.depth}>")


class _ActiveSpan:
    """Context manager for one span activation."""

    __slots__ = ("_tracer", "_name", "_start", "_parent", "_depth")

    def __init__(self, tracer: "SpanTracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_ActiveSpan":
        stack = self._tracer._stack
        self._start = self._tracer._clock()
        self._parent = stack[-1] if stack else None
        self._depth = len(stack)
        stack.append(self._name)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._stack.pop()
        self._tracer._finish(Span(self._name, self._start,
                                  self._tracer._clock(),
                                  self._depth, self._parent))


class SpanTracer:
    """Records spans against a clock into a registry histogram."""

    def __init__(self, clock: Callable[[], int],
                 registry: Optional[MetricsRegistry] = None,
                 max_finished: int = MAX_FINISHED_SPANS):
        self._clock = clock
        self._stack: list[str] = []
        self.finished: list[Span] = []
        self.dropped = 0
        self._max_finished = max_finished
        self._histogram = (registry.histogram(
            SPAN_HISTOGRAM, "Duration of pipeline stage spans "
            "(virtual nanoseconds).", labelnames=("span",))
            if registry is not None else None)

    def span(self, name: str):
        """Context manager recording one ``name`` span."""
        return _ActiveSpan(self, name)

    def _finish(self, span: Span) -> None:
        if len(self.finished) < self._max_finished:
            self.finished.append(span)
        else:
            self.dropped += 1
        if self._histogram is not None:
            self._histogram.labels(span=span.name).observe(span.duration_ns)

    # ------------------------------------------------------------------
    # Read side

    def spans_named(self, name: str) -> list[Span]:
        """All finished spans called ``name``, in completion order."""
        return [span for span in self.finished if span.name == name]

    def quantile(self, name: str, q: float) -> Optional[float]:
        """Histogram-estimated duration quantile for one span name."""
        if self._histogram is None:
            return None
        child = self._histogram._children.get((name,))
        return child.quantile(q) if child is not None else None

    def __repr__(self) -> str:
        return (f"<SpanTracer finished={len(self.finished)} "
                f"open={len(self._stack)}>")
