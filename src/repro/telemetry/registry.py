"""The metrics registry: labeled counters, gauges, and histograms.

This is the heart of DIO's self-telemetry (the paper's own evaluation
depends on the tracer being able to account for itself: ring-buffer
discards, batching latency, shipping retries — §III-D, Table II).  The
model follows the Prometheus client data model closely enough that the
text exposition in :mod:`repro.telemetry.export` is valid Prometheus
format, but it is dependency-free and fully deterministic:

- metric *families* are registered once by name and may declare label
  names; ``family.labels(stage="shipper")`` returns (creating on first
  use) the child time series for that label combination;
- counters only go up; gauges move freely; both may instead be backed
  by a *callback* (``set_function``) so existing ad-hoc counters — e.g.
  :class:`repro.ebpf.ringbuf.RingBufferStats` — can be exposed with
  zero hot-path cost;
- histograms use fixed, cumulative ("le") bucket bounds and support
  p50/p95/p99 quantile *estimates* by linear interpolation inside the
  owning bucket, like a PromQL ``histogram_quantile``.

Registration is idempotent: asking for an already-registered family
with an identical signature returns the existing one, so several
components can share one registry without coordination.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Any, Callable, Optional, Sequence


class TelemetryError(Exception):
    """Misuse of the telemetry subsystem."""


_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bucket upper bounds, in nanoseconds.  The leading
#: 0 bucket makes zero-duration observations (synchronous work on the
#: virtual clock) quantile-exact instead of smearing into the first
#: positive bucket.
DEFAULT_BUCKETS = (0, 1_000, 10_000, 100_000, 1_000_000, 10_000_000,
                   100_000_000, 1_000_000_000, 10_000_000_000)

#: The quantiles health reports care about.
REPORT_QUANTILES = (0.50, 0.95, 0.99)


class Counter:
    """A monotonically increasing value (optionally callback-backed)."""

    kind = "counter"
    __slots__ = ("_value", "_fn")

    def __init__(self) -> None:
        self._value = 0
        self._fn: Optional[Callable[[], float]] = None

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (>= 0) to the counter."""
        if amount < 0:
            raise TelemetryError(f"counters only go up; got {amount!r}")
        if self._fn is not None:
            raise TelemetryError("cannot inc a callback-backed counter")
        self._value += amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Read the value through ``fn`` at collect time instead."""
        self._fn = fn

    @property
    def value(self) -> float:
        """Current value (live for callback-backed counters)."""
        return self._fn() if self._fn is not None else self._value


class Gauge:
    """A value that can go up and down, read through a callback."""

    kind = "gauge"
    __slots__ = ("_value", "_fn")

    def __init__(self) -> None:
        self._value = 0
        self._fn: Optional[Callable[[], float]] = None

    def set_function(self, fn: Callable[[], float]) -> None:
        """Read the value through ``fn`` at collect time instead."""
        self._fn = fn

    @property
    def value(self) -> float:
        """Current value (live for callback-backed gauges)."""
        return self._fn() if self._fn is not None else self._value


class Histogram:
    """Fixed-bucket distribution with quantile estimates."""

    kind = "histogram"
    __slots__ = ("buckets", "_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(buckets)
        if not bounds:
            raise TelemetryError("histogram needs at least one bucket")
        if list(bounds) != sorted(set(bounds)):
            raise TelemetryError(f"bucket bounds must strictly increase: {bounds}")
        self.buckets = bounds
        #: Per-bucket (non-cumulative) counts; last slot is +Inf overflow.
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        if value < 0:
            raise TelemetryError(f"negative observation {value!r}")
        self._counts[bisect_left(self.buckets, value)] += 1
        self._sum += value
        self._count += 1

    @property
    def count(self) -> int:
        """Total number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    def bucket_counts(self) -> list[int]:
        """Per-bucket (non-cumulative) counts, ending with +Inf."""
        return list(self._counts)

    def cumulative_counts(self) -> list[int]:
        """Cumulative counts per bucket bound, ending with +Inf."""
        out, running = [], 0
        for count in self._counts:
            running += count
            out.append(running)
        return out

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile (``None`` with no observations).

        Linear interpolation between the owning bucket's bounds, the
        way ``histogram_quantile`` estimates; values landing in the
        +Inf bucket clamp to the largest finite bound.
        """
        if not 0.0 <= q <= 1.0:
            raise TelemetryError(f"quantile must be in [0, 1]; got {q}")
        if self._count == 0:
            return None
        rank = q * self._count
        cumulative = 0
        for index, count in enumerate(self._counts):
            cumulative += count
            if cumulative >= rank and count:
                if index >= len(self.buckets):       # +Inf bucket
                    return float(self.buckets[-1])
                upper = self.buckets[index]
                lower = self.buckets[index - 1] if index else 0.0
                fraction = (rank - (cumulative - count)) / count
                return lower + (upper - lower) * fraction
        return float(self.buckets[-1])


class MetricFamily:
    """A named metric with a fixed label schema and many children."""

    def __init__(self, name: str, help: str, labelnames: Sequence[str],
                 child_factory: Callable[[], Any], kind: str):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.kind = kind
        self._child_factory = child_factory
        self._children: dict[tuple[str, ...], Any] = {}

    def labels(self, *values, **kwargs):
        """The child time series for one label-value combination.

        Accepts positional values in ``labelnames`` order or keyword
        values; children are created on first use and cached.
        """
        if values and kwargs:
            raise TelemetryError("pass label values positionally or by "
                                 "keyword, not both")
        if kwargs:
            if set(kwargs) != set(self.labelnames):
                raise TelemetryError(
                    f"{self.name}: expected labels {self.labelnames}, "
                    f"got {tuple(sorted(kwargs))}")
            values = tuple(kwargs[name] for name in self.labelnames)
        if len(values) != len(self.labelnames):
            raise TelemetryError(
                f"{self.name}: expected {len(self.labelnames)} label "
                f"value(s), got {len(values)}")
        key = tuple(str(value) for value in values)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._child_factory()
        return child

    def samples(self) -> list[tuple[dict[str, str], Any]]:
        """``(labels, child)`` pairs in deterministic (sorted) order."""
        return [(dict(zip(self.labelnames, key)), self._children[key])
                for key in sorted(self._children)]

    # ------------------------------------------------------------------
    # Unlabeled convenience: a family with no label names behaves like
    # its single child.

    def _solo(self):
        if self.labelnames:
            raise TelemetryError(
                f"{self.name} is labeled {self.labelnames}; use .labels()")
        return self.labels()

    def inc(self, amount: int | float = 1) -> None:
        """Increment the unlabeled child."""
        self._solo().inc(amount)

    def observe(self, value: float) -> None:
        """Observe into the unlabeled histogram child."""
        self._solo().observe(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Back the unlabeled child with a callback."""
        self._solo().set_function(fn)

    @property
    def value(self) -> float:
        """Value of the unlabeled child."""
        return self._solo().value


class MetricsRegistry:
    """All metric families of one pipeline, registered by name."""

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    # ------------------------------------------------------------------
    # Registration

    def _register(self, name: str, help: str, labelnames: Sequence[str],
                  child_factory: Callable[[], Any], kind: str,
                  signature: tuple) -> MetricFamily:
        if not _NAME_RE.match(name):
            raise TelemetryError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise TelemetryError(f"invalid label name {label!r}")
        existing = self._families.get(name)
        if existing is not None:
            if (existing.kind, existing.labelnames) != (kind, tuple(labelnames)):
                raise TelemetryError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}{existing.labelnames}")
            if getattr(existing, "_signature", None) != signature:
                raise TelemetryError(
                    f"metric {name!r} re-registered with a different "
                    "configuration")
            return existing
        family = MetricFamily(name, help, labelnames, child_factory, kind)
        family._signature = signature
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> MetricFamily:
        """Register (or fetch) a counter family."""
        return self._register(name, help, labelnames, Counter, "counter",
                              ("counter", tuple(labelnames)))

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> MetricFamily:
        """Register (or fetch) a gauge family."""
        return self._register(name, help, labelnames, Gauge, "gauge",
                              ("gauge", tuple(labelnames)))

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> MetricFamily:
        """Register (or fetch) a histogram family with fixed buckets."""
        bounds = tuple(buckets)
        return self._register(name, help, labelnames,
                              lambda: Histogram(bounds), "histogram",
                              ("histogram", tuple(labelnames), bounds))

    # ------------------------------------------------------------------
    # Read side

    def get(self, name: str) -> Optional[MetricFamily]:
        """The family registered under ``name``, if any."""
        return self._families.get(name)

    def collect(self) -> list[MetricFamily]:
        """All families, sorted by name (deterministic exposition)."""
        return [self._families[name] for name in sorted(self._families)]

    def value(self, name: str, labels: Optional[dict[str, str]] = None,
              default: float = 0) -> float:
        """Convenience scalar read for health/derived-gauge math.

        Returns ``default`` when the family or the label combination
        does not exist yet — a stage that never ran reads as zero.
        """
        family = self._families.get(name)
        if family is None:
            return default
        key = (tuple(str(labels[label]) for label in family.labelnames)
               if labels else ())
        child = family._children.get(key)
        if child is None:
            return default
        return child.value
