"""Timing for the end-to-end benchmark: phases, spans, host speed.

Three things live here, all owned by the benchmark (nothing in
``src/`` is instrumented by this PR):

``Meter``
    times each phase call of a workload (``env.run``, ``save_session``,
    one dashboard request, …).  In a traced pass every phase is also a
    parent span on a :class:`repro.telemetry.spans.SpanTracer`.

``TimedStore``
    a proxy that delegates to the real store and records a child span
    around each request the pipeline sends it, so a phase's *self*
    time (its span minus what its children cover) separates, say,
    ``diagnose_session``'s own work from the store time under it.

``HostSpeed``
    The sandboxes this runs in are shared: their speed drifts by
    10–40 % over tens of seconds, for CPU-bound and memory-bound loops
    alike, so plain wall-clock of identical runs spreads 7–25 % between
    quartiles (``results/spread-plain-wall-clock.txt``, this harness
    with the normalisation taken out) and medians over one run's passes
    do not help: the drift outlasts the run.  The drift hits all
    interpreter-bound work alike, so the *ratio* of a pipeline phase to
    a fixed reference loop timed right beside it repeats within 2–6 %
    (``results/spread-ten-seeds.txt``, where the plain wall-clock of
    the same runs spreads 5–18 %).  A ``SIGALRM`` timer therefore runs
    the reference loop every ``SAMPLE_EVERY_S`` — between two
    bytecodes of whatever the pipeline is doing — and every phase is
    reported as

        seconds * NOMINAL_LOOP_S / (median reference-loop seconds during it)

    i.e. in seconds of a host on which the reference loop takes
    ``NOMINAL_LOOP_S``.  Time spent in the reference loop is taken out
    of the workload's clock, and raw wall-clock is reported beside the
    normalised figure (``harness.raw_wall_s``, ``harness.host_speed``).
"""

from __future__ import annotations

import signal
import time
from contextlib import nullcontext
from statistics import median
from typing import NamedTuple

from repro.telemetry.spans import SpanTracer

#: What the reference loop takes on the host the first baseline was
#: recorded on, when that host is calm.
NOMINAL_LOOP_S = 0.010
#: Timer period of the host-speed samples.
SAMPLE_EVERY_S = 0.2
#: A phase uses the samples from this long before it started.
LOOKBACK_NS = 300_000_000


class Node:
    """One object of the reference loop's heap."""

    __slots__ = ("left", "right", "value")

    def __init__(self, value: int) -> None:
        self.left = self.right = self
        self.value = value

    def weight(self) -> int:
        return self.value * 3 + 1


def reference_heap(size: int = 40_000) -> list[Node]:
    """~4 MB of objects, linked so that a walk hops all over them."""
    nodes = [Node(i) for i in range(size)]
    for i, node in enumerate(nodes):
        node.left = nodes[(i * 7919 + 13) % size]
        node.right = nodes[(i * 104729 + 7) % size]
    return nodes


def reference_loop(nodes: list[Node]) -> int:
    """Fixed work shaped like the pipeline's own.

    Pointer chasing over a heap larger than the L2 cache, method calls,
    tuple allocation and dict stores — what a Python pipeline spends
    its time on — so that it slows down when the pipeline does.  A
    tight arithmetic loop does not: measured against ten identical
    runs of three workloads it left a 5–13 % quartile spread where
    this loop leaves 3–5 %.
    """
    node = nodes[0]
    seen = {}
    total = 0
    for i in range(31_000):
        node = node.left if i & 1 else node.right
        total += node.weight()
        seen[node.value & 2047] = (i, total)
    return total


class HostSpeed:
    """Samples the reference loop on a timer; owns the workload clock."""

    def __init__(self) -> None:
        #: ``(workload clock ns, reference-loop seconds)`` per sample.
        self.samples: list[tuple[int, float]] = []
        self.sampling_ns = 0
        self.sampling = False
        self.previous_handler = None
        self.heap = reference_heap()

    def clock_ns(self) -> int:
        """Wall-clock that stands still while the reference loop runs."""
        return time.perf_counter_ns() - self.sampling_ns

    def sample(self, *signal_args) -> None:
        # This thread's CPU time, not wall: when the sharded store's
        # worker threads hold the interpreter lock the handler waits
        # for it, and that wait is neither reference-loop time nor time
        # the workload lost.  (Host slowdowns are invisible to the
        # guest's CPU clock, so they still show.)
        if self.sampling:
            return                      # the timer fired inside a sample
        self.sampling = True
        now = time.perf_counter_ns()
        start = time.thread_time_ns()
        reference_loop(self.heap)
        spent = time.thread_time_ns() - start
        self.samples.append((now - self.sampling_ns, spent / 1e9))
        self.sampling_ns += spent
        self.sampling = False

    def __enter__(self) -> "HostSpeed":
        self.previous_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.sample()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous_handler)

    def loop_seconds(self, start_ns: int, first: int) -> float:
        """Median reference-loop time around a phase.

        ``first`` is the sample count when the phase began: every
        sample since, plus those from just before it.  A phase that
        saw none (shorter than the timer period) takes one now.
        """
        if len(self.samples) == first and (
                not self.samples
                or self.clock_ns() - self.samples[-1][0] > LOOKBACK_NS):
            self.sample()
        earliest = start_ns - LOOKBACK_NS
        while first > 0 and self.samples[first - 1][0] >= earliest:
            first -= 1
        window = self.samples[first:] or self.samples[-1:]
        return median(loop_s for _, loop_s in window)


def span_recorder(host: HostSpeed) -> SpanTracer:
    """The traced pass's recorder, on the workload clock."""
    return SpanTracer(clock=host.clock_ns, max_finished=10_000_000)


class PhaseRecord:
    """One timed phase call: raw seconds and the host-speed factor."""

    __slots__ = ("name", "raw_s", "factor")

    def __init__(self, name: str) -> None:
        self.name = name
        self.raw_s = 0.0
        self.factor = 1.0

    @property
    def seconds(self) -> float:
        """Host-speed-normalised duration."""
        return self.raw_s * self.factor


class _Phase:
    """Context manager behind :meth:`Meter.phase`."""

    __slots__ = ("meter", "record", "first_sample", "span", "start")

    def __init__(self, meter: "Meter", name: str) -> None:
        self.meter = meter
        self.record = PhaseRecord(name)

    def __enter__(self) -> PhaseRecord:
        meter = self.meter
        self.span = (meter.recorder.span(self.record.name)
                     if meter.recorder is not None else None)
        if self.span is not None:
            self.span.__enter__()
        self.first_sample = len(meter.host.samples)
        self.start = meter.host.clock_ns()
        return self.record

    def __exit__(self, exc_type, exc, tb) -> None:
        host = self.meter.host
        end = host.clock_ns()
        if self.span is not None:
            self.span.__exit__(exc_type, exc, tb)
        record = self.record
        record.raw_s = (end - self.start) / 1e9
        record.factor = NOMINAL_LOOP_S / host.loop_seconds(
            self.start, self.first_sample)
        self.meter.calls.append(record)


class Meter:
    """Times the phases of one pass over a workload."""

    def __init__(self, host: HostSpeed,
                 recorder: SpanTracer | None = None) -> None:
        self.host = host
        self.recorder = recorder
        self.calls: list[PhaseRecord] = []
        self.first_sample = len(host.samples)
        self.started = host.clock_ns()

    def phase(self, name: str) -> _Phase:
        """``with meter.phase("segments.save") as record: ...``"""
        return _Phase(self, name)

    def seconds(self, prefix: str = "") -> float:
        """Normalised seconds in phases whose name starts with ``prefix``."""
        return sum(call.seconds for call in self.calls
                   if call.name.startswith(prefix))

    def raw_wall_s(self) -> float:
        """Wall-clock since the meter was made, glue between phases
        included, reference-loop time taken out."""
        return (self.host.clock_ns() - self.started) / 1e9

    def finish(self) -> "PassTiming":
        """Close the pass: whole-pass wall, raw and normalised."""
        elapsed = self.raw_wall_s()
        in_phases = sum(call.raw_s for call in self.calls)
        # Harness glue between phases is scaled like the phases around it.
        scale = self.seconds() / in_phases if in_phases else 1.0
        return PassTiming(
            raw_wall_s=elapsed, wall_s=elapsed * scale,
            host_speed=NOMINAL_LOOP_S / self.host.loop_seconds(
                self.started, self.first_sample))


class PassTiming(NamedTuple):
    """Whole-pass totals from :meth:`Meter.finish`."""

    raw_wall_s: float
    wall_s: float
    #: > 1: this host ran faster than the nominal one.
    host_speed: float


class Untimed:
    """Stands in for a :class:`Meter` where nothing is measured (the
    checker re-issuing a request)."""

    @staticmethod
    def phase(name: str):
        return nullcontext()


def timed(host: HostSpeed, work, pieces) -> float:
    """Normalised seconds of ``work(piece)`` over ``pieces``, each call a
    phase of its own, outside any pass — for the twins that time one
    function directly."""
    meter = Meter(host)
    for piece in pieces:
        with meter.phase("twin"):
            work(piece)
    return meter.seconds()


# ----------------------------------------------------------------------
# Store proxy

#: Store requests that get a span.  ``stream`` is consumed inside its
#: span (callers only iterate it once), so lazy iteration cannot leak
#: store time into the caller's self time.
SPANNED_REQUESTS = ("bulk", "bulk_columnar", "search", "count", "scan",
                    "stream", "update_by_query", "update_docs")


class TimedStore:
    """Delegates to ``inner``; spans around the requests that matter."""

    def __init__(self, inner, recorder: SpanTracer) -> None:
        self.inner = inner
        self.recorder = recorder

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


def _spanned(method: str):
    span_name = "store." + method

    def call(self, *args, **kwargs):
        with self.recorder.span(span_name):
            result = getattr(self.inner, method)(*args, **kwargs)
            if method == "stream":
                result = iter(list(result))
        return result

    call.__name__ = method
    return call


for _method in SPANNED_REQUESTS:
    setattr(TimedStore, _method, _spanned(_method))


# ----------------------------------------------------------------------
# Self time

class SpanTime(NamedTuple):
    """One finished span in normalised seconds."""

    phase: str                          # the depth-0 span it ran under
    name: str
    total_s: float
    self_s: float                       # total minus what children cover


def span_times(recorder: SpanTracer,
               calls: list[PhaseRecord]) -> list[SpanTime]:
    """Every finished span with its self time, in completion order.

    ``recorder.finished`` is in completion order, so a span's children
    all precede it; one pass with a per-depth accumulator yields self
    time.  Each depth-0 span is one :class:`PhaseRecord` (same order),
    whose host-speed factor applies to everything beneath it.
    """
    out: list[SpanTime] = []
    covered: dict[int, int] = {}        # depth -> ns covered by children
    pending: list[tuple[str, int, int]] = []
    phases = iter(calls)
    for span in recorder.finished:
        duration = span.duration_ns
        own = duration - covered.pop(span.depth + 1, 0)
        covered[span.depth] = covered.get(span.depth, 0) + duration
        pending.append((span.name, duration, own))
        if span.depth == 0:
            covered.clear()
            factor = next(phases).factor / 1e9
            out.extend(SpanTime(span.name, name, total_ns * factor,
                                self_ns * factor)
                       for name, total_ns, self_ns in pending)
            pending.clear()
    return out
