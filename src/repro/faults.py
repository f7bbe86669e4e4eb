"""Deterministic backend fault injection.

The tracer's user-space consumer is the single bridge between the
per-CPU ring buffers and the backend (paper §III-D).  To prove the
ingestion path degrades gracefully rather than silently corrupting
the diagnosis data, this module injects *scripted, reproducible*
backend failures:

- a :class:`FaultPlan` is a schedule of :class:`FaultWindow`\\ s on the
  simulation clock.  Plans are either written out explicitly (a list
  of windows) or generated from a seed (:meth:`FaultPlan.seeded`) —
  either way two runs with the same plan observe byte-identical
  failures;
- a :class:`FaultyStore` wraps any :class:`~repro.backend.store.
  DocumentStore` and makes its write APIs fail according to the plan.

Three fault kinds model the three ways a real Elasticsearch bulk
request goes wrong:

``error``
    The request is rejected immediately (connection refused, 5xx).
    No time is lost beyond the normal request cost.
``timeout``
    The request hangs for ``timeout_ns`` *and then* fails — the
    expensive failure mode, modelled by the raised
    :class:`InjectedFault` carrying a ``cost_ns`` the consumer must
    pay on the virtual clock before it may react.
``slowdown``
    The request *succeeds* but takes ``slowdown_factor`` times the
    nominal latency; the surplus is returned through
    :meth:`FaultyStore.consume_penalty_ns`.

Injection is fail-fast: a failing window raises *before* the inner
store is touched, so a failed bulk request never partially indexes —
which is what makes the shipper's retry/spill/replay loop exactly-once
(see ``docs/RELIABILITY.md`` for the failure model and its caveats).
"""

from __future__ import annotations

import dataclasses
import random
from bisect import bisect_right
from typing import Callable, Iterable, Optional, Sequence

#: Supported fault kinds.
FAULT_KINDS = ("error", "timeout", "slowdown")

#: Default hang duration of a ``timeout`` fault (virtual ns).
DEFAULT_TIMEOUT_NS = 50_000_000

#: Default latency multiplier of a ``slowdown`` fault.
DEFAULT_SLOWDOWN_FACTOR = 8.0


class FaultError(Exception):
    """Misuse of the fault-injection layer."""


class InjectedFault(ConnectionError):
    """A scripted backend failure.

    Subclasses :class:`ConnectionError` so existing retry paths treat
    it like any transient backend failure.  ``cost_ns`` is the virtual
    time the caller must burn before observing the failure (non-zero
    for ``timeout`` faults); the consumer honours it with a simulation
    timeout.
    """

    def __init__(self, kind: str, at_ns: int, cost_ns: int = 0):
        super().__init__(f"injected backend {kind} at t={at_ns}ns")
        self.kind = kind
        self.at_ns = at_ns
        self.cost_ns = cost_ns


@dataclasses.dataclass(frozen=True)
class FaultWindow:
    """One contiguous fault interval ``[start_ns, end_ns)``."""

    start_ns: int
    end_ns: int
    kind: str = "error"
    #: Hang duration charged per request for ``timeout`` faults.
    timeout_ns: int = DEFAULT_TIMEOUT_NS
    #: Latency multiplier for ``slowdown`` faults (> 1).
    slowdown_factor: float = DEFAULT_SLOWDOWN_FACTOR

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(f"unknown fault kind {self.kind!r}; "
                             f"pick from {FAULT_KINDS}")
        if self.start_ns < 0 or self.end_ns <= self.start_ns:
            raise FaultError(
                f"bad fault window [{self.start_ns}, {self.end_ns})")
        if self.timeout_ns < 0:
            raise FaultError(f"negative timeout_ns {self.timeout_ns}")
        if self.slowdown_factor <= 1.0:
            raise FaultError(
                f"slowdown_factor must exceed 1.0: {self.slowdown_factor}")

    @property
    def duration_ns(self) -> int:
        """Length of the window in virtual nanoseconds."""
        return self.end_ns - self.start_ns

    def active_at(self, now_ns: int) -> bool:
        """Whether ``now_ns`` falls inside the window."""
        return self.start_ns <= now_ns < self.end_ns

    def as_dict(self) -> dict:
        """Window fields as plain data (reports, JSON artifacts)."""
        data = {"start_ns": self.start_ns, "end_ns": self.end_ns,
                "kind": self.kind}
        if self.kind == "timeout":
            data["timeout_ns"] = self.timeout_ns
        if self.kind == "slowdown":
            data["slowdown_factor"] = self.slowdown_factor
        return data


class FaultPlan:
    """An ordered, non-overlapping schedule of fault windows."""

    def __init__(self, windows: Iterable[FaultWindow] = ()):
        ordered = sorted(windows, key=lambda w: w.start_ns)
        for earlier, later in zip(ordered, ordered[1:]):
            if later.start_ns < earlier.end_ns:
                raise FaultError(
                    f"overlapping fault windows: {earlier} and {later}")
        self.windows: tuple[FaultWindow, ...] = tuple(ordered)
        self._starts = [w.start_ns for w in self.windows]

    # ------------------------------------------------------------------
    # Constructors

    @classmethod
    def seeded(cls, seed: int, horizon_ns: int, outages: int = 3,
               mean_outage_ns: int = 100_000_000,
               kinds: Sequence[str] = FAULT_KINDS) -> "FaultPlan":
        """A reproducible random plan: same seed, same schedule.

        ``outages`` windows of roughly ``mean_outage_ns`` (0.5x–1.5x)
        are spread over ``[0, horizon_ns)`` without overlapping; kinds
        cycle through ``kinds`` shuffled by the seed.
        """
        if outages < 0:
            raise FaultError(f"negative outage count {outages}")
        rng = random.Random(seed)
        kind_cycle = list(kinds)
        rng.shuffle(kind_cycle)
        windows: list[FaultWindow] = []
        cursor = 0
        for index in range(outages):
            remaining = outages - index
            duration = max(1, int(mean_outage_ns * rng.uniform(0.5, 1.5)))
            # Leave room for the remaining outages to fit.
            slack = horizon_ns - cursor - remaining * duration
            if slack <= 0:
                break
            start = cursor + rng.randrange(max(1, slack // remaining))
            windows.append(FaultWindow(
                start, start + duration, kind_cycle[index % len(kind_cycle)]))
            cursor = start + duration
        return cls(windows)

    # ------------------------------------------------------------------
    # Queries

    def fault_at(self, now_ns: int) -> Optional[FaultWindow]:
        """The window covering ``now_ns``, if any."""
        index = bisect_right(self._starts, now_ns) - 1
        if index >= 0 and self.windows[index].active_at(now_ns):
            return self.windows[index]
        return None

    @property
    def total_outage_ns(self) -> int:
        """Sum of all window durations."""
        return sum(window.duration_ns for window in self.windows)

    def as_dict(self) -> dict:
        """Plan as plain data."""
        return {"windows": [window.as_dict() for window in self.windows],
                "total_outage_ns": self.total_outage_ns}


class FaultyStore:
    """A document store whose write path fails on schedule.

    Wraps (rather than subclasses) the inner store: every attribute it
    does not intercept delegates through ``__getattr__``, so the read
    path, the correlator, and telemetry bindings all reach the real
    store untouched.  Only ``bulk``/``bulk_columnar`` and
    ``update_docs`` consult the plan — the write APIs the ingestion
    path and correlator depend on — and the single-document
    ``index_doc`` is refused rather than passed through unchecked.
    """

    def __init__(self, inner, plan: FaultPlan,
                 clock: Callable[[], int],
                 protect: Sequence[str] = ("bulk",)):
        for name in protect:
            if not callable(getattr(inner, name, None)):
                raise FaultError(f"inner store has no method {name!r}")
        self.inner = inner
        self.plan = plan
        self.clock = clock
        self.protected = tuple(protect)
        #: Injected failures by kind.
        self.injected = {kind: 0 for kind in FAULT_KINDS}
        #: Slowdown surplus not yet claimed by the consumer.
        self._pending_penalty_ns = 0
        #: Total surplus ever injected.
        self.penalty_ns_total = 0

    # ------------------------------------------------------------------
    # Fault core

    def _check(self, nominal_ns: int = 0) -> None:
        """Raise or record a penalty if a window is active right now."""
        now = self.clock()
        window = self.plan.fault_at(now)
        if window is None:
            return
        if window.kind == "slowdown":
            self.injected["slowdown"] += 1
            surplus = int(nominal_ns * (window.slowdown_factor - 1.0))
            self._pending_penalty_ns += surplus
            self.penalty_ns_total += surplus
            return
        self.injected[window.kind] += 1
        cost = window.timeout_ns if window.kind == "timeout" else 0
        raise InjectedFault(window.kind, now, cost_ns=cost)

    def consume_penalty_ns(self) -> int:
        """Claim (and clear) the pending slowdown surplus.

        The consumer calls this after a successful bulk and burns the
        returned virtual nanoseconds, so slowdowns stretch shipping
        latency without breaking the store's synchronous API.
        """
        penalty, self._pending_penalty_ns = self._pending_penalty_ns, 0
        return penalty

    @property
    def faults_injected(self) -> int:
        """Total injected faults across kinds."""
        return sum(self.injected.values())

    def fault_active(self) -> bool:
        """Whether a fault window covers the current instant."""
        return self.plan.fault_at(self.clock()) is not None

    # ------------------------------------------------------------------
    # Intercepted write APIs

    def bulk(self, index: str, sources, nominal_ns: int = 0) -> int:
        """Bulk-index through the plan; fails before the inner store."""
        if "bulk" in self.protected:
            self._check(nominal_ns)
        return self.inner.bulk(index, sources)

    def bulk_columnar(self, index: str, batch, nominal_ns: int = 0) -> int:
        """Vectorized bulk through the plan (same gate as ``bulk``).

        Explicitly intercepted: ``__getattr__`` delegation would let
        RecordBatch bulks bypass the fault windows entirely, making
        the vectorized path untestable under faults.
        """
        if "bulk" in self.protected:
            self._check(nominal_ns)
        return self.inner.bulk_columnar(index, batch)

    def update_docs(self, index: str, doc_ids, fields: dict) -> int:
        """Targeted update through the plan."""
        if "update_docs" in self.protected:
            self._check()
        return self.inner.update_docs(index, doc_ids, fields)

    # ------------------------------------------------------------------
    # Telemetry

    def bind_telemetry(self, registry, clock=None) -> None:
        """Expose fault counters, then bind the inner store."""
        injected = registry.counter(
            "dio_faults_injected_total",
            "Backend faults injected by the active FaultPlan.",
            labelnames=("kind",))
        for kind in FAULT_KINDS:
            injected.labels(kind=kind).set_function(
                lambda kind=kind: self.injected[kind])
        registry.gauge(
            "dio_faults_window_active",
            "1 while the current instant falls inside a fault window.",
        ).set_function(lambda: int(self.fault_active()))
        self.inner.bind_telemetry(registry, clock=clock)

    def __getattr__(self, name: str):
        if name == "index_doc":
            # A write the plan does not gate: passed through, it would
            # index behind every fault window.
            raise AttributeError(f"{type(self).__name__} has no index_doc")
        return getattr(self.inner, name)
