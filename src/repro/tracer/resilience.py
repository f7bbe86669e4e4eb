"""Resilience primitives for the shipping path.

Three small, deterministic state machines harden the consumer→backend
hop (the reliability-critical component of any tracing pipeline —
PAPERS.md: Recorder, uringscope):

- :class:`DecorrelatedJitterBackoff` — exponential backoff with
  decorrelated jitter on the *simulated* clock.  Jitter comes from a
  seeded :class:`random.Random`, so two runs with the same seed back
  off identically; the point of jitter here is modelling fidelity
  (desynchronised retries), not entropy.
- :class:`CircuitBreaker` — trips OPEN after a run of consecutive
  failures so a dead backend is probed once per recovery window
  instead of hammered on every batch.
- :class:`AdaptiveBatcher` — halves the bulk batch size on failure
  (smaller requests are likelier to squeeze through a degraded
  backend) and doubles it back on success up to the configured
  maximum.

``docs/RELIABILITY.md`` documents how the consumer composes them.
"""

from __future__ import annotations

import random

#: Circuit-breaker states, in escalation order.
BREAKER_CLOSED = "closed"
BREAKER_HALF_OPEN = "half-open"
BREAKER_OPEN = "open"

#: State -> numeric code exported by the ``dio_breaker_state`` gauge.
BREAKER_STATE_CODES = {BREAKER_CLOSED: 0, BREAKER_HALF_OPEN: 1,
                       BREAKER_OPEN: 2}


class DecorrelatedJitterBackoff:
    """Decorrelated-jitter delays: ``min(cap, U(base, 3 * prev))``."""

    def __init__(self, base_ns: int, cap_ns: int, seed: int = 0):
        if base_ns <= 0:
            raise ValueError(f"backoff base must be positive: {base_ns}")
        if cap_ns < base_ns:
            raise ValueError(
                f"backoff cap {cap_ns} below base {base_ns}")
        self.base_ns = base_ns
        self.cap_ns = cap_ns
        self._rng = random.Random(seed)
        self._prev_ns = base_ns
        #: Backoff waits handed out since construction.
        self.waits = 0
        #: Total virtual nanoseconds of backoff handed out.
        self.waited_ns_total = 0

    def next_delay_ns(self) -> int:
        """The next delay; each call escalates until :meth:`reset`."""
        delay = int(self._rng.uniform(self.base_ns, self._prev_ns * 3))
        delay = max(self.base_ns, min(self.cap_ns, delay))
        self._prev_ns = delay
        self.waits += 1
        self.waited_ns_total += delay
        return delay

    def reset(self) -> None:
        """Back to the base delay (call after a success)."""
        self._prev_ns = self.base_ns


class CircuitBreaker:
    """Consecutive-failure breaker with timed half-open probes."""

    def __init__(self, failure_threshold: int, recovery_ns: int):
        if failure_threshold < 1:
            raise ValueError(
                f"failure threshold must be >= 1: {failure_threshold}")
        if recovery_ns < 0:
            raise ValueError(f"negative recovery_ns {recovery_ns}")
        self.failure_threshold = failure_threshold
        self.recovery_ns = recovery_ns
        self.state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at_ns = 0
        #: Transition counters (exported as ``dio_breaker_*_total``).
        self.opened_total = 0
        self.half_open_total = 0
        self.closed_total = 0

    @property
    def state_code(self) -> int:
        """Numeric state for the ``dio_breaker_state`` gauge."""
        return BREAKER_STATE_CODES[self.state]

    def retry_at_ns(self) -> int:
        """When an OPEN breaker will next admit a probe."""
        return self._opened_at_ns + self.recovery_ns

    def allows(self, now_ns: int) -> bool:
        """Whether a request may be attempted at ``now_ns``.

        An OPEN breaker transitions to HALF_OPEN (and admits one
        probe) once the recovery window has elapsed.
        """
        if self.state == BREAKER_OPEN:
            if now_ns >= self.retry_at_ns():
                self.state = BREAKER_HALF_OPEN
                self.half_open_total += 1
                return True
            return False
        return True

    def record_success(self) -> None:
        """A request succeeded: close and clear the failure run."""
        if self.state != BREAKER_CLOSED:
            self.closed_total += 1
        self.state = BREAKER_CLOSED
        self._consecutive_failures = 0

    def record_failure(self, now_ns: int) -> None:
        """A request failed: trip OPEN on threshold or a failed probe."""
        self._consecutive_failures += 1
        failed_probe = self.state == BREAKER_HALF_OPEN
        if failed_probe or self._consecutive_failures >= self.failure_threshold:
            if self.state != BREAKER_OPEN:
                self.opened_total += 1
            self.state = BREAKER_OPEN
            self._opened_at_ns = now_ns


class AdaptiveBatcher:
    """Multiplicative-decrease / multiplicative-increase batch sizing."""

    def __init__(self, min_size: int, max_size: int):
        if min_size < 1:
            raise ValueError(f"min batch size must be >= 1: {min_size}")
        if max_size < 1:
            raise ValueError(f"max batch size must be >= 1: {max_size}")
        self.min_size = min(min_size, max_size)
        self.max_size = max_size
        #: Current batch size; starts wide open.
        self.size = max_size
        self.shrinks = 0
        self.grows = 0

    def on_failure(self) -> None:
        """Halve the batch size (not below the floor)."""
        new = max(self.min_size, self.size // 2)
        if new != self.size:
            self.shrinks += 1
        self.size = new

    def on_success(self) -> None:
        """Double the batch size back (not above the ceiling)."""
        new = min(self.max_size, self.size * 2)
        if new != self.size:
            self.grows += 1
        self.size = new
