"""Virtual-time event loop.

The engine measures time in integer nanoseconds.  An
:class:`Environment` owns one priority queue ordered by ``(when,
priority, seq)``; calling :meth:`Environment.run` pops entries in that
order and fires them.  Processes (see :mod:`repro.sim.process`) are
themselves events that trigger when their generator finishes.

The queue holds two kinds of entry:

- an **event** — fired by running its callbacks;
- a **sleeping process** — a process that yielded a bare delay.  The
  entry is the process itself plus the ``seq`` it was queued under,
  which doubles as its *wake token*: the process remembers the token
  of its current sleep, and an entry whose token no longer matches
  (the sleeper was interrupted) fires nothing.

Either kind counts one processed event when it is popped, so
``events_processed`` and the ``(priority, seq)`` tie order do not
depend on how a process chose to sleep.  The same holds for the
*inline resume* in :meth:`Process._advance`: while :meth:`run` is
driving, a sleep that nothing else can interleave with (the head of
the queue is strictly later, and the wake-up lies within ``until``)
advances the clock and the counters exactly as a queued entry would
and skips only the heap.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Optional

#: Priority for events that must fire before ordinary events at the same
#: timestamp (e.g. interrupts).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1

#: ``Environment._horizon`` while nothing may resume inline: no wake-up
#: time is ``<=`` it.
_NO_INLINE = float("-inf")
_FOREVER = float("inf")


class SimulationError(Exception):
    """Raised for misuse of the simulation engine."""


class Event:
    """An occurrence that processes can wait on.

    An event starts *pending*; it becomes *triggered* once scheduled with
    a value (or an exception), and *processed* after its callbacks ran.
    Callbacks receive the event itself.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed")

    #: Sentinel for "no value yet".
    PENDING = object()

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = Event.PENDING
        self._ok: bool = True
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        """``True`` once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """``True`` once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """``True`` if the event carries a value rather than an exception."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception), available once triggered."""
        if self._value is Event.PENDING:
            raise SimulationError("value of untriggered event is not available")
        return self._value

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        self.env.schedule(self, delay=0, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        A waiting process will have the exception thrown into it.
        """
        if self._triggered:
            raise SimulationError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self._triggered = True
        self.env.schedule(self, delay=0, priority=priority)
        return self

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        for callback in callbacks:
            callback(self)


class Timeout(Event):
    """An event that fires after a fixed virtual-time delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: int, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = int(delay)
        self._ok = True
        self._value = value
        self._triggered = True
        env.schedule(self, delay=self.delay)


class ConditionValue:
    """What an :class:`AnyOf`/:class:`AllOf` fires with: its
    sub-events that had fired (each holds its own ``value``)."""

    def __init__(self) -> None:
        self.events: list[Event] = []



class _Condition(Event):
    """Base for composite events over several sub-events."""

    __slots__ = ("_events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._remaining = len(self._events)
        if not self._events:
            self.succeed(ConditionValue())
            return
        for event in self._events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")
            if event.callbacks is None:
                self._on_event(event)
            else:
                event.callbacks.append(self._on_event)

    def _on_event(self, event: Event) -> None:
        raise NotImplementedError

    def _collect(self) -> ConditionValue:
        value = ConditionValue()
        value.events = [e for e in self._events if e.triggered]
        return value


class AnyOf(_Condition):
    """Fires when any sub-event fires (first failure propagates)."""

    __slots__ = ()

    def _on_event(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Fires once all sub-events fired (first failure propagates)."""

    __slots__ = ()

    def _on_event(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class Environment:
    """A deterministic virtual-time event loop.

    Time is kept as integer nanoseconds in :attr:`now`.  Events scheduled
    at the same timestamp fire in (priority, insertion) order, which
    makes runs fully reproducible.
    """

    def __init__(self, initial_time: int = 0):
        self._now = int(initial_time)
        #: ``(when, priority, seq, event, sleeper)``: exactly one of the
        #: last two is set; ``seq`` is unique, so neither is compared.
        self._queue: list[tuple] = []
        self._seq = 0
        self._active_process = None
        self._events_processed = 0
        #: Latest wake-up a sleeping process may resume to without
        #: going through the queue; only :meth:`run` raises it.
        self._horizon = _NO_INLINE

    @property
    def now(self) -> int:
        """Current virtual time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Queue entries fired over the engine's lifetime.

        An inline resume counts as the entry it stood in for.
        """
        return self._events_processed

    def bind_telemetry(self, registry) -> None:
        """Expose engine health on a telemetry registry.

        ``registry`` is a :class:`repro.telemetry.MetricsRegistry`;
        the engine itself stays telemetry-agnostic — everything is
        read through zero-cost collect-time callbacks.
        """
        registry.counter(
            "dio_sim_events_processed_total",
            "Simulation events fired by the virtual-time engine.",
        ).set_function(lambda: self._events_processed)
        registry.gauge(
            "dio_sim_queue_depth",
            "Events currently scheduled on the engine's queue.",
        ).set_function(lambda: len(self._queue))

    def schedule(self, event: Event, delay: int = 0, priority: int = NORMAL) -> None:
        """Queue ``event`` to fire ``delay`` nanoseconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        heapq.heappush(
            self._queue,
            (self._now + int(delay), priority, self._seq, event, None))

    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def process(self, generator) -> "Process":
        """Start a new cooperative process driving ``generator``."""
        from repro.sim.process import Process

        return Process(self, generator)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when any of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all of ``events`` fired."""
        return AllOf(self, events)

    def _drive(self, stop_at=_FOREVER,
               stop_event: Optional[Event] = None) -> None:
        """Pop and fire queue entries — the one body behind run.

        Stops when the queue drains, the next entry lies beyond
        ``stop_at`` or ``stop_event`` has been processed.  Sleeping
        processes resume inline, but only while nothing else is owed
        this instant: the waiters of an event with several callbacks
        must all resume before any of them moves the clock, and
        whatever the waiters of ``stop_event`` do next belongs to the
        caller's next ``run``.
        """
        queue = self._queue
        pop = heapq.heappop
        self._horizon = stop_at
        try:
            while queue and queue[0][0] <= stop_at:
                when, _priority, seq, event, sleeper = pop(queue)
                self._now = when
                self._events_processed += 1
                if sleeper is not None:
                    if sleeper._wake == seq:
                        sleeper._advance(True, None)
                elif event is not stop_event and len(event.callbacks) == 1:
                    event._run_callbacks()
                else:
                    self._horizon = _NO_INLINE
                    event._run_callbacks()
                    if event is stop_event:
                        break
                    self._horizon = stop_at
        finally:
            self._horizon = _NO_INLINE

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), an integer
        timestamp (run up to and including that time), or an
        :class:`Event` (run until it has been processed, returning its
        value or raising its exception).
        """
        if isinstance(until, Event):
            if not until.processed:
                self._drive(stop_event=until)
            if not until.processed:
                raise SimulationError(
                    "simulation ran out of events before the awaited event fired")
            if not until.ok:
                raise until.value
            return until.value
        if until is None:
            self._drive()
            return None
        stop_at = int(until)
        if stop_at < self._now:
            raise SimulationError(
                f"until={stop_at} lies in the past (now={self._now})")
        self._drive(stop_at)
        self._now = stop_at
        return None
