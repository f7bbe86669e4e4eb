"""Cooperative processes driven by Python generators.

A process advances by yielding one of two things:

- an :class:`~repro.sim.engine.Event` — the engine resumes the process
  with the event's value (or throws its exception) once it fires;
- a **non-negative ``int``** — a bare delay in nanoseconds: the process
  sleeps that long and resumes with ``None``.  This is how simulation
  code sleeps; ``Timeout`` is for when an event object is needed to
  compose with (``any_of([data_ready, timer])``).  The type test is
  exact, so a ``bool`` or a ``float`` never sleeps by accident:
  anything else fails the process.

A sleeping process is a queue entry, not an event: the engine queues
the process itself under a fresh ``seq``, which the process keeps as
its wake token.  When nothing else is due at or before the wake-up
(the head of the queue is *strictly* later — a tie goes through the
queue, which is what keeps ``(priority, seq)`` order) and the wake-up
is within the running ``run(until=...)``, the process resumes inline:
clock, ``seq`` and ``events_processed`` move exactly as for a queued
entry, only the heap is skipped.

A process is itself an event that triggers when its generator returns
(the return value becomes the event value) or raises.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Generator

from repro.sim.engine import NORMAL, URGENT, Event, SimulationError


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt`."""
        return self.args[0] if self.args else None


class Process(Event):
    """Wraps a generator as a schedulable simulation process."""

    __slots__ = ("_generator", "_target", "_wake", "name")

    def __init__(self, env, generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Event | None = None
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: a zero-length sleep, so the body first runs at the
        # current time in creation order.  Interrupting a process
        # *before it ever ran* voids the token like any other sleep —
        # the stale bootstrap must not resume the finished process.
        self._sleep(0)

    @property
    def is_alive(self) -> bool:
        """``True`` while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process.

        The process stops waiting on its current target and resumes
        immediately with the exception.  Interrupting a finished process
        is an error.
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._triggered = True
        event.callbacks.append(self._resume)
        self.env.schedule(event, delay=0, priority=URGENT)

    def _sleep(self, delay: int) -> None:
        """Queue this process to wake ``delay`` ns from now."""
        env = self.env
        env._seq = self._wake = seq = env._seq + 1
        heappush(env._queue, (env._now + delay, NORMAL, seq, None, self))

    def _resume(self, event: Event) -> None:
        """Event callback: stop waiting and continue with its outcome."""
        # If we were interrupted, detach from whatever we were waiting
        # on: an event keeps no callback, a sleep entry no valid token.
        target = self._target
        if target is not None:
            if target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:
                    pass
            self._target = None
        self._wake = 0
        self._advance(event._ok, event._value)

    def _advance(self, ok: bool, value: Any) -> None:
        """Feed ``value`` in (or throw it) and run to the next wait."""
        env = self.env
        generator = self._generator
        env._active_process = self
        try:
            while True:
                if ok:
                    yielded = generator.send(value)
                else:
                    yielded = generator.throw(value)
                if type(yielded) is int:
                    if yielded < 0:
                        raise ValueError(
                            f"process {self.name!r} yielded negative "
                            f"delay {yielded}")
                    when = env._now + yielded
                    queue = env._queue
                    if when <= env._horizon and (
                            not queue or queue[0][0] > when):
                        # Inline resume: what popping our own entry
                        # would do, without the heap.
                        env._seq += 1
                        env._now = when
                        env._events_processed += 1
                        ok, value = True, None
                        continue
                    self._sleep(yielded)
                    break
                if not isinstance(yielded, Event):
                    raise SimulationError(
                        f"process {self.name!r} yielded {yielded!r}: "
                        f"neither an event nor a non-negative int delay")
                if yielded.env is not env:
                    raise SimulationError(
                        f"process {self.name!r} yielded an event from another environment")
                if yielded.callbacks is not None:
                    # Still pending or triggered-but-unprocessed: wait for it.
                    self._target = yielded
                    yielded.callbacks.append(self._resume)
                    break
                # Already processed: feed its value straight back in.
                ok, value = yielded._ok, yielded._value
        except StopIteration as stop:
            self.succeed(stop.value)
        except Interrupt as exc:
            # An interrupt that escapes the generator terminates it quietly
            # with the interrupt cause as value (daemon-style shutdown).
            self.succeed(exc.cause)
        except BaseException as exc:
            self.fail(exc)
        finally:
            env._active_process = None
