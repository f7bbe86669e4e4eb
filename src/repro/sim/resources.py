"""Synchronization and queueing primitives for simulation processes.

All primitives hand out plain :class:`~repro.sim.engine.Event` objects;
processes ``yield`` them to block.  Wait queues are strictly FIFO, which
keeps runs deterministic and models fair kernel queueing.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.engine import Environment, Event, SimulationError


class Lock:
    """A FIFO mutual-exclusion lock."""

    def __init__(self, env: Environment):
        self.env = env
        self._locked = False
        self._waiters: Deque[Event] = deque()

    def acquire(self) -> Event:
        """Return an event that fires once the lock is held."""
        event = Event(self.env)
        if not self._locked:
            self._locked = True
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release the lock, waking the next waiter if any."""
        if not self._locked:
            raise SimulationError("release of unlocked Lock")
        if self._waiters:
            self._waiters.popleft().succeed(self)
        else:
            self._locked = False


class Store:
    """An unbounded-or-bounded FIFO queue of items.

    ``put`` blocks when the store is full (bounded case); ``get`` blocks
    while the store is empty.
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def put(self, item: Any) -> Event:
        """Enqueue ``item``; the returned event fires once accepted."""
        event = Event(self.env)
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            self._getters.popleft().succeed(item)
            event.succeed(None)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed(None)
        else:
            self._putters.append((event, item))
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns ``False`` if the store is full."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            return True
        return False

    def get(self) -> Event:
        """Dequeue an item; the returned event fires with the item."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
            self._admit_putter()
        else:
            self._getters.append(event)
        return event

    def _admit_putter(self) -> None:
        if self._putters:
            put_event, item = self._putters.popleft()
            self._items.append(item)
            put_event.succeed(None)


class Resource:
    """A capacity-limited resource with FIFO request queueing.

    Models shared hardware such as a disk queue slot: ``request`` blocks
    until one of ``capacity`` slots frees up.
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def queued(self) -> int:
        """Number of processes waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that fires once a slot is held."""
        event = Event(self.env)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release a slot, waking the next waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release of idle Resource")
        if self._waiters:
            self._waiters.popleft().succeed(self)
        else:
            self._in_use -= 1
