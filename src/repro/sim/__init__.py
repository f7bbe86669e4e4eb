"""Deterministic discrete-event simulation engine.

This package provides the virtual-time substrate on which the simulated
kernel, applications, and tracers run.  It is a lean, dependency-free
engine in the style of SimPy:

- :class:`~repro.sim.engine.Environment` owns a nanosecond-resolution
  virtual clock and an event queue.
- :class:`~repro.sim.process.Process` drives Python generators as
  cooperative processes; a process advances by ``yield``-ing events.
- :mod:`repro.sim.resources` offers locks, FIFO stores, and
  capacity-limited resources with fair queueing.

Everything is single-threaded and deterministic: given the same seeds and
the same process creation order, two runs produce identical event
sequences and timestamps.
"""

from repro.sim.engine import Environment, Event, Timeout, AnyOf, AllOf
from repro.sim.process import Process, Interrupt
from repro.sim.resources import Lock, Store, Resource

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Process",
    "Interrupt",
    "Lock",
    "Store",
    "Resource",
]
