"""DIO's tracer: the paper's primary contribution.

The tracer intercepts storage syscalls via eBPF programs attached to
the kernel's syscall tracepoints, filters them *in kernel space*,
enriches them with kernel context (process name, file type, file
offset, file tag), aggregates entry+exit into a single record in kernel
space, and pushes records through per-CPU ring buffers.  A user-space
consumer (its own simulation process, off the application's critical
path) drains the buffers, parses records into JSON events, and ships
them to the backend in batches.

Public entry points:

- :class:`~repro.tracer.config.TracerConfig` — tracing scope, filter,
  buffer, and shipping parameters.
- :class:`~repro.tracer.tracer.DIOTracer` — attach/run/stop; owns the
  eBPF programs and the consumer process.
- :class:`~repro.tracer.batch.RecordBatch` — one ring batch decoded
  into the lanes the backend indexes.
"""

from repro.tracer.batch import RecordBatch
from repro.tracer.config import TracerConfig
from repro.tracer.events import estimate_record_size
from repro.tracer.filters import KernelFilter
from repro.tracer.enrichment import Enricher
from repro.tracer.resilience import (AdaptiveBatcher, CircuitBreaker,
                                     DecorrelatedJitterBackoff)
from repro.tracer.spill import SpillSegment, SpillWAL
from repro.tracer.tracer import DIOTracer, TracerStats
from repro.tracer.replay import ReplayReport, TraceReplayer

__all__ = [
    "TracerConfig",
    "RecordBatch",
    "estimate_record_size",
    "KernelFilter",
    "Enricher",
    "AdaptiveBatcher",
    "CircuitBreaker",
    "DecorrelatedJitterBackoff",
    "SpillSegment",
    "SpillWAL",
    "DIOTracer",
    "TracerStats",
    "ReplayReport",
    "TraceReplayer",
]
