"""A simulated eBPF runtime.

Provides the kernel-instrumentation substrate DIO's tracer is built on:

- :mod:`repro.ebpf.maps` — the bounded BPF hash map, as used for
  entry/exit pairing state and filter sets.
- :mod:`repro.ebpf.ringbuf` — fixed-size per-CPU ring buffers between
  kernel producers and the user-space consumer.  When a buffer is full,
  new records are **dropped** and counted; this reproduces the event
  discarding the paper quantifies in §III-D.
- :mod:`repro.ebpf.program` — programs attached to syscall tracepoints,
  each charging a configurable per-invocation CPU cost to the traced
  thread (the mechanism behind tracing overhead in Table II).
"""

from repro.ebpf.maps import BPFHashMap, MapFullError
from repro.ebpf.ringbuf import PerCPURingBuffer, RingBufferStats
from repro.ebpf.program import EBPFProgram, ProgramType, VerifierError

__all__ = [
    "BPFHashMap",
    "MapFullError",
    "PerCPURingBuffer",
    "RingBufferStats",
    "EBPFProgram",
    "ProgramType",
    "VerifierError",
]
