"""Reusable synthetic I/O workload generators.

Each generator is a process-generator factory over a
:class:`~repro.kernel.Kernel` and a :class:`~repro.kernel.process.Task`,
producing the access patterns the paper's introduction enumerates
(sequential/random, small/large requests, metadata storms, bursts) so
that tests, ablations, and users can compose reproducible traffic
without hand-writing syscall loops.
"""

from repro.workloads.generators import (metadata_storm, mixed_rw,
                                        random_reader, sequential_reader,
                                        sequential_writer, small_appender)

__all__ = [
    "sequential_writer",
    "sequential_reader",
    "random_reader",
    "small_appender",
    "metadata_storm",
    "mixed_rw",
]
