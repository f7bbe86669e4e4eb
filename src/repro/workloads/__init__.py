"""Reusable synthetic I/O workload generators.

Each generator is a process-generator factory over a
:class:`~repro.kernel.Kernel` and a :class:`~repro.kernel.process.Task`,
producing the access patterns the paper's introduction enumerates
(small appends, mixed reads and writes, metadata storms) so
that tests, ablations, and users can compose reproducible traffic
without hand-writing syscall loops.
"""

from repro.workloads.generators import (metadata_storm, mixed_rw,
                                        small_appender)

__all__ = [
    "small_appender",
    "metadata_storm",
    "mixed_rw",
]
