"""Common interface for the tracers compared in Table II."""

from __future__ import annotations

from repro.kernel.syscalls import Kernel
from repro.sim import Environment


class BaselineStats:
    """Counters shared by the baseline tracers."""

    __slots__ = ("events_captured", "events_dropped", "paths_resolved",
                 "paths_unresolved")

    def __init__(self) -> None:
        self.events_captured = 0
        self.events_dropped = 0
        self.paths_resolved = 0
        self.paths_unresolved = 0

    @property
    def path_miss_ratio(self) -> float:
        """Fraction of path-relevant events without a resolved path."""
        total = self.paths_resolved + self.paths_unresolved
        return self.paths_unresolved / total if total else 0.0


class VanillaTracer:
    """The no-tracing baseline: attaches nothing, costs nothing."""

    name = "vanilla"

    def __init__(self, env: Environment, kernel: Kernel, **_ignored):
        self.env = env
        self.kernel = kernel
        self.stats = BaselineStats()

    def attach(self) -> None:
        """No-op."""

    def shutdown(self):
        """Process generator: no-op drain."""
        return
        yield  # pragma: no cover
