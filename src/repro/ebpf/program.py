"""eBPF programs: verified callables attached to tracepoints.

A program wraps a Python callable standing in for compiled BPF
bytecode.  Two properties of real eBPF are modelled because the paper's
results depend on them:

- **Per-invocation CPU cost** — charged synchronously to the traced
  thread, the source of tracing overhead (Table II).
- **Verifier limits** — a nominal instruction budget; programs declare a
  complexity and the loader rejects ones over the limit.  This keeps the
  in-kernel half of tracers honest: heavyweight logic must live in user
  space, as in the real tool.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.kernel.tracepoints import SyscallContext, TracepointRegistry

#: The verifier's nominal instruction budget per program.
VERIFIER_MAX_INSNS = 1_000_000


class VerifierError(Exception):
    """Program rejected at load time."""


class ProgramType(enum.Enum):
    """Which tracepoint half a program attaches to."""

    SYS_ENTER = "sys_enter"
    SYS_EXIT = "sys_exit"


class EBPFProgram:
    """A loadable, attachable kernel program."""

    def __init__(self, name: str, program_type: ProgramType,
                 func: Callable[[SyscallContext], Optional[int]],
                 cost_ns: int = 200, insns: int = 1024):
        """Create a program.

        ``func`` receives the syscall context; any integer it returns is
        *added* to ``cost_ns`` as extra synchronous overhead (e.g. an
        enrichment path that only sometimes runs).
        """
        if cost_ns < 0:
            raise ValueError(f"negative cost {cost_ns}")
        if insns <= 0:
            raise ValueError(f"insns must be positive, got {insns}")
        if insns > VERIFIER_MAX_INSNS:
            raise VerifierError(
                f"program {name!r} exceeds verifier budget "
                f"({insns} > {VERIFIER_MAX_INSNS} insns)")
        self.name = name
        self.program_type = program_type
        self.func = func
        self.cost_ns = cost_ns
        self.insns = insns
        self.invocations = 0
        self._attached: list[tuple[TracepointRegistry, str]] = []

    def __call__(self, ctx: SyscallContext) -> int:
        """Run the program; returns total synchronous overhead in ns."""
        self.invocations += 1
        extra = self.func(ctx)
        return self.cost_ns + (int(extra) if extra else 0)

    def attach(self, registry: TracepointRegistry, syscall: str) -> None:
        """Attach to ``sys_enter_<syscall>`` or ``sys_exit_<syscall>``."""
        if self.program_type is ProgramType.SYS_ENTER:
            registry.attach_enter(syscall, self)
        else:
            registry.attach_exit(syscall, self)
        self._attached.append((registry, syscall))

    def detach_all(self) -> None:
        """Detach from every tracepoint this program was attached to."""
        for registry, syscall in self._attached:
            try:
                if self.program_type is ProgramType.SYS_ENTER:
                    registry.detach_enter(syscall, self)
                else:
                    registry.detach_exit(syscall, self)
            except ValueError:
                pass
        self._attached.clear()
