"""§III-B: diagnosing the Fluent Bit data loss with DIO (Fig. 2).

Runs the client (``app``) and Fluent Bit together, traced by DIO with
a PID filter on the two applications — exactly the paper's setup — and
returns everything needed to regenerate Fig. 2a/2b and to assert the
data-loss (or its fix).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.apps.fluentbit import FluentBit
from repro.apps.logger import FIRST_PAYLOAD, SECOND_PAYLOAD, LogWriterApp
from repro.backend import DocumentStore
from repro.kernel import Kernel
from repro.sim import Environment
from repro.tracer import DIOTracer, TracerConfig
from repro.visualizer import DIODashboards

SECOND = 1_000_000_000


class FluentBitCaseResult(NamedTuple):
    """Everything the Fig. 2 analysis needs."""

    version: str
    store: DocumentStore
    tracer: DIOTracer
    app: LogWriterApp
    fluentbit: FluentBit
    dashboards: DIODashboards

    @property
    def delivered_bytes(self) -> int:
        """Bytes Fluent Bit forwarded downstream."""
        return self.fluentbit.delivered_bytes

    @property
    def written_bytes(self) -> int:
        """Bytes the client application wrote in total."""
        return len(FIRST_PAYLOAD) + len(SECOND_PAYLOAD)

    @property
    def lost_bytes(self) -> int:
        """The data loss DIO makes visible."""
        return self.written_bytes - self.delivered_bytes

    def figure2_rows(self) -> list[dict]:
        """The event rows of the paper's Fig. 2 table."""
        return self.dashboards.file_access_rows(
            syscalls=("openat", "open", "creat", "write", "read", "close",
                      "unlink", "lseek"))

    def figure2_table(self) -> str:
        """Rendered Fig. 2 tabular visualization."""
        return self.dashboards.file_access_table(
            syscalls=("openat", "open", "creat", "write", "read", "close",
                      "unlink", "lseek"))


def run_fluentbit_case(version: str,
                       poll_interval_ns: int = 5 * SECOND,
                       phase_delay_ns: int = 10 * SECOND,
                       session_name: str | None = None
                       ) -> FluentBitCaseResult:
    """Run the complete §III-B scenario under DIO tracing."""
    env = Environment()
    kernel = Kernel(env, ncpus=2)
    store = DocumentStore()

    app = LogWriterApp(kernel, path="/app.log",
                       write_delay_ns=phase_delay_ns,
                       unlink_delay_ns=phase_delay_ns)
    fluentbit = FluentBit(kernel, "/app.log", version=version,
                          poll_interval_ns=poll_interval_ns)

    session = session_name or f"fluentbit-{version}"
    config = TracerConfig(
        pids=frozenset({app.process.pid, fluentbit.process.pid}),
        session_name=session,
    )
    tracer = DIOTracer(env, kernel, store, config)
    tracer.attach()
    fluentbit.start()

    def main():
        yield from app.run()
        # Two more poll rounds so Fluent Bit observes the second file.
        yield 3 * poll_interval_ns
        fluentbit.stop()
        yield from tracer.shutdown()

    env.run(until=env.process(main()))
    dashboards = DIODashboards(store, config.index, session=session)
    return FluentBitCaseResult(version, store, tracer, app, fluentbit,
                               dashboards)
