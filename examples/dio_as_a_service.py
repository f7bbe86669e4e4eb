#!/usr/bin/env python
"""DIO as a service: many machines, one analysis pipeline (paper §II-F).

The paper: *"one can deploy DIO as a service, setting up the analysis
pipeline on dedicated servers and allowing multiple executions of
DIO's tracer on different machines and by distinct users."*

This example runs three independent "machines" (separate simulated
kernels), each tracing a different workload into the *same* shared
backend under its own session name, then explores the combined data
the way an operator at the Kibana screen would.

Run with::

    python examples/dio_as_a_service.py
"""

import numpy as np

from repro.backend import DocumentStore
from repro.backend.persistence import list_sessions
from repro.kernel import Kernel
from repro.sim import Environment
from repro.tracer import DIOTracer, TracerConfig
from repro.visualizer import DIODashboards, load_predefined, render_table
from repro.workloads import metadata_storm, mixed_rw, small_appender


def machine(session, proc_name, workload_factory, store):
    """One 'machine': its own kernel + tracer, the shared backend."""
    env = Environment()
    kernel = Kernel(env, ncpus=2)
    tracer = DIOTracer(env, kernel, store,
                       TracerConfig(session_name=session))
    task = kernel.spawn_process(proc_name).threads[0]
    tracer.attach()

    def main():
        yield from workload_factory(kernel, task)
        yield from tracer.shutdown()

    env.run(until=env.process(main()))
    return tracer


def main():
    store = DocumentStore()   # the dedicated analysis pipeline

    rng = np.random.default_rng(11)
    machine("edge-01", "log-shipper",
            lambda k, t: small_appender(k, t, "/var.log", appends=300),
            store)
    machine("db-02", "kv-store",
            lambda k, t: mixed_rw(k, t, "/store.db", rng, operations=400),
            store)
    machine("build-03", "ci-runner",
            lambda k, t: metadata_storm(k, t, "/tmp.build", files=40),
            store)

    print("--- sessions at the shared backend ---")
    rows = [[s["session"], s["events"], ", ".join(s["processes"])]
            for s in list_sessions(store)]
    print(render_table(["session", "events", "processes"], rows))
    print()

    # Cross-session view: which machine generates which syscall mix?
    print("--- syscall mix per machine ---")
    for summary in list_sessions(store):
        session = summary["session"]
        dash = DIODashboards(store, session=session)
        print(f"[{session}]")
        print(dash.syscall_summary())
        print()

    # Per-session dashboards stay isolated despite the shared store.
    print("--- overview dashboard, session db-02 only ---")
    print(load_predefined("overview").render(store, session="db-02"))


if __name__ == "__main__":
    main()
