#!/usr/bin/env python
"""Post-mortem analysis: store, reload, and diff tracing sessions.

The paper's design principles (§II) include post-mortem analysis:
*"DIO allows storing different tracing executions from the same or
different applications and posteriorly analyzing and comparing them."*

This example traces both Fluent Bit versions, exports each session to
a JSON-lines file, re-imports them into a fresh backend (as a second
machine or a later day would), and lets the comparison engine find the
exact step where the two versions' behaviour diverges — automating the
Fig. 2a vs Fig. 2b analysis.

Run with::

    python examples/session_comparison.py
"""

import tempfile
from pathlib import Path

from repro.analysis.compare import compare_sessions, session_fingerprint
from repro.analysis.diagnose import diagnose_session
from repro.apps.fluentbit import FLUENTBIT_BUGGY, FLUENTBIT_FIXED
from repro.backend import DocumentStore
from repro.backend.persistence import (export_session, import_session,
                                       list_sessions)
from repro.experiments import run_fluentbit_case


def main():
    workdir = Path(tempfile.mkdtemp(prefix="dio-sessions-"))

    # --- capture phase: trace each version, keep the session on disk --
    files = {}
    for version in (FLUENTBIT_BUGGY, FLUENTBIT_FIXED):
        case = run_fluentbit_case(version)
        path = workdir / f"fluentbit-{version}.jsonl"
        count = export_session(case.store, f"fluentbit-{version}", path)
        files[version] = path
        print(f"traced Fluent Bit {version}: {count} events -> {path}")
    print()

    # --- post-mortem phase: a fresh backend, possibly much later ------
    store = DocumentStore()
    for path in files.values():
        import_session(store, path)

    print("stored sessions:")
    for summary in list_sessions(store):
        print(f"  {summary['session']}: {summary['events']} events, "
              f"processes {summary['processes']}")
    print()

    buggy = f"fluentbit-{FLUENTBIT_BUGGY}"
    fixed = f"fluentbit-{FLUENTBIT_FIXED}"

    # Fingerprints: the coarse difference.
    for session in (buggy, fixed):
        fp = session_fingerprint(store, session)
        print(f"{session}: {fp['events']} events, "
              f"syscall mix {fp['by_syscall']}")
    print()

    # The behavioural diff: where exactly do the versions part ways?
    comparison = compare_sessions(store, buggy, fixed)
    print(f"sessions agree for the first {comparison.common_prefix} steps")
    print(f"first divergence -> {comparison.divergence.describe()}")
    print()
    print("That single step IS the bug fix: v1.4.0 seeks to the stale")
    print("offset 26 before reading the fresh file; v2.0.5 reads the 16")
    print("new bytes from offset 0.")
    print()

    # And the detectors agree about which session is sick.
    for session in (buggy, fixed):
        findings = diagnose_session(store, session).findings
        verdict = findings[0].finding if findings else "no issues detected"
        print(f"{session}: {verdict}")


if __name__ == "__main__":
    main()
