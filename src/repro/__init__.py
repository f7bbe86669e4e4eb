"""DIO reproduction: syscall observability for I/O diagnosis.

A from-scratch Python reproduction of *"Diagnosing applications' I/O
behavior through system call observability"* (Esteves, Macedo,
Oliveira, Paulo — DSN 2023), built on a deterministic simulated kernel.

Subpackages
-----------
:mod:`repro.sim`
    Discrete-event engine: virtual clock, processes, resources.
:mod:`repro.kernel`
    Simulated POSIX kernel: VFS, page cache, block device, processes,
    the 42 storage syscalls, tracepoints.
:mod:`repro.ebpf`
    eBPF runtime: bounded hash maps, programs, per-CPU ring buffers.
:mod:`repro.tracer`
    The DIO tracer (the paper's contribution) and a trace replayer.
:mod:`repro.backend`
    Elasticsearch-like, append-only document store, file-path
    correlation, and post-mortem session persistence.
:mod:`repro.visualizer`
    Kibana-like renderers, predefined and saved dashboards.
:mod:`repro.baselines`
    strace- and Sysdig-style comparison tracers; Table III matrix.
:mod:`repro.apps`
    Simulated production applications: Fluent Bit, RocksDB + db_bench,
    and a SQLite-style embedded database.
:mod:`repro.workloads`
    Synthetic I/O workload generators (appends, mixed reads and
    writes, metadata storms).
:mod:`repro.analysis`
    Latency series, contention detection, pattern detectors, session
    comparison.
:mod:`repro.experiments`
    End-to-end harnesses reproducing every table and figure.

Quick start: see ``examples/quickstart.py`` or the README.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
