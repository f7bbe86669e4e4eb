"""Tracer configuration.

Mirrors DIO's configuration file (§II-F): which syscalls to enable
tracepoints for, PID/TID/path filters, ring-buffer sizing, batching,
and the backend target.  The simulated hardware costs nobody tunes
(the eBPF programs', a bulk request's, a spill append's) are constants
of :mod:`repro.tracer.tracer`.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.kernel.syscalls import ALL_SYSCALLS

#: Deterministic shard-routing keys for the sharded backend
#: (``shard_count > 1``): route by file tag, by pid, or by time
#: window.  Kept in sync with ``repro.backend.router.SHARD_KEYS``
#: (asserted in tests) — importing it here would pull the whole
#: backend into every config parse.
SHARD_KEYS = ("file_tag", "pid", "time_window")

#: How the tracer sees io_uring traffic: "classic" observes only the
#: ``io_uring_enter``/``io_uring_setup``/``io_uring_register`` syscalls
#: (the strace blind spot — one enter event per submitted batch,
#: nothing per SQE); "ring-aware" additionally hooks the kernel's
#: CQE-post path and emits one ``uring_read``/``uring_write``/
#: ``uring_fsync`` event per completed SQE into the normal pipeline.
RING_MODES = ("classic", "ring-aware")


@dataclasses.dataclass
class TracerConfig:
    """All knobs of the DIO tracer."""

    # -- tracing scope (paper §II-B) -----------------------------------
    #: Syscalls to enable tracepoints for; ``None`` = all supported
    #: (the 42 of Table I plus the three ``io_uring_*`` calls).
    syscalls: Optional[frozenset[str]] = None
    #: io_uring visibility: "classic" (syscall tracepoints only — the
    #: per-SQE blind spot) or "ring-aware" (kernel CQE observer emits
    #: per-op ``uring_*`` events into the same pipeline).
    ring_mode: str = "classic"
    #: Only record events from these PIDs (``None`` = no PID filter).
    pids: Optional[frozenset[int]] = None
    #: Only record events from these TIDs (``None`` = no TID filter).
    tids: Optional[frozenset[int]] = None
    #: Only record events touching files under these path prefixes.
    paths: Optional[tuple[str, ...]] = None

    # -- session / backend ----------------------------------------------
    #: Unique label distinguishing tracing executions at the backend.
    session_name: str = "dio-session"
    #: Backend index events are shipped to.
    index: str = "dio_trace"
    #: Run the file-path correlation automatically when tracing stops.
    correlate_on_stop: bool = True

    # -- local persistence (segment storage engine) ---------------------
    #: Directory for local durable storage of acknowledged events:
    #: they stream through a WAL into immutable columnar segment files
    #: (docs/STORAGE.md).  ``None`` disables local persistence
    #: (backend-only, the default).
    storage_dir: Optional[str] = None

    # -- backend sharding (scatter-gather coordinator) -------------------
    #: Number of backend shards.  ``1`` (default) serves everything
    #: from a single ``DocumentStore`` — the differential oracle.
    #: ``> 1`` routes through ``repro.backend.router.ShardedDocumentStore``.
    shard_count: int = 1
    #: Deterministic routing key: "file_tag", "pid", or "time_window".
    shard_key: str = "pid"
    #: Window width for ``shard_key="time_window"`` routing (ns).
    shard_time_window_ns: int = 1_000_000_000

    # -- ring buffer (paper §III-D: 256 MiB per CPU core) ---------------
    ring_capacity_bytes_per_cpu: int = 256 * 1024 * 1024
    #: Overflow policy: "drop-new" (eBPF ringbuf semantics, the paper's
    #: behaviour), "overwrite-oldest", or "sample" (see the §V study).
    ring_policy: str = "drop-new"

    # -- user-space consumer / shipper ----------------------------------
    #: Events per bulk request to the backend.
    batch_size: int = 512
    #: Consumer poll interval when the ring buffers are empty (ns).
    poll_interval_ns: int = 200_000
    #: User-space cost to parse one raw record into a JSON event (ns).
    parse_ns_per_event: int = 1_500
    #: Bulk-request attempts before a batch is spilled to the
    #: dead-letter WAL (replayed on recovery).
    ship_max_retries: int = 5
    #: Base delay of the decorrelated-jitter retry backoff (ns).
    ship_retry_backoff_ns: int = 10_000_000

    # -- resilience (backoff / breaker / backpressure / spill) ----------
    #: Upper bound on any single backoff delay (ns).
    backoff_cap_ns: int = 500_000_000
    #: Seed of the backoff jitter RNG — same seed, same delays.
    resilience_seed: int = 7
    #: Consecutive bulk failures that trip the circuit breaker OPEN.
    breaker_failure_threshold: int = 5
    #: How long an OPEN breaker blocks before admitting a probe (ns).
    breaker_recovery_ns: int = 200_000_000
    #: Bound on events staged in user space awaiting shipment.  When
    #: the bound is hit, backpressure propagates to the ring buffers.
    max_inflight_events: int = 8192
    #: What the consumer does when the staging bound is hit:
    #: ``"block"`` stops draining (the ring buffers fill and apply
    #: their own overflow policy); ``"drop"`` keeps draining but sheds
    #: the overflow in user space (counted separately).
    backpressure_policy: str = "block"
    #: Replay failures tolerated *during shutdown* before the consumer
    #: gives up and leaves the remaining segments in the WAL.
    spill_replay_failure_budget: int = 8

    def __post_init__(self) -> None:
        if self.syscalls is not None:
            self.syscalls = frozenset(self.syscalls)
            unknown = self.syscalls - ALL_SYSCALLS
            if unknown:
                raise ValueError(f"unsupported syscalls: {sorted(unknown)}")
        if self.ring_mode not in RING_MODES:
            raise ValueError(
                f"unknown ring mode {self.ring_mode!r};"
                " pick 'classic' or 'ring-aware'")
        if self.pids is not None:
            self.pids = frozenset(self.pids)
        if self.tids is not None:
            self.tids = frozenset(self.tids)
        if self.paths is not None:
            self.paths = tuple(self.paths)
            for path in self.paths:
                if not path.startswith("/"):
                    raise ValueError(f"path filter must be absolute: {path!r}")
        if self.ring_capacity_bytes_per_cpu <= 0:
            raise ValueError("ring capacity must be positive")
        from repro.ebpf.ringbuf import POLICIES
        if self.ring_policy not in POLICIES:
            raise ValueError(f"unknown ring policy {self.ring_policy!r}")
        if self.batch_size <= 0:
            raise ValueError("batch size must be positive")
        if self.poll_interval_ns < 1:
            # At 0 the consumer polls forever at one virtual instant; a
            # negative delay kills it before it ships anything.
            raise ValueError("poll interval must be >= 1 ns")
        if self.parse_ns_per_event < 0:
            raise ValueError("parse cost must be >= 0")
        if not isinstance(self.shard_count, int) or self.shard_count < 1:
            raise ValueError(
                f"shard count must be a positive int: {self.shard_count!r}")
        if self.shard_key not in SHARD_KEYS:
            raise ValueError(
                f"unknown shard key {self.shard_key!r};"
                " pick 'file_tag', 'pid', or 'time_window'")
        if self.shard_time_window_ns < 1:
            raise ValueError("shard time window must be >= 1 ns")
        if self.ship_retry_backoff_ns <= 0:
            raise ValueError("retry backoff base must be positive")
        if self.backoff_cap_ns < self.ship_retry_backoff_ns:
            raise ValueError("backoff cap below its base delay")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker failure threshold must be >= 1")
        if self.breaker_recovery_ns < 0:
            raise ValueError("breaker recovery must be >= 0")
        if self.max_inflight_events < 1:
            raise ValueError("max in-flight events must be >= 1")
        if self.backpressure_policy not in ("block", "drop"):
            raise ValueError(
                f"unknown backpressure policy {self.backpressure_policy!r};"
                " pick 'block' or 'drop'")
        if self.spill_replay_failure_budget < 0:
            raise ValueError("spill replay failure budget must be >= 0")

    @property
    def enabled_syscalls(self) -> frozenset[str]:
        """The syscalls whose tracepoints will be enabled."""
        return (self.syscalls if self.syscalls is not None
                else frozenset(ALL_SYSCALLS))
