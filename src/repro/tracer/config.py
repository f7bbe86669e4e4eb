"""Tracer configuration.

Mirrors DIO's configuration file (§II-F): which syscalls to enable
tracepoints for, PID/TID/path filters, ring-buffer sizing, batching,
and the backend target — plus the simulation cost model that stands in
for hardware speed.
"""

from __future__ import annotations

import dataclasses
import tomllib
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
    #: Buffered events that trigger sealing a segment.
    storage_flush_events: int = 4096

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
    #: Fixed network+indexing cost per bulk request (ns).
    ship_base_ns: int = 1_500_000
    #: Incremental cost per event in a bulk request (ns).
    ship_ns_per_event: int = 500
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
    #: Floor of the adaptive batch size (it halves on failure and
    #: doubles back on success, between this and ``batch_size``).
    batch_min_size: int = 16
    #: Cost of appending one record to the spill WAL (ns).
    spill_write_ns_per_event: int = 200
    #: Replay failures tolerated *during shutdown* before the consumer
    #: gives up and leaves the remaining segments in the WAL.
    spill_replay_failure_budget: int = 8

    # -- in-kernel cost model (drives Table II overheads) ---------------
    #: Cost of the sys_enter eBPF program (stash args + timestamp).
    enter_cost_ns: int = 700
    #: Cost of the sys_exit eBPF program (pair, filter, enrich, output).
    exit_cost_ns: int = 3_100

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
        if self.storage_flush_events < 1:
            raise ValueError("storage flush threshold must be >= 1")
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
        if self.batch_min_size < 1:
            raise ValueError("minimum batch size must be >= 1")
        if self.spill_write_ns_per_event < 0:
            raise ValueError("spill write cost must be >= 0")
        if self.spill_replay_failure_budget < 0:
            raise ValueError("spill replay failure budget must be >= 0")

    @property
    def enabled_syscalls(self) -> frozenset[str]:
        """The syscalls whose tracepoints will be enabled."""
        return (self.syscalls if self.syscalls is not None
                else frozenset(ALL_SYSCALLS))

    @classmethod
    def from_toml(cls, text: str) -> "TracerConfig":
        """Parse a TOML configuration document.

        Example::

            [tracer]
            syscalls = ["open", "read", "write", "close"]
            pids = [1001]
            paths = ["/tmp"]
            session_name = "run-42"

            [ring_buffer]
            capacity_mib_per_cpu = 256

            [backend]
            index = "dio_trace"
            batch_size = 512

            [resilience]
            backpressure_policy = "drop"
            breaker_failure_threshold = 5

            [storage]
            dir = "/var/lib/dio/run-42"
            flush_events = 4096

            [sharding]
            shard_count = 4
            shard_key = "pid"
            time_window_ns = 1000000000

        A section or key this parser does not read raises
        ``ValueError`` naming it.
        """
        data = tomllib.loads(text)
        kwargs: dict = {}
        for section, entries in data.items():
            known = _TOML_KEYS.get(section)
            if known is None or not isinstance(entries, dict):
                raise ValueError(f"unknown config section [{section}]")
            for key, value in entries.items():
                if key not in known:
                    raise ValueError(
                        f"unknown config key {key!r} in [{section}]")
                field, cast = known[key]
                kwargs[field] = value if cast is None else cast(value)
        return cls(**kwargs)


def _mib(value) -> int:
    return int(value) * 1024 * 1024


#: Every ``[section] key`` :meth:`TracerConfig.from_toml` reads, with
#: the config field it sets and the cast applied (``None``: as parsed).
#: Anything else in the document is rejected by name.
_TOML_KEYS: dict[str, dict[str, tuple]] = {
    "tracer": {
        "syscalls": ("syscalls", frozenset),
        "pids": ("pids", frozenset),
        "tids": ("tids", frozenset),
        "paths": ("paths", tuple),
        "session_name": ("session_name", None),
        "ring_mode": ("ring_mode", str),
    },
    "ring_buffer": {
        "capacity_mib_per_cpu": ("ring_capacity_bytes_per_cpu", _mib),
        "policy": ("ring_policy", None),
    },
    "backend": {
        "index": ("index", None),
        "batch_size": ("batch_size", int),
        "correlate_on_stop": ("correlate_on_stop", bool),
    },
    "storage": {
        "dir": ("storage_dir", str),
        "flush_events": ("storage_flush_events", int),
    },
    "sharding": {
        "shard_count": ("shard_count", int),
        "shard_key": ("shard_key", str),
        "time_window_ns": ("shard_time_window_ns", int),
    },
    "resilience": {
        key: (key, cast) for key, cast in (
            ("backoff_cap_ns", int),
            ("resilience_seed", int),
            ("breaker_failure_threshold", int),
            ("breaker_recovery_ns", int),
            ("max_inflight_events", int),
            ("backpressure_policy", str),
            ("batch_min_size", int),
            ("spill_write_ns_per_event", int),
            ("spill_replay_failure_budget", int),
            ("ship_max_retries", int),
            ("ship_retry_backoff_ns", int))
    },
}
