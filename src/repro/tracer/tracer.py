"""The DIO tracer: eBPF collection + asynchronous shipping.

Flow of events (paper Fig. 1):

1. ``attach()`` loads two eBPF programs per enabled syscall: the
   ``sys_enter`` program stashes the entry timestamp in a BPF hash map
   keyed by TID; the ``sys_exit`` program pairs entry and exit *in
   kernel space*, applies the kernel filters, runs enrichment, and
   reserves a record in the per-CPU ring buffer (dropping the event if
   the buffer is full).
2. The user-space consumer — its own simulation process, never blocking
   the traced application — polls the ring buffers, parses raw records
   into JSON events, and ships them to the backend in batches via the
   bulk API.
3. ``stop()`` detaches the programs; the consumer drains what remains
   and optionally runs the file-path correlation for the session.

The shipping hop is hardened against backend failures (the
reliability-critical component — see ``docs/RELIABILITY.md``): failed
batches are *staged* in a bounded user-space queue and retried under
decorrelated-jitter backoff; a circuit breaker stops hammering a dead
backend; the batch size adapts (halving on failure, regrowing on
success); batches that exhaust their retries spill to a dead-letter
WAL (:mod:`repro.tracer.spill`) and are replayed on recovery, so no
record the ring buffer accepted is ever lost.  When the staging queue
is full, backpressure propagates to the ring buffers (``"block"``) or
the overflow is shed in user space (``"drop"``).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.backend.correlation import CorrelationReport, FilePathCorrelator
from repro.backend.store import INDEXED_EVENT_FIELDS, DocumentStore
from repro.ebpf.maps import BPFHashMap
from repro.ebpf.program import EBPFProgram, ProgramType
from repro.ebpf.ringbuf import PerCPURingBuffer
from repro.kernel.syscalls import Kernel
from repro.kernel.tracepoints import SyscallContext
from repro.sim import Environment
from repro.telemetry import Telemetry

from repro.tracer.batch import RecordBatch
from repro.tracer.config import TracerConfig
from repro.tracer.enrichment import ENRICHMENT_COST_NS, Enricher
from repro.tracer.events import capture_args
from repro.tracer.filters import KernelFilter
from repro.tracer.resilience import (AdaptiveBatcher, BREAKER_OPEN,
                                     CircuitBreaker,
                                     DecorrelatedJitterBackoff)
from repro.tracer.spill import SpillWAL

# -- simulated hardware costs (Table II's overheads rest on the first
# two; DST digests and the paper's virtual times on all of them) ------
#: Cost of the sys_enter eBPF program (stash args + timestamp), ns.
ENTER_COST_NS = 700
#: Cost of the sys_exit eBPF program (pair, filter, enrich, output), ns.
EXIT_COST_NS = 3_100
#: Fixed network+indexing cost per bulk request, ns.
SHIP_BASE_NS = 1_500_000
#: Incremental cost per event in a bulk request, ns.
SHIP_NS_PER_EVENT = 500
#: Cost of appending one record to the spill WAL, ns.
SPILL_WRITE_NS_PER_EVENT = 200
#: Floor of the adaptive batch size (it halves on failure and doubles
#: back on success, between this and ``TracerConfig.batch_size``).
BATCH_MIN_SIZE = 16


class _StagedBatch:
    """One parsed batch awaiting shipment (with its attempt count)."""

    __slots__ = ("docs", "attempts")

    def __init__(self, docs: RecordBatch):
        self.docs = docs
        self.attempts = 0


class TracerStats:
    """Aggregate view over the tracer's lifetime.

    A thin compatibility facade over the telemetry registry (and the
    ring buffer's counters): older callers keep reading
    ``tracer.stats.shipped`` while the registry is the source of truth.
    ``as_dict()`` is generated from the public properties, so a new
    counter property can never silently go missing from it.
    """

    def __init__(self, tracer: "DIOTracer"):
        self._tracer = tracer

    @property
    def produced(self) -> int:
        """Records accepted into the ring buffers."""
        return self._tracer.ring.stats.produced

    @property
    def dropped(self) -> int:
        """Records discarded because a ring buffer was full (§III-D)."""
        return self._tracer.ring.stats.dropped

    @property
    def drop_ratio(self) -> float:
        """Dropped / offered."""
        return self._tracer.ring.stats.drop_ratio

    @property
    def filtered_out(self) -> int:
        """Events rejected in kernel space by PID/TID/path filters."""
        return self._tracer.filter.rejected

    @property
    def uring_observed(self) -> int:
        """Per-SQE ring events captured (ring-aware mode only)."""
        return self._tracer._uring_observed

    @property
    def shipped(self) -> int:
        """Events indexed at the backend."""
        return int(self._tracer._m_shipped.value)

    @property
    def batches(self) -> int:
        """Bulk requests issued."""
        return int(self._tracer._m_batches.value)

    @property
    def ship_retries(self) -> int:
        """Bulk requests retried after transient backend failures."""
        return int(self._tracer._m_retries.value)

    @property
    def bulk_attempts(self) -> int:
        """Bulk requests attempted (fresh, retried, and replayed)."""
        return int(self._tracer._m_attempts.value)

    @property
    def consumer_lag(self) -> int:
        """Records sitting in the ring buffers, not yet consumed."""
        return self._tracer.ring.pending_records()

    @property
    def staged_records(self) -> int:
        """Parsed events staged in user space awaiting shipment."""
        return self._tracer._staged_events

    @property
    def crash_lost(self) -> int:
        """Staged events lost to consumer crashes before shipping."""
        return int(self._tracer._m_crash_lost.value)

    @property
    def spilled_records(self) -> int:
        """Records written to the dead-letter WAL."""
        return self._tracer._spill.spilled_records_total

    @property
    def replayed_records(self) -> int:
        """Spilled records successfully replayed into the backend."""
        return self._tracer._spill.replayed_records_total

    @property
    def spill_pending(self) -> int:
        """Records sitting in the spill WAL awaiting replay."""
        return self._tracer._spill.pending_records

    @property
    def breaker_state(self) -> str:
        """Circuit-breaker state: closed, half-open, or open."""
        return self._tracer._breaker.state

    @property
    def retry_rate(self) -> float:
        """Failed bulk requests per *attempted* bulk request.

        Dividing by successful batches (the old definition) understates
        retry pressure once the batch size shrinks adaptively under
        failures; attempts are the honest denominator.
        """
        attempts = self.bulk_attempts
        return self.ship_retries / attempts if attempts else 0.0

    def as_dict(self) -> dict:
        """All counter properties as a plain dict (in definition order)."""
        return {name: getattr(self, name)
                for name, attr in vars(type(self)).items()
                if isinstance(attr, property)}


class DIOTracer:
    """Traces one kernel's syscalls into a backend index."""

    def __init__(self, env: Environment, kernel: Kernel,
                 store: DocumentStore,
                 config: Optional[TracerConfig] = None,
                 tap=None):
        self.env = env
        self.kernel = kernel
        self.store = store
        self.config = config or TracerConfig()
        #: Optional streaming-diagnosis tap (repro.analysis.streaming.
        #: DiagnosisTap): observes every parsed batch on the consumer
        #: path and is finalized at shutdown.  Charges no virtual time —
        #: its wall-clock cost is bounded by the ingest-overhead
        #: benchmark instead.
        self.tap = tap

        self.ring = PerCPURingBuffer(
            ncpus=kernel.ncpus,
            capacity_bytes_per_cpu=self.config.ring_capacity_bytes_per_cpu,
            policy=self.config.ring_policy)
        self.filter = KernelFilter(self.config.pids, self.config.tids,
                                   self.config.paths)
        self.enricher = Enricher()
        #: TID -> entry timestamp; the kernel-space pairing state.
        self._inflight = BPFHashMap(max_entries=65536, name="dio_inflight")

        #: The pipeline's self-telemetry.  The registry backs the
        #: consumer/shipper counters :class:`TracerStats` reads.
        self.telemetry = Telemetry(clock=lambda: env.now)
        registry = self.telemetry.registry
        self._m_batches = registry.counter(
            "dio_consumer_batches_total", "Bulk requests issued.")
        self._m_parsed = registry.counter(
            "dio_consumer_events_parsed_total",
            "Raw records parsed into JSON events by the consumer.")
        self._m_shipped = registry.counter(
            "dio_shipper_events_total", "Events indexed at the backend.")
        self._m_retries = registry.counter(
            "dio_shipper_retries_total",
            "Bulk requests retried after transient backend failures.")
        self._m_attempts = registry.counter(
            "dio_consumer_bulk_attempts_total",
            "Bulk requests attempted against the backend "
            "(fresh, retried, and replayed).")
        self._m_shed = registry.counter(
            "dio_consumer_shed_total",
            "Events shed by user-space backpressure (policy 'drop').")
        self._m_crash_lost = registry.counter(
            "dio_consumer_crash_lost_total",
            "Parsed events lost from user-space staging when the "
            "consumer process crashed before shipping them.")
        # Ingest-path accounting: one counter add per batch, never
        # per event.
        self._m_ingest_batches = registry.counter(
            "dio_ingest_batches_total",
            "Ring-buffer batches decoded by the consumer.")
        self._m_ingest_events = registry.counter(
            "dio_ingest_events_total",
            "Events decoded by the consumer.")
        #: Per-SQE completion events captured in ring-aware mode (zero
        #: in classic mode: the io_uring blind spot).
        self._uring_observed = 0

        #: Resilience state of the shipping hop (see module docstring).
        self._backoff = DecorrelatedJitterBackoff(
            self.config.ship_retry_backoff_ns, self.config.backoff_cap_ns,
            seed=self.config.resilience_seed)
        self._breaker = CircuitBreaker(
            self.config.breaker_failure_threshold,
            self.config.breaker_recovery_ns)
        self._batcher = AdaptiveBatcher(BATCH_MIN_SIZE,
                                        self.config.batch_size)
        self._spill = SpillWAL()
        #: Local durable mirror of acknowledged events (the segment
        #: storage engine, docs/STORAGE.md).  Every batch lands here
        #: right after the backend acknowledges it — WAL first, sealed
        #: into an immutable segment at the flush threshold — so a
        #: host can rebuild its trace history without the backend.
        self.storage = None
        if self.config.storage_dir is not None:
            from repro.backend.segments import SegmentStorage
            self.storage = SegmentStorage(self.config.storage_dir,
                                          clock=lambda: env.now)
        self._staged: deque[_StagedBatch] = deque()
        self._staged_events = 0
        self._next_attempt_ns = 0
        self._shutdown_replay_failures = 0
        #: A FaultyStore exposes consume_penalty_ns and accepts the
        #: nominal request cost (for slowdown faults); plain stores
        #: keep the unchanged two-argument bulk API.
        self._store_fault_aware = callable(
            getattr(store, "consume_penalty_ns", None))
        #: Whether the store offers the vectorized bulk endpoint; when
        #: it does not, RecordBatch payloads degrade to dict bulks.
        self._store_bulk_columnar = callable(
            getattr(store, "bulk_columnar", None))

        registry.counter(
            "dio_consumer_backoff_waits_total",
            "Backoff delays taken between bulk attempts.",
        ).set_function(lambda: self._backoff.waits)
        registry.counter(
            "dio_consumer_backoff_ns_total",
            "Total virtual nanoseconds spent in retry backoff.",
        ).set_function(lambda: self._backoff.waited_ns_total)
        registry.gauge(
            "dio_consumer_staged_records",
            "Parsed events staged in user space awaiting shipment.",
        ).set_function(lambda: self._staged_events)
        registry.gauge(
            "dio_breaker_state",
            "Shipping circuit breaker: 0=closed, 1=half-open, 2=open.",
        ).set_function(lambda: self._breaker.state_code)
        registry.counter(
            "dio_breaker_opened_total",
            "Circuit-breaker transitions into OPEN.",
        ).set_function(lambda: self._breaker.opened_total)
        registry.counter(
            "dio_breaker_half_open_total",
            "Circuit-breaker transitions into HALF_OPEN (probes).",
        ).set_function(lambda: self._breaker.half_open_total)
        registry.counter(
            "dio_breaker_closed_total",
            "Circuit-breaker transitions back into CLOSED.",
        ).set_function(lambda: self._breaker.closed_total)
        self._spill.bind_telemetry(registry)
        if self.storage is not None:
            self.storage.bind_telemetry(registry)
        self.ring.bind_telemetry(registry)
        self.filter.bind_telemetry(registry)
        self.store.bind_telemetry(registry, clock=lambda: env.now)
        env.bind_telemetry(registry)
        if self.tap is not None:
            self.tap.bind_telemetry(registry)

        self._enter_prog = EBPFProgram(
            "dio_sys_enter", ProgramType.SYS_ENTER, self._on_enter,
            cost_ns=ENTER_COST_NS)
        self._exit_prog = EBPFProgram(
            "dio_sys_exit", ProgramType.SYS_EXIT, self._on_exit,
            cost_ns=EXIT_COST_NS)

        self._running = False
        self._consumer = None
        self._consume_cursor = 0
        self._uring_observing = False
        self.correlation_report: Optional[CorrelationReport] = None
        self.stats = TracerStats(self)

    # ------------------------------------------------------------------
    # Lifecycle

    def attach(self) -> None:
        """Enable tracepoints and start the user-space consumer."""
        if self._running:
            raise RuntimeError("tracer is already attached")
        for syscall in sorted(self.config.enabled_syscalls):
            self._enter_prog.attach(self.kernel.tracepoints, syscall)
            self._exit_prog.attach(self.kernel.tracepoints, syscall)
        if self.config.ring_mode == "ring-aware":
            self.kernel.add_uring_observer(self._on_uring_complete)
            self._uring_observing = True
        self.store.ensure_index(self.config.index,
                                indexed_fields=INDEXED_EVENT_FIELDS)
        self._running = True
        self._consumer = self.env.process(self._consume_loop())

    def stop(self) -> None:
        """Disable tracepoints; the consumer drains remaining records."""
        if not self._running:
            return
        self._enter_prog.detach_all()
        self._exit_prog.detach_all()
        if self._uring_observing:
            self.kernel.remove_uring_observer(self._on_uring_complete)
            self._uring_observing = False
        self._running = False

    def drain(self):
        """Process generator: wait until the consumer finished draining.

        Loops rather than waiting once: if the consumer was killed and
        restarted while we waited, the fresh process must also finish
        before the drain is complete.
        """
        while self._consumer is not None and self._consumer.is_alive:
            current = self._consumer
            yield current
            if self._consumer is current:
                break

    def kill_consumer(self) -> int:
        """Simulate a user-space consumer crash (SIGKILL, OOM, …).

        The consumer process dies at its current yield point — since
        every bulk request is issued synchronously between yields, a
        crash can never tear a half-applied bulk.  Parsed batches
        staged in process memory die with it (counted in
        ``dio_consumer_crash_lost_total``); the kernel-side ring
        buffers and the durable spill WAL survive for the restarted
        consumer.  Returns how many staged events were lost.
        """
        if self._consumer is None or not self._consumer.is_alive:
            return 0
        self._consumer.interrupt("consumer-crash")
        self._consumer = None
        lost = self._staged_events
        if lost:
            self._m_crash_lost.inc(lost)
        self._staged.clear()
        self._staged_events = 0
        # Retry scheduling state lived in the dead process; a fresh
        # consumer starts eager.  Breaker/backoff objects persist (the
        # supervisor remembers the backend was unhealthy).
        self._next_attempt_ns = 0
        return lost

    def restart_consumer(self) -> None:
        """Start a fresh consumer process after :meth:`kill_consumer`.

        Safe whether or not tracing is still attached: a restarted
        consumer on a stopped tracer simply drains the rings and the
        spill WAL, then exits.
        """
        if self._consumer is not None and self._consumer.is_alive:
            raise RuntimeError("consumer is already running")
        self._consumer = self.env.process(self._consume_loop())

    def shutdown(self):
        """Process generator: stop, drain, and correlate (if configured)."""
        self.stop()
        yield from self.drain()
        if self.tap is not None:
            self.tap.finalize(self.env.now)
        if self.config.correlate_on_stop:
            correlator = FilePathCorrelator(
                self.store, registry=self.telemetry.registry)
            with self.telemetry.span("correlator.correlate"):
                self.correlation_report = correlator.correlate(
                    self.config.index, session=self.config.session_name)
        if self.storage is not None:
            # Seal the unflushed tail into a final segment.  The local
            # store mirrors events *as acknowledged* (pre-correlation);
            # `save_session` on the backend store persists the
            # annotated post-correlation state instead.
            self.storage.seal()

    # ------------------------------------------------------------------
    # Kernel space (eBPF programs)

    def _on_enter(self, ctx: SyscallContext) -> Optional[int]:
        self._inflight.update(ctx.task.tid, ctx.enter_ns)
        return None

    def _on_exit(self, ctx: SyscallContext) -> Optional[int]:
        enter_ns = self._inflight.pop(ctx.task.tid)
        if enter_ns is None:
            # Entry record lost (map pressure); fall back to the
            # context's own entry timestamp rather than dropping.
            enter_ns = ctx.enter_ns
        return self._emit(ctx, enter_ns)

    def _on_uring_complete(self, ctx: SyscallContext, sqe, cqe,
                           ring) -> None:
        """Ring-aware mode: one event per completed SQE.

        Hooked on the kernel's CQE-post path (not a syscall
        tracepoint): ``ctx`` is the synthetic per-op context the
        kernel dispatch built, with the SQE's submission timestamp as
        entry and the completion as exit.  From here the record rides
        the normal pipeline — filters, enrichment, ring buffers,
        consumer, store — indistinguishable from a syscall event
        except for its ``uring_*`` name.  Completion hooks charge no
        synchronous cost to the application (the asynchrony is the
        point of io_uring); the ingest-overhead gate is enforced by
        ``benchmarks/test_uring.py``.
        """
        if self._emit(ctx, ctx.enter_ns) is not None:
            self._uring_observed += 1

    def _emit(self, ctx: SyscallContext, enter_ns: int) -> Optional[int]:
        """Filter one completed event and offer its record to the ring.

        ``None`` when the kernel filters rejected it; otherwise the
        in-kernel CPU the enrichment path cost (0 when the syscall
        touched no file).  The record is built once, at exit: the
        fixed fields with the arguments as :func:`capture_args`
        records them (a buffer is its size, so the ring holds nothing
        of the application's), then the enrichment written straight
        into it.
        """
        if not self.filter.accepts(ctx):
            return None
        task = ctx.task
        args, size = capture_args(ctx.name, ctx.args)
        record = {
            "syscall": ctx.name,
            "args": args,
            "ret": ctx.retval,
            "pid": task.process.pid,
            "tid": task.tid,
            "comm": task.comm,
            "enter_ns": enter_ns,
            "exit_ns": ctx.exit_ns,
        }
        self.enricher.enrich(ctx, record)
        self.ring.produce(task.cpu, record, size)
        return ENRICHMENT_COST_NS if ctx.inode is not None else 0

    # ------------------------------------------------------------------
    # User space (consumer process)

    def _take_batch(self, limit: Optional[int] = None) -> list:
        """Round-robin drain of up to ``limit`` records (batch size)."""
        if limit is None:
            limit = self.config.batch_size
        batch: list = []
        ncpus = self.ring.ncpus
        for step in range(ncpus):
            cpu = (self._consume_cursor + step) % ncpus
            room = limit - len(batch)
            if room <= 0:
                break
            batch.extend(self.ring.consume(cpu, room))
        self._consume_cursor = (self._consume_cursor + 1) % ncpus
        return batch

    def _bulk(self, docs, nominal_ns: int) -> None:
        if isinstance(docs, RecordBatch):
            if not self._store_bulk_columnar:
                docs = docs.to_docs()
            elif self._store_fault_aware:
                self.store.bulk_columnar(self.config.index, docs,
                                         nominal_ns=nominal_ns)
                return
            else:
                self.store.bulk_columnar(self.config.index, docs)
                return
        if self._store_fault_aware:
            self.store.bulk(self.config.index, docs, nominal_ns=nominal_ns)
        else:
            self.store.bulk(self.config.index, docs)

    def _persist(self, docs) -> None:
        """Mirror one acknowledged batch into local segment storage.

        Called on the ship-success path only: the local store holds
        exactly what the backend has acknowledged, never more.  A
        RecordBatch materialises its documents on the way down (the
        WAL frames JSON) — the cost of durability, paid only when
        ``storage_dir`` is configured.
        """
        if self.storage is None:
            return
        payload = docs.to_docs() if isinstance(docs, RecordBatch) else docs
        self.storage.append(list(payload),
                            session=self.config.session_name)

    def _on_ship_success(self) -> None:
        self._breaker.record_success()
        self._batcher.on_success()
        self._backoff.reset()
        self._next_attempt_ns = 0
        self._shutdown_replay_failures = 0

    def _store_penalty_ns(self) -> int:
        """Slowdown surplus a FaultyStore wants charged to shipping."""
        if self._store_fault_aware:
            return int(self.store.consume_penalty_ns())
        return 0

    def _ship_staged_head(self):
        """One bulk attempt of the oldest staged batch.

        Success retires the batch; failure backs off, trips the
        breaker/batcher, and — once ``ship_max_retries`` attempts are
        spent — spills the batch to the dead-letter WAL.
        """
        config = self.config
        head = self._staged[0]
        docs = head.docs
        with self.telemetry.span("shipper.bulk"):
            cost = SHIP_BASE_NS + SHIP_NS_PER_EVENT * len(docs)
            yield cost
            self._m_attempts.inc()
            try:
                self._bulk(docs, cost)
            except Exception as exc:
                # Timeout faults burn their hang before we may react.
                hang = getattr(exc, "cost_ns", 0)
                if hang:
                    yield hang
                now = self.env.now
                self._m_retries.inc()
                head.attempts += 1
                self._breaker.record_failure(now)
                self._batcher.on_failure()
                self._next_attempt_ns = now + self._backoff.next_delay_ns()
                if head.attempts >= config.ship_max_retries:
                    write_ns = SPILL_WRITE_NS_PER_EVENT * len(docs)
                    if write_ns:
                        yield write_ns
                    # The WAL needs JSON-able records: the batch
                    # materialises its docs on the way down.
                    self._spill.append(docs.to_docs(), self.env.now)
                    self._staged.popleft()
                    self._staged_events -= len(docs)
                return
        self._staged.popleft()
        self._staged_events -= len(docs)
        self._m_shipped.inc(len(docs))
        self._m_batches.inc()
        self._persist(docs)
        self._on_ship_success()
        penalty = self._store_penalty_ns()
        if penalty:
            yield penalty

    def _replay_spill_head(self):
        """One bulk attempt of the oldest spilled segment."""
        segment = self._spill.peek()
        docs = list(segment.docs)
        with self.telemetry.span("shipper.replay"):
            cost = SHIP_BASE_NS + SHIP_NS_PER_EVENT * len(docs)
            yield cost
            self._m_attempts.inc()
            try:
                self._bulk(docs, cost)
            except Exception as exc:
                hang = getattr(exc, "cost_ns", 0)
                if hang:
                    yield hang
                now = self.env.now
                self._m_retries.inc()
                self._breaker.record_failure(now)
                self._batcher.on_failure()
                if not self._running:
                    self._shutdown_replay_failures += 1
                self._next_attempt_ns = now + self._backoff.next_delay_ns()
                return
        self._spill.pop()
        self._m_shipped.inc(len(docs))
        self._m_batches.inc()
        self._persist(docs)
        self._on_ship_success()
        penalty = self._store_penalty_ns()
        if penalty:
            yield penalty

    def _drain_once(self, inline_ship: bool):
        """Take one batch from the ring into the pipeline.

        Returns whether anything was taken.  With ``inline_ship`` (the
        healthy path) the batch is shipped immediately, preserving the
        take→parse→ship cadence; otherwise it is only staged, so the
        ring keeps draining while the backend is down.  The staging
        bound applies backpressure per ``backpressure_policy``.
        """
        config = self.config
        room = config.max_inflight_events - self._staged_events
        limit = self._batcher.size
        if room <= 0 and config.backpressure_policy == "block":
            return False
        if config.backpressure_policy == "block":
            limit = min(limit, room)
        batch = self._take_batch(limit)
        if not batch:
            return False
        if config.backpressure_policy == "drop" and len(batch) > room:
            keep = max(room, 0)
            self._m_shed.inc(len(batch) - keep)
            batch = batch[:keep]
            if not batch:
                return True
        with self.telemetry.span("consumer.batch"):
            # Parse raw records into columnar lanes.
            with self.telemetry.span("consumer.parse"):
                yield config.parse_ns_per_event * len(batch)
                payload = RecordBatch.decode(
                    batch, session=config.session_name)
            count = len(payload)
            self._m_parsed.inc(count)
            self._m_ingest_batches.inc()
            self._m_ingest_events.inc(count)
            if self.tap is not None:
                self.tap.observe_batch(payload)
            self._staged.append(_StagedBatch(payload))
            self._staged_events += count
            if inline_ship:
                now = self.env.now
                if self._breaker.allows(now) and now >= self._next_attempt_ns:
                    yield from self._ship_staged_head()
        return True

    def _wait_ns(self, now: int) -> int:
        """Sleep until the next actionable instant (poll at most)."""
        wait = self.config.poll_interval_ns
        if self._next_attempt_ns > now:
            wait = min(wait, self._next_attempt_ns - now)
        if (self._breaker.state == BREAKER_OPEN
                and self._breaker.retry_at_ns() > now):
            wait = min(wait, self._breaker.retry_at_ns() - now)
        return max(1, wait)

    def _consume_loop(self):
        config = self.config
        while True:
            now = self.env.now
            # 1) Retry staged (failed) batches once the backend may be
            #    tried again; keep draining the ring in the meantime.
            if self._staged:
                if self._breaker.allows(now) and now >= self._next_attempt_ns:
                    yield from self._ship_staged_head()
                elif not (yield from self._drain_once(inline_ship=False)):
                    yield self._wait_ns(now)
                continue
            # 2) Replay the dead-letter WAL (recovery path).  During
            #    shutdown a bounded failure budget keeps a permanently
            #    dead backend from wedging the drain: leftover segments
            #    stay in the WAL, counted, never silently dropped.
            if self._spill.pending_records:
                if (not self._running
                        and self._shutdown_replay_failures
                        >= config.spill_replay_failure_budget):
                    break
                if self._breaker.allows(now) and now >= self._next_attempt_ns:
                    yield from self._replay_spill_head()
                elif not (yield from self._drain_once(inline_ship=False)):
                    yield self._wait_ns(now)
                continue
            # 3) Healthy path: take → parse → ship, exactly the
            #    pre-resilience cadence and span structure.  Transient
            #    backend failures land the batch in the staging queue;
            #    the events are already out of the ring buffer, so
            #    nothing is lost — the application is unaffected
            #    either way (asynchronous path).
            if not (yield from self._drain_once(inline_ship=True)):
                if not self._running:
                    break
                yield config.poll_interval_ns
