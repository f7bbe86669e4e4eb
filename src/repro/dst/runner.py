"""Execute one DST scenario end-to-end and judge it.

``run_scenario`` is the whole harness for one seed:

1. **fast run** — the full pipeline (apps → kernel → tracer →
   consumer/spill → store → correlation) on the production paths
   (``bulk_columnar`` ingest, grouped-pass correlator), with the
   scenario's fault plan, consumer kills, and store crashes applied on
   the virtual clock;
2. **invariants** — the :mod:`repro.dst.invariants` library over the
   run's final state and telemetry;
3. **differential battery** — planner/columnar answers vs. the naive
   oracles on the fast store, plus dashboard renders;
4. **oracle twin run** — the same scenario again on one store whose
   tracer-facing layer exposes only per-document ``bulk``, with
   :func:`~repro.backend.naive.legacy_correlate`; final stores and
   correlation reports must match exactly.  Ring-aware scenarios add a
   **classic twin** (:func:`ring_twin_checks`): the same apps under a
   ``ring_mode="classic"`` tracer must leave identical kernel-level
   outcomes, and the ring-aware capture minus ``uring_*`` events must
   equal the classic capture when neither run lost events;
5. **determinism** — a byte-identical digest check against a third,
   fresh execution of the fast run;
6. **storage recovery** — the session export is torn at a seed-chosen
   byte and recovered; the spill WAL image likewise, frame-exactly.
   Data loss beyond the torn tail, duplicates after replay, or a crash
   fail the seed.  Every seed then runs :func:`segment_storage_checks`:
   the segment store is diffed against the JSON-lines export, a
   segment file and the storage WAL are torn at arbitrary bytes, and a
   crash is injected mid-compaction.  Sharded seeds finish with
   :func:`shard_lifecycle_checks`, which also tears a shard image.

Every stage is deterministic, so a failing seed reproduces with
``dio dst repro <seed>`` forever (or from its saved scenario JSON).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
from typing import Optional

from repro.backend.naive import legacy_correlate
from repro.backend.persistence import (export_session, import_session,
                                       recover_session)
from repro.backend.router import create_store
from repro.backend.store import DocumentStore
from repro.dst import differential, invariants
from repro.dst.crash import CrashingStore
from repro.dst.scenario import (DIR_POOL, PATH_POOL, XATTR_POOL, Scenario,
                                generate)
from repro.faults import FaultPlan, FaultWindow, FaultyStore
from repro.kernel.inode import FileType
from repro.kernel.syscalls import AT_FDCWD, O_RDONLY, Kernel
from repro.sim import Environment
from repro.tracer import DIOTracer, TracerConfig
from repro.visualizer.render import render_histogram, render_table

#: Index and session naming for DST runs.
DST_INDEX = "dio_trace"


@dataclasses.dataclass
class RunResult:
    """Verdict for one scenario."""

    seed: int
    failures: list
    digest: str
    events_produced: int
    events_stored: int
    consumer_crashes: int
    store_crashes: int
    faults_injected: int
    spilled: int
    scenario: Scenario

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "failures": list(self.failures),
            "digest": self.digest,
            "events_produced": self.events_produced,
            "events_stored": self.events_stored,
            "consumer_crashes": self.consumer_crashes,
            "store_crashes": self.store_crashes,
            "faults_injected": self.faults_injected,
            "spilled": self.spilled,
        }


# ----------------------------------------------------------------------
# Op interpretation

class _ProcState:
    """Mutable per-process interpreter state (the open-fd registers)."""

    __slots__ = ("fds", "ring_fd")

    def __init__(self) -> None:
        self.fds: list[int] = []
        #: The process's io_uring fd, once ``io_uring_setup`` ran.
        self.ring_fd: Optional[int] = None

    def pick(self, slot: int) -> Optional[int]:
        if not self.fds:
            return None
        return self.fds[slot % len(self.fds)]


def _resolve_op(op: dict, state: _ProcState):
    """Translate one compact op into ``(syscall, kwargs)``.

    Returns ``(None, None)`` when the op cannot apply (fd-based op with
    no fd open) — a deterministic skip, not an error.
    """
    name = op["sc"]
    path = PATH_POOL[op.get("p", 0) % len(PATH_POOL)]
    path2 = PATH_POOL[op.get("p2", 0) % len(PATH_POOL)]
    dirpath = DIR_POOL[op.get("p", 0) % len(DIR_POOL)]
    xname = XATTR_POOL[op.get("x", 0) % len(XATTR_POOL)]
    n = max(1, op.get("n", 64))
    offset = op.get("o", 0)

    if name in ("open", "openat"):
        kwargs = {"path": path, "flags": op.get("fl", O_RDONLY)}
        if name == "openat":
            kwargs["dirfd"] = AT_FDCWD
        return name, kwargs
    if name == "creat":
        return name, {"path": path}
    if name in ("stat", "lstat"):
        return name, {"path": path, "statbuf": {}}
    if name == "fstatat":
        return name, {"dirfd": AT_FDCWD, "path": path, "statbuf": {}}
    if name == "truncate":
        return name, {"path": path, "length": op.get("n", 0)}
    if name in ("rename", "renameat", "renameat2"):
        if path == path2:
            return None, None
        if name == "rename":
            return name, {"oldpath": path, "newpath": path2}
        return name, {"olddirfd": AT_FDCWD, "oldpath": path,
                      "newdirfd": AT_FDCWD, "newpath": path2}
    if name == "unlink":
        return name, {"path": path}
    if name == "unlinkat":
        return name, {"dirfd": AT_FDCWD, "path": path, "flags": 0}
    if name in ("mkdir", "rmdir"):
        return name, {"path": dirpath}
    if name == "mkdirat":
        return name, {"dirfd": AT_FDCWD, "path": dirpath}
    if name == "mknod":
        return name, {"path": path}
    if name == "mknodat":
        return name, {"dirfd": AT_FDCWD, "path": path}
    if name in ("getxattr", "lgetxattr"):
        return name, {"path": path, "name": xname, "buf": bytearray(256)}
    if name in ("setxattr", "lsetxattr"):
        return name, {"path": path, "name": xname, "value": b"v" * n}
    if name in ("listxattr", "llistxattr"):
        return name, {"path": path, "buf": bytearray(1024)}
    if name in ("removexattr", "lremovexattr"):
        return name, {"path": path, "name": xname}

    # Everything else needs an open fd.
    fd = state.pick(op.get("f", 0))
    if fd is None:
        return None, None
    if name == "close":
        return name, {"fd": fd}
    if name == "read":
        return name, {"fd": fd, "buf": bytearray(n)}
    if name == "pread64":
        return name, {"fd": fd, "buf": bytearray(n), "offset": offset}
    if name == "readv":
        k = max(1, op.get("k", 2))
        return name, {"fd": fd, "bufs": [bytearray(n) for _ in range(k)]}
    if name == "write":
        return name, {"fd": fd, "data": b"w" * n}
    if name == "pwrite64":
        return name, {"fd": fd, "data": b"w" * n, "offset": offset}
    if name == "writev":
        k = max(1, op.get("k", 2))
        return name, {"fd": fd, "datas": [b"w" * n for _ in range(k)]}
    if name == "lseek":
        return name, {"fd": fd, "offset": offset, "whence": op.get("w", 0)}
    if name == "ftruncate":
        return name, {"fd": fd, "length": op.get("n", 0)}
    if name in ("fsync", "fdatasync"):
        return name, {"fd": fd}
    if name in ("fstat", "fstatfs"):
        return name, {"fd": fd, "statbuf": {}}
    if name == "fgetxattr":
        return name, {"fd": fd, "name": xname, "buf": bytearray(256)}
    if name == "fsetxattr":
        return name, {"fd": fd, "name": xname, "value": b"v" * n}
    if name == "flistxattr":
        return name, {"fd": fd, "buf": bytearray(1024)}
    if name == "fremovexattr":
        return name, {"fd": fd, "name": xname}
    raise ValueError(f"op interpreter cannot resolve syscall {name!r}")


#: Ops the io_uring interpreter handles (outside ``_resolve_op``:
#: ``uring_prep`` is app-side ring memory, not a syscall, and the
#: others need the process's ring handle).
_URING_OPS = frozenset({"io_uring_setup", "io_uring_register",
                        "io_uring_enter", "uring_prep"})


def _run_uring_op(kernel, task, state: _ProcState, op: dict):
    """Process generator: interpret one io_uring scenario op.

    Ops that cannot apply (no ring yet, no data fd, full SQ) are
    deterministic skips, mirroring ``_resolve_op``'s contract so the
    shrinker can delete any prefix of a ring program.
    """
    from repro.kernel.uring import SQE, IOSQE_IO_LINK
    from repro.kernel.syscalls import IORING_ENTER_GETEVENTS

    name = op["sc"]
    if name == "io_uring_setup":
        if state.ring_fd is None:
            ret = yield from kernel.syscall(task, "io_uring_setup",
                                           entries=op.get("e", 16))
            if ret >= 0:
                state.ring_fd = ret
        return
    if state.ring_fd is None:
        return
    ring = kernel.uring_for_fd(task, state.ring_fd)
    if ring is None:
        state.ring_fd = None
        return
    if name == "io_uring_register":
        # ro 0 registers fixed buffers, anything else the open fds as
        # a fixed-file table; either may fail (EBUSY) — that is data.
        if op.get("ro", 0) == 0:
            yield from kernel.syscall(
                task, "io_uring_register", fd=state.ring_fd, opcode=0,
                arg=[4096] * max(1, op.get("n", 1)),
                nr_args=max(1, op.get("n", 1)))
        else:
            yield from kernel.syscall(
                task, "io_uring_register", fd=state.ring_fd, opcode=2,
                arg=list(state.fds) or [0], nr_args=len(state.fds) or 1)
        return
    if name == "uring_prep":
        fd = state.pick(op.get("f", 0))
        if fd is None:
            return
        n = max(1, op.get("n", 64))
        offset = op.get("o", 0)
        flags = IOSQE_IO_LINK if op.get("ln") else 0
        kind = op.get("u", "write")
        if kind == "read":
            sqe = SQE.read(fd, n, offset, flags=flags)
        elif kind == "fsync":
            sqe = SQE.fsync(fd, flags=flags)
        else:
            sqe = SQE.write(fd, b"u" * n, offset, flags=flags)
        ring.prepare(sqe)   # full SQ -> deterministic drop
        return
    if name == "io_uring_enter":
        to_submit = len(ring.sq)
        yield from kernel.syscall(
            task, "io_uring_enter", fd=state.ring_fd,
            to_submit=to_submit, min_complete=to_submit,
            flags=IORING_ENTER_GETEVENTS)
        ring.reap()
        return
    raise ValueError(f"unknown io_uring op {name!r}")


# ----------------------------------------------------------------------
# Pipeline execution

class _BulkOnly:
    """Store facade without ``bulk_columnar``: the tracer's capability
    probe then ships ``RecordBatch.to_docs()`` through ``bulk``."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def __getattr__(self, name: str):
        if name == "bulk_columnar":
            raise AttributeError(name)
        return getattr(self._inner, name)


class PipelineRun:
    """Final state of one pipeline execution."""

    __slots__ = ("tracer", "store", "inner_store", "crashing", "faulty",
                 "session", "traced_pids", "docs", "report", "kernel")

    def snapshot_docs(self) -> list:
        """Deterministic (id, source) snapshot of the trace index."""
        if DST_INDEX not in self.inner_store.index_names():
            return []
        return sorted(self.inner_store.scan(DST_INDEX, {"match_all": {}}),
                      key=lambda pair: int(pair[0]))


def execute_pipeline(scenario: Scenario, *, oracle: bool = False,
                     shard_count: Optional[int] = None,
                     ring_mode: Optional[str] = None) -> PipelineRun:
    """Run the whole pipeline once for ``scenario``.

    ``oracle`` runs the reference twin: the tracer sees a ``bulk``-only
    store and correlation is :func:`legacy_correlate`.  With
    ``shard_count`` forced to ``1`` it checks ``bulk_columnar``, lazy
    hydration, the router and the grouped-pass correlator against the
    per-document single-store path on every seed.  ``ring_mode``
    overrides the tracer's ring mode — the classic-twin stage forces
    ``"classic"`` on ring-aware scenarios to pin the blind spot.
    """
    env = Environment()
    kernel = Kernel(env, ncpus=scenario.ncpus)
    session = f"dst-{scenario.seed}"

    # Pre-create the namespace the op programs reference, and seed the
    # read targets with content (untraced setup, before attach).
    for base in ("/data", "/logs", "/scratch"):
        if kernel.vfs.lookup(base) is None:
            kernel.vfs.mkdir(base)
    for path in PATH_POOL:
        inode = kernel.vfs.create(path, FileType.REGULAR)
        inode.write_bytes(0, b"s" * 8192, 0)

    # Spawn all processes first so PID filtering is known before the
    # tracer is configured.
    procs = []
    traced_pids = set()
    for spec in scenario.processes:
        kproc = kernel.spawn_process(spec["name"])
        procs.append((kproc, spec))
        if spec.get("traced", True):
            traced_pids.add(kproc.pid)

    shards = scenario.shard_count if shard_count is None else shard_count
    inner = create_store(shard_count=shards, shard_key="pid")
    layer = inner
    crashing = None
    if scenario.store_crashes:
        crashing = CrashingStore(inner, scenario.store_crashes,
                                 clock=lambda: env.now)
        layer = crashing
    plan = FaultPlan(FaultWindow(**w) for w in scenario.fault_windows)
    faulty = FaultyStore(layer, plan, clock=lambda: env.now)

    config = TracerConfig(
        session_name=session,
        index=DST_INDEX,
        pids=tuple(sorted(traced_pids)) if scenario.has_untraced else None,
        ring_capacity_bytes_per_cpu=scenario.ring_capacity_bytes_per_cpu,
        ring_policy=scenario.ring_policy,
        batch_size=scenario.batch_size,
        poll_interval_ns=scenario.poll_interval_ns,
        ship_max_retries=scenario.ship_max_retries,
        max_inflight_events=scenario.max_inflight_events,
        backpressure_policy=scenario.backpressure_policy,
        resilience_seed=scenario.seed,
        correlate_on_stop=not oracle,
        ring_mode=ring_mode or scenario.ring_mode,
    )
    tracer = DIOTracer(env, kernel,
                       _BulkOnly(faulty) if oracle else faulty, config)
    tracer.attach()

    def app(kproc, spec):
        task = kproc.threads[0]
        state = _ProcState()
        for op in spec["ops"]:
            delay = op.get("d", 0)
            if delay:
                yield delay
            name = op["sc"]
            if name in _URING_OPS:
                yield from _run_uring_op(kernel, task, state, op)
                continue
            name, kwargs = _resolve_op(op, state)
            if name is None:
                continue
            ret = yield from kernel.syscall(task, name, **kwargs)
            if name in ("open", "openat", "creat") and ret >= 0:
                state.fds.append(ret)
            elif name == "close" and ret == 0:
                state.fds.remove(kwargs["fd"])
        # A torn-down process must not leave its ring behind: close it
        # like a real runtime's exit path would.
        if state.ring_fd is not None:
            yield from kernel.syscall(task, "close", fd=state.ring_fd)

    def crash_schedule():
        for at_ns in sorted(scenario.consumer_crashes):
            if at_ns > env.now:
                yield at_ns - env.now
            tracer.kill_consumer()
            yield scenario.consumer_restart_delay_ns
            tracer.restart_consumer()

    def main():
        apps = [env.process(app(kproc, spec)) for kproc, spec in procs]
        crasher = env.process(crash_schedule())
        yield env.all_of(apps)
        # All kills/restarts must land before shutdown so the drain
        # below waits on the final consumer incarnation.
        yield crasher
        yield from tracer.shutdown()

    env.run(until=env.process(main()))

    run = PipelineRun()
    run.tracer = tracer
    run.kernel = kernel
    run.store = faulty
    run.inner_store = inner
    run.crashing = crashing
    run.faulty = faulty
    run.session = session
    run.traced_pids = traced_pids
    run.report = tracer.correlation_report
    if oracle:
        run.report = legacy_correlate(inner, DST_INDEX, session=session)
    run.docs = run.snapshot_docs()
    return run


# ----------------------------------------------------------------------
# Digest (same-seed reruns must be byte-identical)

def run_digest(run: PipelineRun, battery_results: list,
               dashboards: list[str]) -> str:
    """sha256 over everything an operator could observe from the run.

    Includes the full diagnosis report (batch + streaming findings,
    DFG fingerprint, phases), so the determinism stage pins same-seed
    byte-identical diagnosis output too.
    """
    from repro.analysis.diagnose import diagnose_session

    diagnosis = (diagnose_session(run.inner_store, run.session,
                                  index=DST_INDEX).as_dict()
                 if run.docs else None)
    payload = {
        "docs": run.docs,
        "stats": run.tracer.stats.as_dict(),
        "report": run.report.as_dict() if run.report else None,
        "battery": battery_results,
        "dashboards": dashboards,
        "diagnosis": diagnosis,
        "syscall_counts": dict(sorted(
            run.tracer.kernel.syscall_counts.items())),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def render_dashboards(run: PipelineRun) -> list[str]:
    """The dashboard stage: render what ``dio dashboard`` would show."""
    if not run.docs:
        return ["(no data)"]
    store = run.inner_store
    response = store.search(DST_INDEX, size=0, aggs={
        "by_syscall": {"terms": {"field": "syscall", "size": 50}}})
    buckets = [(b["key"], b["doc_count"])
               for b in response["aggregations"]["by_syscall"]["buckets"]]
    histogram = render_histogram(buckets)
    table = render_table(
        ("metric", "value"),
        sorted(run.tracer.stats.as_dict().items()))
    return [histogram, table]


# ----------------------------------------------------------------------
# Post-run storage recovery checks

def storage_recovery_checks(run: PipelineRun, scenario: Scenario,
                            tmp_dir) -> list[str]:
    """Torn-file recovery of the session export and the spill WAL."""
    import pathlib

    failures: list[str] = []
    rng = random.Random(f"dio-dst-storage-{scenario.seed}")
    if not run.docs:
        return failures
    tmp_dir = pathlib.Path(tmp_dir)
    export_path = tmp_dir / f"session-{scenario.seed}.jsonl"
    exported = export_session(run.inner_store, run.session, export_path,
                              index=DST_INDEX)

    # Round trip: a clean import must reproduce every event.
    clean = DocumentStore()
    import_session(clean, export_path, index=DST_INDEX,
                   rename_to="roundtrip")
    if clean.count(DST_INDEX) != exported:
        failures.append(
            f"session round-trip lost events: exported {exported}, "
            f"imported {clean.count(DST_INDEX)}")

    # Torn tail: cut the file at an arbitrary byte; recovery must keep
    # exactly the complete lines of the prefix.
    blob = export_path.read_bytes()
    cut = rng.randrange(1, len(blob))
    torn_path = tmp_dir / f"session-{scenario.seed}-torn.jsonl"
    torn_path.write_bytes(blob[:cut])
    prefix = blob[:cut]
    newline_positions = [i for i, b in enumerate(prefix) if b == 0x0A]
    complete_data_lines = max(0, len(newline_positions) - 1)
    header_survived = bool(newline_positions)
    # A cut landing exactly on a newline leaves the preceding record
    # complete but unterminated; recovery rightly keeps it.
    if newline_positions:
        tail = prefix[newline_positions[-1] + 1:]
        try:
            if isinstance(json.loads(tail.decode("utf-8")), dict):
                complete_data_lines += 1
        except (ValueError, UnicodeDecodeError):
            pass
    recovered = DocumentStore()
    report = recover_session(recovered, torn_path, index=DST_INDEX,
                             rename_to="torn")
    if not header_survived:
        # The prefix is (at most) the header line; a cut exactly at
        # its end leaves it parseable, but no data can have survived.
        if report["imported"]:
            failures.append(
                "torn session: recovered events from a file with a "
                "torn header")
    else:
        if report["imported"] != complete_data_lines:
            failures.append(
                f"torn session: {complete_data_lines} complete lines "
                f"survived the tear but {report['imported']} were "
                f"recovered")
        if report["imported"] and report["dropped_corrupt"] > 1:
            failures.append(
                f"torn session: {report['dropped_corrupt']} corrupt "
                f"lines dropped; a single tear can only corrupt one")
        # Recovered events must be a faithful prefix (no mutation).
        original_keys = {invariants.event_key(s) for _, s in run.docs}
        if report["imported"]:
            for _, source in recovered.scan(DST_INDEX, {"match_all": {}}):
                if invariants.event_key(source) not in original_keys:
                    failures.append(
                        "torn session: recovery invented an event not "
                        "present in the original capture")
                    break

    # Duplicate replay: importing the same WAL twice applies once.
    dedup = DocumentStore()
    first = recover_session(dedup, export_path, index=DST_INDEX,
                            rename_to="dup")
    second = recover_session(dedup, export_path, index=DST_INDEX,
                             rename_to="dup")
    if second["imported"] != 0 or second["dropped_duplicates"] == 0:
        # recover_session dedups within one file; cross-call replay
        # protection is the caller's job via the store itself.
        pass
    if first["imported"] != exported:
        failures.append(
            f"duplicate-replay baseline import lost events: "
            f"{first['imported']} != {exported}")

    # Spill WAL image: serialize, tear, recover; exactly the complete
    # frames of the prefix must survive, byte-identically.
    from repro.tracer.spill import SpillWAL
    wal = SpillWAL()
    batch = [source for _, source in run.docs[:8]] or [{"x": 1}]
    wal.append(batch, now_ns=1)
    # An append-only image grows by whole frames: its length after one
    # append is where the second segment's frame begins.
    ends = [len(wal.to_bytes())]
    wal.append(batch[:3] or [{"y": 2}], now_ns=2, reason="dst")
    image = wal.to_bytes()
    ends.append(len(image))
    full_wal, _ = SpillWAL.recover(image)
    if list(full_wal._segments) != list(wal._segments):
        failures.append("spill WAL round-trip lost or mutated segments")
    cut = rng.randrange(1, len(image))
    complete = sum(1 for end in ends if end <= cut)
    recovered_wal, wal_report = SpillWAL.recover(image[:cut])
    if (list(recovered_wal._segments) != list(wal._segments)[:complete]
            or (complete and wal_report["torn_bytes_dropped"]
                != cut - ends[complete - 1])):
        failures.append(
            f"torn spill WAL: the cut at byte {cut} leaves {complete} "
            f"complete frames, recovery reported {wal_report}")

    failures += segment_storage_checks(run, scenario, tmp_dir)
    return failures


def segment_storage_checks(run: PipelineRun, scenario: Scenario,
                           tmp_dir) -> list[str]:
    """Segment-engine recovery checks, on every seed.

    Five stages, all seeded from the scenario: the segment store must
    load identically to the JSON-lines export; a segment file torn at
    an arbitrary byte must be rejected whole without touching its
    neighbours; a torn storage WAL must recover exactly the complete
    frames of the prefix; a crash injected mid-compaction must leave a
    store that reopens clean and compacts successfully; and a crash
    between a flush's manifest publish and its WAL reset must not
    replay the sealed records as duplicates.
    """
    import pathlib
    import shutil

    from repro.backend.persistence import load_session, save_session
    from repro.backend.segments import WAL_NAME, SegmentStorage

    failures: list[str] = []
    if not run.docs:
        return failures
    rng = random.Random(f"dio-dst-segments-{scenario.seed}")
    tmp_dir = pathlib.Path(tmp_dir)
    docs = [source for _, source in run.docs]
    # Small segments on purpose: several files per store, so tearing
    # one and compacting the rest both have something to chew on.
    flush = max(4, len(docs) // 5)

    # Differential oracle: the same session saved both ways must load
    # back with identical contents.
    seg_root = tmp_dir / "segstore"
    save_session(run.inner_store, run.session, seg_root, index=DST_INDEX,
                 flush_events=flush)
    via_segments = DocumentStore()
    load_session(via_segments, seg_root, index=DST_INDEX,
                 rename_to="segcheck")
    oracle_path = tmp_dir / f"segcheck-{scenario.seed}.jsonl"
    export_session(run.inner_store, run.session, oracle_path,
                   index=DST_INDEX)
    via_jsonl = DocumentStore()
    import_session(via_jsonl, oracle_path, index=DST_INDEX,
                   rename_to="segcheck")
    seg_docs = [s for _, s in via_segments.scan(DST_INDEX,
                                                {"match_all": {}})]
    ora_docs = [s for _, s in via_jsonl.scan(DST_INDEX, {"match_all": {}})]
    if (json.dumps(seg_docs, sort_keys=True)
            != json.dumps(ora_docs, sort_keys=True)):
        failures.append(
            f"segment store: loaded session differs from the jsonl "
            f"oracle ({len(seg_docs)} vs {len(ora_docs)} docs)")

    engine = SegmentStorage(seg_root, flush_events=flush, create=False)
    if not engine.verify()["ok"]:
        failures.append("segment store: checksum verify failed after save")

    # Zone-pruned scan vs. the unpruned predicate over every document.
    times = sorted(d.get("time", 0) for d in docs)
    lo = times[len(times) // 3]
    hi = times[2 * len(times) // 3]
    window = {"range": {"time": {"gte": lo, "lte": hi}}}
    from repro.backend.query import compile_query
    predicate = compile_query(window)
    pruned = sorted(json.dumps(d, sort_keys=True)
                    for d in engine.scan(window))
    full = sorted(json.dumps(d, sort_keys=True)
                  for d in engine.all_docs() if predicate(d))
    if pruned != full:
        failures.append(
            f"segment store: zone-pruned scan returned {len(pruned)} "
            f"docs, unpruned predicate {len(full)}")

    # Torn segment: truncate one file at an arbitrary byte; reopening
    # must drop exactly that segment and keep every neighbour intact.
    torn_root = tmp_dir / "segstore-torn"
    shutil.copytree(seg_root, torn_root)
    victims = sorted(torn_root.glob("*.dseg"))
    victim = victims[rng.randrange(len(victims))]
    blob = victim.read_bytes()
    victim.write_bytes(blob[:rng.randrange(0, len(blob))])
    victim_rows = next(s.rows for s in engine._segments
                       if s.path.name == victim.name)
    torn_engine = SegmentStorage(torn_root, flush_events=flush,
                                 create=False)
    if torn_engine.open_report["segments_dropped"] != 1:
        failures.append(
            f"torn segment: expected 1 dropped segment, reopen dropped "
            f"{torn_engine.open_report['segments_dropped']}")
    elif torn_engine.count() != engine.count() - victim_rows:
        failures.append(
            f"torn segment: survivors hold {torn_engine.count()} rows, "
            f"expected {engine.count() - victim_rows}")
    elif not torn_engine.verify()["ok"]:
        failures.append("torn segment: surviving store fails verify")
    torn_engine.close()

    # Torn storage WAL: unflushed appends, then a cut at an arbitrary
    # byte; recovery must yield a whole-frame prefix, nothing invented.
    wal_root = tmp_dir / "segstore-wal"
    head = docs[:min(len(docs), 12)]
    writer = SegmentStorage(wal_root, flush_events=len(head) + 1)
    for start in range(0, len(head), 4):
        writer.append(head[start:start + 4], session="segcheck")
    writer.close()
    wal_path = wal_root / WAL_NAME
    image = wal_path.read_bytes()
    wal_path.write_bytes(image[:rng.randrange(1, len(image))])
    reader = SegmentStorage(wal_root, flush_events=len(head) + 1,
                            create=False)
    recovered = reader._buffer
    boundaries = set(range(0, len(head) + 1, 4)) | {len(head)}
    if len(recovered) not in boundaries:
        failures.append(
            f"torn storage WAL: {len(recovered)} docs recovered, not a "
            f"whole-frame prefix of {len(head)}")
    elif recovered != head[:len(recovered)]:
        failures.append(
            "torn storage WAL: recovered docs are not a faithful "
            "prefix of the appended documents")
    reader.close()

    # Mid-compaction crash: the merged file is written but the
    # manifest swap never happens.  Reopening must see the
    # pre-compaction store (orphan removed) and a retry must succeed.
    crash_root = tmp_dir / "segstore-crash"
    crash_engine = SegmentStorage(crash_root, flush_events=4)
    loaded = crash_engine.import_docs(docs[:min(len(docs), 24)],
                                      session="segcheck")

    def _crash(stage: str) -> None:
        if stage == "compact":
            raise RuntimeError("dst: injected mid-compaction crash")

    crash_engine._crash_hook = _crash
    crashed = False
    try:
        crash_engine.compact(small_rows=64)
    except RuntimeError:
        crashed = True
    crash_engine.close()
    survivor = SegmentStorage(crash_root, flush_events=4, create=False)
    if survivor.count() != loaded:
        failures.append(
            f"compaction crash: store holds {survivor.count()} rows "
            f"after reopen, expected {loaded}")
    if not survivor.verify()["ok"]:
        failures.append("compaction crash: reopened store fails verify")
    if crashed and not survivor.open_report["orphans_removed"]:
        failures.append(
            "compaction crash: the half-written merged segment was "
            "not cleaned up on reopen")
    survivor.compact(small_rows=64)
    if survivor.count() != loaded:
        failures.append(
            f"compaction retry: row count drifted to {survivor.count()}, "
            f"expected {loaded}")
    if not survivor.verify()["ok"]:
        failures.append("compaction retry: compacted store fails verify")
    survivor.close()
    engine.close()

    # Crash between the flush publishing its segment in the manifest
    # and the WAL reset: the sealed rows are still framed in the WAL,
    # and replay must skip them (the manifest's wal_sealed watermark
    # covers their record ids), not duplicate every row.
    pub_root = tmp_dir / "segstore-pub"
    pub_engine = SegmentStorage(pub_root, flush_events=len(head) + 1)
    for start in range(0, len(head), 4):
        pub_engine.append(head[start:start + 4], session="segcheck")

    def _crash_published(stage: str) -> None:
        if stage == "flush-published":
            raise RuntimeError("dst: injected crash before WAL reset")

    pub_engine._crash_hook = _crash_published
    try:
        pub_engine.flush()
        failures.append("flush-publish crash: hook never fired")
    except RuntimeError:
        pass
    pub_engine.close()
    pub_survivor = SegmentStorage(pub_root, flush_events=len(head) + 1,
                                  create=False)
    if pub_survivor.count() != len(head):
        failures.append(
            f"flush-publish crash: store holds {pub_survivor.count()} "
            f"rows after reopen, expected {len(head)} (sealed WAL "
            "records replayed as duplicates?)")
    if pub_survivor.open_report["wal_docs_skipped_sealed"] != len(head):
        failures.append(
            "flush-publish crash: reopen did not skip the sealed WAL "
            f"records ({pub_survivor.open_report} )")
    if not pub_survivor.verify()["ok"]:
        failures.append("flush-publish crash: reopened store fails verify")
    pub_survivor.close()
    return failures


def ring_twin_checks(fast: PipelineRun, scenario: Scenario) -> list[str]:
    """Classic-twin oracle for ring-aware scenarios.

    Re-runs the scenario with the tracer forced to ``ring_mode =
    "classic"`` — the applications are untouched and the ring-aware
    observer charges no virtual time, so the kernel-level outcome must
    be identical: same file bytes for every pool path, same syscall
    counts, same io_uring ring statistics.  When neither capture lost
    events, the ring-aware document set minus the ``uring_*`` per-op
    events must equal the classic capture exactly (the blind spot is
    *additive* visibility, never divergence).
    """
    failures: list[str] = []
    if scenario.ring_mode != "ring-aware":
        return failures
    twin = execute_pipeline(scenario, ring_mode="classic")

    for path in PATH_POOL:
        fast_inode = fast.kernel.vfs.lookup(path)
        twin_inode = twin.kernel.vfs.lookup(path)
        fast_data = None if fast_inode is None else bytes(fast_inode.data)
        twin_data = None if twin_inode is None else bytes(twin_inode.data)
        if fast_data != twin_data:
            failures.append(
                f"ring twin: {path} diverged (ring-aware "
                f"{len(fast_data or b'')} B vs classic "
                f"{len(twin_data or b'')} B)")
    if (dict(fast.kernel.syscall_counts)
            != dict(twin.kernel.syscall_counts)):
        failures.append(
            f"ring twin: syscall counts diverged "
            f"{dict(fast.kernel.syscall_counts)} vs "
            f"{dict(twin.kernel.syscall_counts)}")
    if fast.kernel.uring_stats != twin.kernel.uring_stats:
        failures.append(
            f"ring twin: io_uring stats diverged "
            f"{fast.kernel.uring_stats} vs {twin.kernel.uring_stats}")

    # Document-set comparison only when nothing could legitimately
    # lose events: ring-aware produces more volume, so faults, crash
    # points, and drop backpressure can swallow *different* events in
    # the two captures without either being wrong.
    def lossless(run: PipelineRun) -> bool:
        stats = run.tracer.stats
        return (run.tracer.ring.stats.dropped == 0
                and stats.spilled_records == 0)

    fault_free = (not scenario.fault_windows
                  and not scenario.consumer_crashes
                  and not scenario.store_crashes
                  and scenario.backpressure_policy != "drop")
    if fault_free and lossless(fast) and lossless(twin):
        from repro.kernel.uring import URING_EVENT_NAMES
        fast_keys = {invariants.event_key(s) for _, s in fast.docs
                     if s.get("syscall") not in URING_EVENT_NAMES}
        twin_keys = {invariants.event_key(s) for _, s in twin.docs}
        if fast_keys != twin_keys:
            missing = len(twin_keys - fast_keys)
            extra = len(fast_keys - twin_keys)
            failures.append(
                f"ring twin: classic-visible events diverged "
                f"({missing} missing, {extra} extra in the ring-aware "
                f"capture after removing uring_* events)")
    return failures


def shard_lifecycle_checks(run: PipelineRun, scenario: Scenario,
                           tmp_dir) -> list[str]:
    """Shard-kill/restore and mid-life rebalance (``shard_count > 1``).

    Runs last — it mutates the fast store, after every digest and
    oracle comparison has been taken.  A seed-chosen shard is killed
    and restored from a saved shard image — first, into a scratch
    router, from a copy of that image torn at a seed-chosen byte, which
    must restore exactly the frames wholly inside the prefix — then the
    store is rebalanced to a different shard count; documents, global
    order, and the dashboard aggregation must come through both
    transitions byte-identically.
    """
    import pathlib

    from repro.backend.router import (SHARD_IMAGE_MAGIC, SHARD_IMAGE_NAME,
                                      ShardedDocumentStore)
    from repro.backend.wal import encode_frame, scan_frames

    failures: list[str] = []
    store = run.inner_store
    if getattr(store, "shard_count", 1) < 2 or not run.docs:
        return failures
    rng = random.Random(f"dio-dst-shard-life-{scenario.seed}")
    root = pathlib.Path(tmp_dir) / "shards"
    dashboard_aggs = {"by_syscall": {"terms": {"field": "syscall",
                                               "size": 50}}}
    before_scan = store.scan(DST_INDEX, {"match_all": {}})
    before_aggs = store.search(DST_INDEX, size=0, aggs=dashboard_aggs)

    store.save_shards(root)
    victim = rng.randrange(store.shard_count)
    store.kill_shard(victim)
    after_kill = {doc_id for doc_id, _ in store.scan(DST_INDEX,
                                                     {"match_all": {}})}
    survivors = {doc_id for doc_id, _ in before_scan} - after_kill
    if after_kill - {doc_id for doc_id, _ in before_scan}:
        failures.append("shard kill: surviving shards invented documents")

    # Torn shard image.  The cut comes from its own derived stream so
    # the victim and rebalance draws of every seed stay what they were.
    image_rng = random.Random(f"dio-dst-shard-image-{scenario.seed}")
    shard_dir = f"shard-{victim:02d}"
    image = (root / shard_dir / SHARD_IMAGE_NAME).read_bytes()
    cut = image_rng.randrange(len(image) + 1)
    payloads, _ = scan_frames(image, len(SHARD_IMAGE_MAGIC))
    ends = list(itertools.accumulate(
        (len(encode_frame(payload)) for payload in payloads),
        initial=len(SHARD_IMAGE_MAGIC)))
    complete = sum(1 for end in ends[1:] if end <= cut)
    torn = cut - ends[complete] if cut >= ends[0] else cut
    expected = [(doc_id, source) for name, doc_id, _, source
                in map(json.loads, payloads[:complete]) if name == DST_INDEX]
    torn_root = pathlib.Path(tmp_dir) / "shards-torn"
    (torn_root / shard_dir).mkdir(parents=True, exist_ok=True)
    (torn_root / shard_dir / SHARD_IMAGE_NAME).write_bytes(image[:cut])
    scratch = ShardedDocumentStore(shard_count=store.shard_count,
                                   shard_key=store.shard_key)
    scratch.ensure_index(DST_INDEX)
    scratch.restore_shard(victim, torn_root)
    if (scratch.scan(DST_INDEX, {"match_all": {}}) != expected
            or scratch.shard_restore_report["torn_bytes_dropped"] != torn):
        failures.append(
            f"torn shard image: cut at byte {cut} of {len(image)} keeps "
            f"{complete} whole frames and {torn} torn bytes, restore "
            f"applied {scratch.count(DST_INDEX)} documents and reported "
            f"{scratch.shard_restore_report}")

    store.restore_shard(victim, root)
    if store.scan(DST_INDEX, {"match_all": {}}) != before_scan:
        failures.append(
            f"shard restore: store differs from the pre-kill snapshot "
            f"(killed shard {victim}, {len(survivors)} docs were down)")

    choices = [n for n in (1, 2, 3, 4) if n != store.shard_count]
    store.rebalance(shard_count=rng.choice(choices))
    if store.scan(DST_INDEX, {"match_all": {}}) != before_scan:
        failures.append("rebalance: documents changed while moving shards")
    elif store.search(DST_INDEX, size=0,
                      aggs=dashboard_aggs) != before_aggs:
        failures.append("rebalance: dashboard aggregation diverged")
    return failures


# ----------------------------------------------------------------------
# The full per-seed harness

def run_scenario(scenario: Scenario, *, check_determinism: bool = True,
                 check_oracle: bool = True,
                 tmp_dir=None) -> RunResult:
    """Run every stage for one scenario; see the module docstring."""
    import tempfile

    failures: list[str] = []

    fast = execute_pipeline(scenario)
    ctx = invariants.RunContext(
        scenario=scenario, tracer=fast.tracer, store=fast.store,
        inner_store=fast.inner_store, crashing=fast.crashing,
        faulty=fast.faulty, index=DST_INDEX, session=fast.session,
        traced_pids=fast.traced_pids, docs=fast.docs)
    failures += invariants.check_all(ctx)

    times = [source.get("time", 0) for _, source in fast.docs]
    time_lo, time_hi = (min(times), max(times)) if times else (0, 1)
    battery_failures, battery_results = differential.run_battery(
        fast.inner_store, DST_INDEX, scenario.seed, time_lo, time_hi)
    failures += battery_failures
    dashboards = render_dashboards(fast)
    digest = run_digest(fast, battery_results, dashboards)

    if check_oracle:
        oracle = execute_pipeline(scenario, oracle=True, shard_count=1)
        failures += differential.compare_twin_runs(
            fast.docs, oracle.docs, fast.report, oracle.report)
        failures += ring_twin_checks(fast, scenario)

    if check_determinism:
        rerun = execute_pipeline(scenario)
        _, rerun_battery = differential.run_battery(
            rerun.inner_store, DST_INDEX, scenario.seed, time_lo, time_hi)
        rerun_digest = run_digest(rerun, rerun_battery,
                                  render_dashboards(rerun))
        if rerun_digest != digest:
            failures.append(
                f"non-deterministic: same-seed rerun digest "
                f"{rerun_digest[:16]} != {digest[:16]}")

    if tmp_dir is None:
        with tempfile.TemporaryDirectory(prefix="dio-dst-") as tmp:
            failures += storage_recovery_checks(fast, scenario, tmp)
            failures += shard_lifecycle_checks(fast, scenario, tmp)
    else:
        failures += storage_recovery_checks(fast, scenario, tmp_dir)
        failures += shard_lifecycle_checks(fast, scenario, tmp_dir)

    return RunResult(
        seed=scenario.seed,
        failures=failures,
        digest=digest,
        events_produced=fast.tracer.ring.stats.produced,
        events_stored=len(fast.docs),
        consumer_crashes=len(scenario.consumer_crashes),
        store_crashes=(fast.crashing.crashes_total
                       if fast.crashing else 0),
        faults_injected=fast.faulty.faults_injected,
        spilled=fast.tracer.stats.spilled_records,
        scenario=scenario,
    )


def run_seed(seed: int, **kwargs) -> RunResult:
    """Generate and run the scenario for ``seed``."""
    return run_scenario(generate(seed), **kwargs)
