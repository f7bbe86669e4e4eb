"""What a registry row can arm: twin comparisons and post-run stages.

A *twin comparison* judges the fast run against a second run of the
same scenario (``compare(fast, twin) -> failures``).  A *post-run
stage* (``stage(run, tmp_dir) -> failures``) damages what the fast run
left behind — its export, its segment store, its shard images — the
way a crash would, under the seed's one temp dir.  Which axis arms
which is the row's business (:data:`repro.dst.scenario.AXES`).  A stage
draws every choice from a derived stream of its own
(``run.stream(name)``), so it moves no other stage's cut points.
"""

from __future__ import annotations

import bisect
import itertools
import json
import shutil

from repro.backend.persistence import (export_session, import_session,
                                       load_session, recover_session,
                                       save_session)
from repro.backend.query import compile_query
from repro.backend.router import (SHARD_IMAGE_MAGIC, SHARD_IMAGE_NAME,
                                  ShardedDocumentStore)
from repro.backend.lanes import DocBatch
from repro.backend.segments import WAL_NAME, SegmentStorage
from repro.backend.store import DocumentStore
from repro.backend.wal import encode_frame, scan_frames
from repro.dst.invariants import event_key
from repro.dst.ops import PATH_POOL
from repro.kernel.uring import URING_EVENT_NAMES
from repro.tracer.spill import SpillWAL

#: What ``dio dashboard``'s syscall histogram asks the store.
DASHBOARD_AGGS = {"by_syscall": {"terms": {"field": "syscall", "size": 50}}}

def torn_image_law(log: str, image: bytes, ends: list, cut: int,
                   written: list, recover) -> list[str]:
    """The one law every framed log obeys when torn at byte ``cut``.

    ``ends[0]`` is the magic's length and ``ends[i]`` the offset just
    past frame *i* as its writer laid it down (the expectation never
    comes from scanning the torn bytes); ``written[i - 1]`` lists the
    records frame *i* carries.  ``recover(image[:cut])`` must return
    the records of the frames wholly inside the prefix and report
    every byte after them as dropped — all of it for a torn magic.
    """
    complete = bisect.bisect_right(ends, cut) - 1 if cut >= ends[0] else 0
    torn = cut - ends[complete] if cut >= ends[0] else cut
    kept, dropped = recover(image[:cut])
    expected = [record for frame in written[:complete] for record in frame]
    if list(kept) == expected and dropped == torn:
        return []
    return [f"torn {log}: a cut at byte {cut} of {len(image)} leaves "
            f"{complete} whole frames ({len(expected)} records) and {torn} "
            f"torn bytes; recovery kept {len(kept)} records and reported "
            f"{dropped} bytes dropped"]


def session_export(run, tmp_dir):
    """``(path, events, store)``: the session's JSON-lines export and a
    store re-imported from it, written once per seed for every stage."""
    if run.export is None:
        path = tmp_dir / f"session-{run.scenario.seed}.jsonl"
        exported = export_session(run.inner_store, run.session, path,
                                  index=run.index)
        store = DocumentStore()
        import_session(store, path, index=run.index, rename_to="segcheck")
        run.export = (path, exported, store)
    return run.export


def _crash_at(point: str):
    """A ``SegmentStorage._crash_hook`` that dies at ``point``."""
    def hook(stage: str) -> None:
        if stage == point:
            raise RuntimeError(f"dst: injected crash at {point}")
    return hook


def _wal_tail(root, head: list) -> tuple[SegmentStorage, list, list]:
    """A fresh store holding ``head`` as unflushed 4-document appends:
    ``(engine, chunks, WAL size before the first append and after each)``."""
    engine = SegmentStorage(root, flush_events=len(head) + 1)
    chunks = [head[start:start + 4] for start in range(0, len(head), 4)]
    ends = [(root / WAL_NAME).stat().st_size]
    for chunk in chunks:
        engine.append(chunk, session="segcheck")
        ends.append((root / WAL_NAME).stat().st_size)
    return engine, chunks, ends


def _holds(engine: SegmentStorage, label: str, rows: int,
           failures: list) -> SegmentStorage:
    """``engine`` must hold ``rows`` rows and pass its checksum sweep."""
    if engine.count() != rows:
        failures.append(f"{label}: store holds {engine.count()} rows, "
                        f"expected {rows}")
    if not engine.verify()["ok"]:
        failures.append(f"{label}: store fails verify")
    return engine


def _reopened(root, flush: int, label: str, rows: int,
              failures: list) -> SegmentStorage:
    """Reopen the store at ``root``; it must hold ``rows`` and verify."""
    return _holds(SegmentStorage(root, flush_events=flush, create=False),
                  f"{label}: after reopen", rows, failures)


# ----------------------------------------------------------------------
# Post-run stages

def storage_recovery_checks(run, tmp_dir) -> list[str]:
    """The session export round-trips, survives a tear at a seed-chosen
    byte and a replay that doubles every line; the spill WAL image
    obeys the torn-image law."""
    failures: list[str] = []
    rng = run.stream("storage")
    seed = run.scenario.seed
    export_path, exported, clean = session_export(run, tmp_dir)
    if clean.count(run.index) != exported:
        failures.append(f"session round-trip lost events: exported "
                        f"{exported}, imported {clean.count(run.index)}")

    # Torn tail: cut the file at an arbitrary byte; recovery must keep
    # exactly the lines whose every byte before the newline survived
    # (a cut exactly there leaves a complete but unterminated record,
    # which recovery rightly keeps) — the header first.
    blob = export_path.read_bytes()
    cut = rng.randrange(1, len(blob))
    torn_path = tmp_dir / f"session-{seed}-torn.jsonl"
    torn_path.write_bytes(blob[:cut])
    newlines = [at for at, byte in enumerate(blob) if byte == 0x0A]
    complete_data_lines = bisect.bisect_right(newlines, cut) - 1
    recovered = DocumentStore()
    report = recover_session(recovered, torn_path, index=run.index,
                             rename_to="torn")
    if complete_data_lines < 0:
        if report["imported"]:
            failures.append("torn session: recovered events from a file "
                            "with a torn header")
    else:
        if report["imported"] != complete_data_lines:
            failures.append(
                f"torn session: {complete_data_lines} complete lines survived "
                f"the tear but {report['imported']} were recovered")
        if report["imported"] and report["dropped_corrupt"] > 1:
            failures.append(
                f"torn session: {report['dropped_corrupt']} corrupt lines "
                f"dropped; a single tear can only corrupt one")
        # Recovered events must be a faithful prefix (no mutation).
        original_keys = {event_key(s) for _, s in run.docs}
        if report["imported"] and any(
                event_key(source) not in original_keys
                for _, source in recovered.scan(run.index)):
            failures.append("torn session: recovery invented an event not "
                            "present in the original capture")

    # Duplicate replay: a log replayed over lines already applied
    # leaves every data line twice; each event is applied once.
    header, *lines = blob.splitlines(keepends=True)
    doubled_path = tmp_dir / f"session-{seed}-doubled.jsonl"
    doubled_path.write_bytes(header + b"".join(line * 2 for line in lines))
    report = recover_session(DocumentStore(), doubled_path, index=run.index,
                             rename_to="dup")
    if (report["imported"], report["dropped_duplicates"]) != (exported,
                                                              exported):
        failures.append(
            f"duplicate replay: {exported} events written twice, recovery "
            f"imported {report['imported']} and dropped "
            f"{report['dropped_duplicates']} duplicates")

    # Spill WAL image: an append-only image grows by whole frames, so
    # its length after each append is where the next frame begins.
    wal = SpillWAL()
    batch = [source for _, source in run.docs[:8]]
    ends = [len(wal.to_bytes())]
    for now_ns, docs, reason in ((1, batch, "retries-exhausted"),
                                 (2, batch[:3], "dst")):
        wal.append(docs, now_ns=now_ns, reason=reason)
        ends.append(len(wal.to_bytes()))
    image = wal.to_bytes()

    def recover_spill(data: bytes):
        recovered_wal, wal_report = SpillWAL.recover(data)
        return recovered_wal._segments, wal_report["torn_bytes_dropped"]

    written = [[segment] for segment in wal._segments]
    for cut in (len(image), rng.randrange(1, len(image))):
        failures += torn_image_law("spill WAL", image, ends, cut, written,
                                   recover_spill)
    return failures


def segment_storage_checks(run, tmp_dir) -> list[str]:
    """The segment engine loads what the JSON-lines export loads; a
    segment file torn at an arbitrary byte is rejected whole without
    touching its neighbours; the storage WAL obeys the torn-image law;
    a crash mid-compaction leaves a store that reopens clean and
    compacts on retry; a crash between a flush's manifest publish and
    its WAL reset does not replay the sealed records as duplicates."""
    failures: list[str] = []
    rng = run.stream("segments")
    docs = [source for _, source in run.docs]
    # Small segments on purpose: several files per store, so tearing
    # one and compacting the rest both have something to chew on.
    flush = max(4, len(docs) // 5)

    # Differential oracle: the same session saved both ways must load
    # back with identical contents.
    seg_root = tmp_dir / "segstore"
    save_session(run.inner_store, run.session, seg_root, index=run.index,
                 flush_events=flush)
    via_segments = DocumentStore()
    load_session(via_segments, seg_root, index=run.index,
                 rename_to="segcheck")
    seg_docs = [s for _, s in via_segments.scan(run.index)]
    _, _, via_jsonl = session_export(run, tmp_dir)
    ora_docs = [s for _, s in via_jsonl.scan(run.index)]
    if (json.dumps(seg_docs, sort_keys=True)
            != json.dumps(ora_docs, sort_keys=True)):
        failures.append(f"segment store: loaded session differs from the "
                        f"jsonl oracle ({len(seg_docs)} vs {len(ora_docs)} "
                        f"docs)")

    engine = _reopened(seg_root, flush, "segment store", len(docs), failures)

    # Zone-pruned scan vs. the unpruned predicate over every document.
    times = sorted(d.get("time", 0) for d in docs)
    window = {"range": {"time": {"gte": times[len(times) // 3],
                                 "lte": times[2 * len(times) // 3]}}}
    predicate = compile_query(window)
    pruned = sorted(json.dumps(d, sort_keys=True)
                    for d in engine.scan(window))
    full = sorted(json.dumps(d, sort_keys=True)
                  for d in engine.all_docs() if predicate(d))
    if pruned != full:
        failures.append(f"segment store: zone-pruned scan returned "
                        f"{len(pruned)} docs, unpruned predicate {len(full)}")

    # Torn segment: truncate one file at an arbitrary byte; reopening
    # must drop exactly that segment and keep every neighbour intact.
    torn_root = tmp_dir / "segstore-torn"
    shutil.copytree(seg_root, torn_root)
    victims = sorted(torn_root.glob("*.dseg"))
    victim = victims[rng.randrange(len(victims))]
    blob = victim.read_bytes()
    victim.write_bytes(blob[:rng.randrange(0, len(blob))])
    victim_rows = next(s.rows for s in engine.segments()
                       if s.path.name == victim.name)
    torn_engine = _reopened(torn_root, flush, "torn segment",
                            engine.count() - victim_rows, failures)
    dropped = torn_engine.open_report["segments_dropped"]
    if dropped != 1:
        failures.append(f"torn segment: expected 1 dropped segment, reopen "
                        f"dropped {dropped}")
    torn_engine.close()
    engine.close()

    # Torn storage WAL: unflushed appends, then a cut at an arbitrary
    # byte; reopening replays exactly the frames inside the prefix.
    wal_root = tmp_dir / "segstore-wal"
    head = docs[:12]
    writer, chunks, ends = _wal_tail(wal_root, head)
    writer.close()
    image = (wal_root / WAL_NAME).read_bytes()

    def recover_wal(data: bytes):
        (wal_root / WAL_NAME).write_bytes(data)
        reader = SegmentStorage(wal_root, flush_events=len(head) + 1,
                                create=False)
        reader.close()
        return reader._buffer, reader.open_report["wal_torn_bytes_dropped"]

    cut = rng.randrange(1, len(image))
    failures += torn_image_law("storage WAL", image, ends, cut, chunks,
                               recover_wal)

    # Mid-compaction crash: the merged file is written but the
    # manifest swap never happens.  Reopening must see the
    # pre-compaction store (orphan removed) and a retry must succeed.
    crash_root = tmp_dir / "segstore-crash"
    crash_engine = SegmentStorage(crash_root, flush_events=4)
    loaded = crash_engine.import_batch(DocBatch(docs[:24]),
                                       session="segcheck")
    crash_engine._crash_hook = _crash_at("compact")
    crashed = False
    try:
        crash_engine.compact(small_rows=64)
    except RuntimeError:
        crashed = True
    crash_engine.close()
    survivor = _reopened(crash_root, 4, "compaction crash", loaded, failures)
    if crashed and not survivor.open_report["orphans_removed"]:
        failures.append("compaction crash: the half-written merged segment "
                        "was not cleaned up on reopen")
    survivor.compact(small_rows=64)
    _holds(survivor, "compaction retry", loaded, failures).close()

    # Crash between the flush publishing its segment in the manifest
    # and the WAL reset: the sealed rows are still framed in the WAL,
    # and replay must skip them (the manifest's wal_sealed watermark
    # covers their record ids), not duplicate every row.
    pub_root = tmp_dir / "segstore-pub"
    pub_engine, _, _ = _wal_tail(pub_root, head)
    pub_engine._crash_hook = _crash_at("flush-published")
    try:
        pub_engine.flush()
        failures.append("flush-publish crash: hook never fired")
    except RuntimeError:
        pass
    pub_engine.close()
    pub_survivor = _reopened(pub_root, len(head) + 1, "flush-publish crash",
                             len(head), failures)
    if pub_survivor.open_report["wal_docs_skipped_sealed"] != len(head):
        failures.append("flush-publish crash: reopen did not skip the sealed "
                        f"WAL records ({pub_survivor.open_report})")
    pub_survivor.close()
    return failures


def shard_lifecycle_checks(run, tmp_dir) -> list[str]:
    """A seed-chosen shard is killed and restored from its saved image
    (first, into a scratch router, from a copy torn at a seed-chosen
    byte: the torn-image law), then the store is rebalanced to another
    shard count; documents, global order and the dashboard aggregation
    come through byte-identically.  Mutates the fast store."""
    failures: list[str] = []
    store, index = run.inner_store, run.index
    if getattr(store, "shard_count", 1) < 2:
        return failures             # nothing to kill or rebalance
    rng = run.stream("shard-life")
    root = tmp_dir / "shards"
    before_scan = store.scan(index)
    before_aggs = store.search(index, size=0, aggs=DASHBOARD_AGGS)
    before_ids = {doc_id for doc_id, _ in before_scan}

    store.save_shards(root)
    victim = rng.randrange(store.shard_count)
    store.kill_shard(victim)
    after_kill = {doc_id for doc_id, _ in store.scan(index)}
    if after_kill - before_ids:
        failures.append("shard kill: surviving shards invented documents")

    # Torn shard image.  The cut comes from its own derived stream so
    # the victim and rebalance draws of every seed stay what they were.
    shard_dir = f"shard-{victim:02d}"
    image = (root / shard_dir / SHARD_IMAGE_NAME).read_bytes()
    payloads, _ = scan_frames(image, len(SHARD_IMAGE_MAGIC))
    ends = list(itertools.accumulate(
        (len(encode_frame(payload)) for payload in payloads),
        initial=len(SHARD_IMAGE_MAGIC)))
    written = [[(doc_id, source)] if name == index else []
               for name, doc_id, _, source in map(json.loads, payloads)]
    torn_root = tmp_dir / "shards-torn"
    (torn_root / shard_dir).mkdir(parents=True, exist_ok=True)

    def recover_image(data: bytes):
        (torn_root / shard_dir / SHARD_IMAGE_NAME).write_bytes(data)
        scratch = ShardedDocumentStore(shard_count=store.shard_count,
                                       shard_key=store.shard_key)
        scratch.ensure_index(index)
        scratch.restore_shard(victim, torn_root)
        return (scratch.scan(index),
                scratch.shard_restore_report["torn_bytes_dropped"])

    cut = run.stream("shard-image").randrange(len(image) + 1)
    failures += torn_image_law("shard image", image, ends, cut, written,
                               recover_image)

    store.restore_shard(victim, root)
    if store.scan(index) != before_scan:
        failures.append(
            f"shard restore: store differs from the pre-kill snapshot (killed "
            f"shard {victim}, {len(before_ids - after_kill)} docs were down)")

    choices = [n for n in (1, 2, 3, 4) if n != store.shard_count]
    store.rebalance(shard_count=rng.choice(choices))
    if store.scan(index) != before_scan:
        failures.append("rebalance: documents changed while moving shards")
    elif store.search(index, size=0, aggs=DASHBOARD_AGGS) != before_aggs:
        failures.append("rebalance: dashboard aggregation diverged")
    return failures


# ----------------------------------------------------------------------
# Twin comparisons

def ring_twin_checks(fast, twin) -> list[str]:
    """Ring-aware capture vs. the same apps under a classic tracer.

    The ring-aware observer charges no virtual time, so the kernel-level
    outcome must be identical: same file bytes for every pool path,
    same syscall counts, same io_uring ring statistics.  When neither
    capture lost events, the ring-aware document set minus the
    ``uring_*`` per-op events must equal the classic capture exactly
    (the blind spot is *additive* visibility, never divergence).
    """
    failures: list[str] = []
    for path in PATH_POOL:
        fast_inode = fast.kernel.vfs.lookup(path)
        twin_inode = twin.kernel.vfs.lookup(path)
        fast_data = None if fast_inode is None else fast_inode.contents()
        twin_data = None if twin_inode is None else twin_inode.contents()
        if fast_data != twin_data:
            failures.append(
                f"ring twin: {path} diverged (ring-aware "
                f"{len(fast_data or b'')} B vs classic "
                f"{len(twin_data or b'')} B)")
    fast_counts = dict(fast.kernel.syscall_counts)
    twin_counts = dict(twin.kernel.syscall_counts)
    if fast_counts != twin_counts:
        failures.append(f"ring twin: syscall counts diverged {fast_counts} "
                        f"vs {twin_counts}")
    if fast.kernel.uring_stats != twin.kernel.uring_stats:
        failures.append(
            f"ring twin: io_uring stats diverged "
            f"{fast.kernel.uring_stats} vs {twin.kernel.uring_stats}")

    # Document-set comparison only when nothing could legitimately
    # lose events: ring-aware produces more volume, so faults, crash
    # points, and drop backpressure can swallow *different* events in
    # the two captures without either being wrong.
    def lossless(run) -> bool:
        return (run.tracer.ring.stats.dropped == 0
                and run.tracer.stats.spilled_records == 0)

    scenario = fast.scenario
    fault_free = (not scenario.fault_windows
                  and not scenario.consumer_crashes
                  and not scenario.store_crashes
                  and scenario.backpressure_policy != "drop")
    if fault_free and lossless(fast) and lossless(twin):
        fast_keys = {event_key(s) for _, s in fast.docs
                     if s.get("syscall") not in URING_EVENT_NAMES}
        twin_keys = {event_key(s) for _, s in twin.docs}
        if fast_keys != twin_keys:
            failures.append(
                f"ring twin: classic-visible events diverged "
                f"({len(twin_keys - fast_keys)} missing, "
                f"{len(fast_keys - twin_keys)} extra in the ring-aware "
                f"capture after removing uring_* events)")
    return failures
