"""Global pipeline invariants checked after every DST scenario.

Each check is a pure function over a finished run (a
:class:`~repro.dst.runner.PipelineRun`) returning a
list of human-readable violation strings (empty = holds).  The library
encodes what must be true of *any* run of the pipeline, whatever the
workload, config, fault plan, or crash schedule:

- **event conservation** — every record the ring buffers accepted is
  accounted for: indexed, still staged/spilled, shed by backpressure,
  or lost to a counted consumer crash — and the ``dio_*`` telemetry
  counters agree with the raw stats objects they mirror;
- **exactly-once** — no event document is duplicated (``(tid, time,
  syscall)`` is unique per capture) and the store holds exactly the
  shipped count;
- **per-file monotone offsets** — sequential read/write offsets never
  go backwards for a (thread, file-tag) pair that saw no seek,
  truncate, positioned I/O, or re-open (checked only on lossless runs:
  a dropped seek event would falsify the check, not the pipeline);
- **correlation consistency** — every resolved path really was opened
  under that tag, tags resolve to one path, unresolved events truly
  lack a captured open, and the report's tallies add up;
- **isolation** — an untraced process's events never reach the store;
- **store-crash recovery** — every torn-WAL rebuild reproduced the
  pre-crash state exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.backend.correlation import PATH_BEARING_SYSCALLS
from repro.kernel.syscalls import O_TRUNC
from repro.telemetry.health import Conservation

if TYPE_CHECKING:
    from repro.dst.runner import PipelineRun


def check_all(ctx: PipelineRun) -> list[str]:
    """Run the whole library; returns all violations found."""
    failures: list[str] = []
    failures += check_conservation(ctx)
    failures += check_telemetry_consistency(ctx)
    failures += check_exactly_once(ctx)
    failures += check_monotone_offsets(ctx)
    failures += check_correlation(ctx)
    failures += check_isolation(ctx)
    failures += check_store_recovery(ctx)
    return failures


# ----------------------------------------------------------------------
# Conservation

def check_conservation(ctx: PipelineRun) -> list[str]:
    """produced == stored + discarded + spilled, at every hop."""
    failures = []
    tracer = ctx.tracer
    ring = tracer.ring.stats
    stats = tracer.stats
    pending = tracer.ring.pending_records()

    # Kernel hop.  Under overwrite-oldest the dropped counter holds
    # records that *were* produced and then evicted; under drop-new and
    # sample a dropped record never counted as produced.
    if ctx.scenario.ring_policy == "overwrite-oldest":
        expect = ring.consumed + pending + ring.dropped
    else:
        expect = ring.consumed + pending
    if ring.produced != expect:
        failures.append(
            f"ring conservation: produced={ring.produced} != "
            f"consumed={ring.consumed} + pending={pending}"
            + (f" + dropped={ring.dropped}"
               if ctx.scenario.ring_policy == "overwrite-oldest" else ""))

    # Consumer hop: consumed records are parsed or shed.
    parsed = int(tracer.telemetry.registry.value(
        "dio_consumer_events_parsed_total"))
    shed = int(tracer.telemetry.registry.value("dio_consumer_shed_total"))
    if ring.consumed != parsed + shed:
        failures.append(
            f"consumer conservation: consumed={ring.consumed} != "
            f"parsed={parsed} + shed={shed}")

    # Shipping hop: parsed events are indexed, staged, spilled, or lost
    # to a counted consumer crash.
    accounted = (stats.shipped + stats.staged_records
                 + stats.spill_pending + stats.crash_lost)
    if parsed != accounted:
        failures.append(
            f"shipping conservation: parsed={parsed} != "
            f"shipped={stats.shipped} + staged={stats.staged_records} + "
            f"spill_pending={stats.spill_pending} + "
            f"crash_lost={stats.crash_lost}")

    # Crash losses only when a crash was scheduled.
    if not ctx.scenario.consumer_crashes and stats.crash_lost:
        failures.append(
            f"crash_lost={stats.crash_lost} without a scheduled "
            f"consumer crash")

    # Storage hop: the store holds exactly the shipped events.
    if len(ctx.docs) != stats.shipped:
        failures.append(
            f"storage conservation: store holds {len(ctx.docs)} docs "
            f"but shipped={stats.shipped}")

    # End to end, as `dio health` prints it.
    identity = Conservation.read(tracer.telemetry.registry)
    if not identity.holds:
        failures.append(identity.line())
    return failures


def check_telemetry_consistency(ctx: PipelineRun) -> list[str]:
    """The dio_* registry mirrors the raw counters exactly."""
    failures = []
    tracer = ctx.tracer
    registry = tracer.telemetry.registry
    stats = tracer.stats
    spill = tracer._spill
    pairs = (
        ("dio_ring_produced_total", tracer.ring.stats.produced),
        ("dio_ring_dropped_total", tracer.ring.stats.dropped),
        ("dio_ring_consumed_total", tracer.ring.stats.consumed),
        ("dio_shipper_events_total", stats.shipped),
        ("dio_consumer_batches_total", stats.batches),
        ("dio_consumer_bulk_attempts_total", stats.bulk_attempts),
        ("dio_shipper_retries_total", stats.ship_retries),
        ("dio_consumer_crash_lost_total", stats.crash_lost),
        ("dio_spill_records_total", spill.spilled_records_total),
        ("dio_spill_replayed_records_total", spill.replayed_records_total),
        ("dio_spill_pending_records", spill.pending_records),
        ("dio_consumer_staged_records", stats.staged_records),
    )
    for name, raw in pairs:
        try:
            reported = registry.value(name)
        except Exception as exc:
            failures.append(f"telemetry: cannot read {name}: {exc!r}")
            continue
        if int(reported) != int(raw):
            failures.append(
                f"telemetry drift: {name}={reported} but raw "
                f"counter says {raw}")
    return failures


# ----------------------------------------------------------------------
# Exactly-once

def event_key(source: dict) -> tuple:
    """Identity of one traced event within a capture."""
    return (source.get("tid"), source.get("time"), source.get("syscall"))


def check_exactly_once(ctx: PipelineRun) -> list[str]:
    """No duplicate events survive retries, spills, or crashes."""
    seen: dict[tuple, str] = {}
    failures = []
    for doc_id, source in ctx.docs:
        key = event_key(source)
        if key in seen:
            failures.append(
                f"duplicate event {key} (docs {seen[key]} and {doc_id})")
        else:
            seen[key] = doc_id
    return failures


# ----------------------------------------------------------------------
# Monotone offsets

#: Sequential syscalls whose recorded offset must never regress.
_SEQUENTIAL = frozenset({"read", "write", "readv", "writev"})
#: Events that legitimately move an fd's position or the file's size.
_POSITIONERS = frozenset({"lseek", "pread64", "pwrite64"})
_TRUNCATERS = frozenset({"truncate", "ftruncate"})


def check_monotone_offsets(ctx: PipelineRun) -> list[str]:
    """Sequential I/O offsets are non-decreasing per (tid, file tag).

    Only meaningful when the observation itself is complete: a dropped
    lseek would make a perfectly healthy app look like it seeked
    backwards, so the check is skipped on lossy runs.
    """
    stats = ctx.tracer.stats
    if (ctx.tracer.ring.stats.dropped or stats.crash_lost
            or int(ctx.tracer.telemetry.registry.value(
                "dio_consumer_shed_total"))):
        return []

    ordered = sorted((source for _, source in ctx.docs),
                     key=lambda s: (s.get("time", 0), s.get("tid", 0)))
    skip_tags: set = set()          # truncated files: size can shrink
    skip_paths: set = set()         # truncated paths (tagless events)
    skip_pairs: set = set()         # (tid, tag) with seeks/re-opens
    opens_seen: dict[tuple, int] = {}
    tags_by_path: dict[str, set] = {}
    for source in ordered:
        name = source.get("syscall")
        tag = source.get("file_tag")
        path = source.get("args", {}).get("path")
        truncating = (name in _TRUNCATERS or name == "creat"
                      or (name in PATH_BEARING_SYSCALLS
                          and source.get("args", {}).get("flags", 0)
                          & O_TRUNC))
        # creat(2) implies O_TRUNC but its traced args carry no flags
        # field, so it is a truncater by name; a path-based truncate
        # carries no file_tag at all, so truncated paths are tracked
        # separately and joined to tags through the captured opens.
        if truncating:
            if tag is not None:
                skip_tags.add(tag)
            if path is not None:
                skip_paths.add(path)
        if tag is None:
            continue
        tid = source.get("tid")
        if name in _POSITIONERS:
            skip_pairs.add((tid, tag))
        if name in PATH_BEARING_SYSCALLS and source.get("ret", -1) >= 0:
            if path is not None:
                tags_by_path.setdefault(path, set()).add(tag)
            opens_seen[(tid, tag)] = opens_seen.get((tid, tag), 0) + 1
            if opens_seen[(tid, tag)] > 1:
                skip_pairs.add((tid, tag))
    for path in skip_paths:
        skip_tags.update(tags_by_path.get(path, ()))

    failures = []
    last: dict[tuple, int] = {}
    for source in ordered:
        tag = source.get("file_tag")
        name = source.get("syscall")
        offset = source.get("offset")
        if (tag is None or offset is None or name not in _SEQUENTIAL
                or tag in skip_tags):
            continue
        pair = (source.get("tid"), tag)
        if pair in skip_pairs:
            continue
        if source.get("ret", -1) < 0:
            continue
        prev = last.get(pair)
        if prev is not None and offset < prev:
            failures.append(
                f"offset regression for tid={pair[0]} tag={tag}: "
                f"{name} at t={source.get('time')} has offset={offset} "
                f"after {prev}")
        last[pair] = max(offset, prev or 0)
    return failures


# ----------------------------------------------------------------------
# Correlation

def check_correlation(ctx: PipelineRun) -> list[str]:
    """file_tag/file_path consistency plus report arithmetic."""
    failures = []
    report = ctx.tracer.correlation_report
    opens_by_tag: dict[str, set] = {}
    for _, source in ctx.docs:
        tag = source.get("file_tag")
        path = source.get("args", {}).get("path")
        if (tag and path
                and source.get("syscall") in PATH_BEARING_SYSCALLS):
            opens_by_tag.setdefault(tag, set()).add(path)

    path_by_tag: dict[str, str] = {}
    tagged = unresolved = 0
    for doc_id, source in ctx.docs:
        tag = source.get("file_tag")
        if tag is None:
            continue
        tagged += 1
        path = source.get("file_path")
        if path is None:
            unresolved += 1
            if tag in opens_by_tag:
                failures.append(
                    f"doc {doc_id}: tag {tag} unresolved although an "
                    f"open for it was captured")
            continue
        if tag in path_by_tag and path_by_tag[tag] != path:
            failures.append(
                f"tag {tag} resolved to both {path_by_tag[tag]!r} "
                f"and {path!r}")
        path_by_tag.setdefault(tag, path)
        if path not in opens_by_tag.get(tag, set()):
            failures.append(
                f"doc {doc_id}: tag {tag} resolved to {path!r} which "
                f"no captured open produced")

    if report is not None:
        if report.documents_tagged != tagged:
            failures.append(
                f"correlation report counts {report.documents_tagged} "
                f"tagged docs, store holds {tagged}")
        if report.documents_unresolved != unresolved:
            failures.append(
                f"correlation report counts {report.documents_unresolved} "
                f"unresolved docs, store holds {unresolved}")
        if report.documents_tagged != (report.documents_updated
                                       + report.documents_unresolved):
            failures.append(
                f"correlation report does not add up: tagged="
                f"{report.documents_tagged} != updated="
                f"{report.documents_updated} + unresolved="
                f"{report.documents_unresolved}")
        if report.tags_resolved != len(path_by_tag):
            failures.append(
                f"correlation report counts {report.tags_resolved} "
                f"resolved tags, store shows {len(path_by_tag)}")
    return failures


# ----------------------------------------------------------------------
# Isolation & crash recovery

def check_isolation(ctx: PipelineRun) -> list[str]:
    """Untraced processes leave no trace in the store."""
    failures = []
    for doc_id, source in ctx.docs:
        if source.get("pid") not in ctx.traced_pids:
            failures.append(
                f"doc {doc_id}: event from untraced pid "
                f"{source.get('pid')} ({source.get('proc_name')!r}) "
                f"reached the store")
    return failures


def check_store_recovery(ctx: PipelineRun) -> list[str]:
    """Every torn-WAL rebuild reproduced the pre-crash store."""
    failures = []
    crashing = ctx.crashing
    if crashing is None:
        return failures
    for i, report in enumerate(crashing.recovery_reports):
        if not report["consistent"]:
            failures.append(
                f"store crash #{i + 1} at t={report['at_ns']}: WAL "
                f"rebuild diverged from pre-crash state "
                f"(replayed {report['replayed_docs']} docs, "
                f"{report['torn_bytes_dropped']} torn bytes)")
        # The only damage a crash leaves is a strict prefix of the one
        # in-flight frame.
        if not (0 <= report["torn_bytes_dropped"]
                < report["inflight_frame_bytes"]):
            failures.append(
                f"store crash #{i + 1}: {report['torn_bytes_dropped']} "
                f"torn WAL bytes, outside a strict prefix of the "
                f"{report['inflight_frame_bytes']}-byte in-flight frame")
    return failures
