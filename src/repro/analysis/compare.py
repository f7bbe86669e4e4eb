"""Comparing tracing sessions (paper §II: post-mortem analysis).

The paper validates Fluent Bit's fix by tracing both versions and
comparing the two executions (Fig. 2a vs 2b).  This module automates
that comparison:

- :func:`session_fingerprint` — aggregate view of one session;
- :func:`compare_sessions` — count deltas between two sessions plus the
  *first behavioural divergence*: the earliest point where the two
  normalized event sequences differ (for the Fluent Bit case, exactly
  the stale ``lseek``).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.analysis.session import SessionEvents
from repro.backend.lanes import LaneBatch
from repro.backend.store import DocumentStore


def session_fingerprint(store: DocumentStore, session: str,
                        index: str = "dio_trace") -> dict:
    """Aggregate statistics of one session."""
    response = store.search(
        index, query={"term": {"session": session}}, size=0,
        aggs={
            "by_syscall": {"terms": {"field": "syscall", "size": 50}},
            "by_proc": {"terms": {"field": "proc_name", "size": 50}},
            "errors": {"value_count": {"field": "ret"}},
            "bytes": {"sum": {"field": "ret"}},
        })
    aggs = response["aggregations"]
    failed = store.count(index, {"bool": {"must": [
        {"term": {"session": session}},
        {"range": {"ret": {"lt": 0}}},
    ]}})
    return {
        "session": session,
        "events": response["hits"]["total"]["value"],
        "by_syscall": {b["key"]: b["doc_count"]
                       for b in aggs["by_syscall"]["buckets"]},
        "by_proc": {b["key"]: b["doc_count"]
                    for b in aggs["by_proc"]["buckets"]},
        "failed_syscalls": failed,
    }


class Divergence(NamedTuple):
    """The first point where two sessions behave differently."""

    position: int
    event_a: Optional[dict]
    event_b: Optional[dict]

    def describe(self) -> str:
        """Human-readable one-liner."""

        def fmt(event):
            if event is None:
                return "(sequence ended)"
            offset = event.get("offset")
            suffix = f" @ {offset}" if offset is not None else ""
            return f"{event['proc_name']}: {event['syscall']} = {event['ret']}{suffix}"

        return (f"step {self.position}: {fmt(self.event_a)}  vs  "
                f"{fmt(self.event_b)}")


class SessionComparison(NamedTuple):
    """Outcome of comparing two sessions."""

    session_a: str
    session_b: str
    syscall_deltas: dict[str, int]
    common_prefix: int
    divergence: Optional[Divergence]

    @property
    def behaviorally_identical(self) -> bool:
        """True when the normalized event sequences match exactly."""
        return self.divergence is None


def _sequence(store: DocumentStore, session: str, index: str,
              procs: Optional[list[str]]) -> LaneBatch:
    """The session's events in time order (of ``procs`` alone, if
    given), as lanes."""
    batch = SessionEvents(store, index, session).batch
    if not procs:
        return batch
    wanted = set(procs)
    return batch.take([row for row, name
                       in enumerate(batch.values_for("proc_name"))
                       if name in wanted])


def _normalize(events: LaneBatch) -> list[tuple]:
    """Project events onto behaviour: thread order, syscall, ret, offset.

    Process names are replaced by order of first appearance, so renamed
    threads (``fluent-bit`` vs ``flb-pipeline``) still align.
    """
    alias: dict[str, str] = {}
    normalized = []
    for name, syscall, ret, offset in zip(
            events.values_for("proc_name"), events.values_for("syscall"),
            events.values_for("ret"), events.values_for("offset")):
        if name not in alias:
            alias[name] = f"P{len(alias)}"
        normalized.append((alias[name], syscall, ret, offset))
    return normalized


def compare_sessions(store: DocumentStore, session_a: str, session_b: str,
                     index: str = "dio_trace",
                     procs: Optional[list[str]] = None) -> SessionComparison:
    """Compare two sessions' behaviour.

    ``procs`` optionally restricts the sequence comparison to a set of
    process names (after which normalization still applies).
    """
    fp_a = session_fingerprint(store, session_a, index)
    fp_b = session_fingerprint(store, session_b, index)
    syscalls = set(fp_a["by_syscall"]) | set(fp_b["by_syscall"])
    deltas = {
        name: fp_b["by_syscall"].get(name, 0) - fp_a["by_syscall"].get(name, 0)
        for name in sorted(syscalls)
        if fp_b["by_syscall"].get(name, 0) != fp_a["by_syscall"].get(name, 0)
    }

    events_a = _sequence(store, session_a, index, procs)
    events_b = _sequence(store, session_b, index, procs)
    norm_a = _normalize(events_a)
    norm_b = _normalize(events_b)

    prefix = 0
    for left, right in zip(norm_a, norm_b):
        if left != right:
            break
        prefix += 1

    divergence: Optional[Divergence] = None
    if prefix < max(len(norm_a), len(norm_b)):
        # The two events it cites are the only documents built.
        divergence = Divergence(
            position=prefix,
            event_a=(events_a.docs_at([prefix])[0]
                     if prefix < len(events_a) else None),
            event_b=(events_b.docs_at([prefix])[0]
                     if prefix < len(events_b) else None),
        )
    return SessionComparison(session_a, session_b, deltas, prefix, divergence)
