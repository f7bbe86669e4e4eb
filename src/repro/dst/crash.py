"""Store-crash simulation with torn-WAL recovery.

:class:`CrashingStore` models the backend's durability contract the
way Elasticsearch's translog does: every *accepted* bulk request is
journaled (fsync-per-request) to an append-only WAL before it is
acknowledged, so a crash can lose at most the one record being written
at the instant of the crash — the in-flight bulk that was never acked.

At a scenario-chosen crash point (the k-th bulk reaching the store,
torn at an arbitrary byte fraction of the in-flight journal record)
the wrapper:

1. serializes the journal with the in-flight record torn mid-line;
2. rebuilds the inner store *from the torn journal alone* — dropping
   every index and replaying the parseable prefix — exactly what a
   restarted backend would do;
3. cross-checks the rebuilt state against the pre-crash state (the
   accepted bulks) and records the verdict;
4. raises a :class:`~repro.faults.InjectedFault` so the consumer's
   retry machinery re-ships the torn batch — which is what makes the
   pipeline exactly-once across store crashes.

The torn fraction is clamped so the in-flight line can never survive
complete: an fsync barrier sits between writing the record and acking
the request, so "fully written but unacked" (the duplicate-on-retry
case) is not in this failure model — see docs/RELIABILITY.md.
"""

from __future__ import annotations

import json
from typing import Callable, Optional

from repro.faults import InjectedFault

#: Journal header line (same JSON-lines discipline as the session
#: format and the spill WAL).
JOURNAL_FORMAT = "dio-store-wal-v1"


def _canonical_state(store) -> str:
    """A store's full content as one canonical JSON string."""
    state = {}
    for name in sorted(store.index_names()):
        docs = sorted(
            (doc_id, source)
            for doc_id, source in store.scan(name, {"match_all": {}}))
        state[name] = docs
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


class CrashingStore:
    """Wraps a store; crashes it at scheduled bulk ordinals.

    ``crash_points`` is a list of ``{"after_bulks": k, "torn_frac": f}``
    dicts: the k-th bulk call reaching this wrapper (1-based, counted
    across the store's lifetime) crashes the store with its journal
    record torn at fraction ``f``.  Everything not intercepted
    delegates to the inner store untouched.
    """

    def __init__(self, inner, crash_points: list,
                 clock: Optional[Callable[[], int]] = None,
                 recovery_cost_ns: int = 5_000_000):
        self.inner = inner
        self.clock = clock or (lambda: 0)
        self.recovery_cost_ns = recovery_cost_ns
        self._crash_at = sorted(
            (int(point["after_bulks"]), float(point["torn_frac"]))
            for point in crash_points)
        self._bulk_calls = 0
        #: Journal of accepted bulks: compact JSON lines.
        self._journal: list[str] = []
        #: ``ensure_index`` calls to replay before a journal rebuild
        #: (index settings live outside the data WAL, like an ES
        #: cluster-state snapshot).
        self._index_settings: dict[str, tuple] = {}
        #: Lifetime counters / verdicts for the invariant checker.
        self.crashes_total = 0
        self.journal_records_total = 0
        self.recovery_reports: list[dict] = []

    # ------------------------------------------------------------------
    # Intercepted APIs

    def ensure_index(self, name: str, indexed_fields=None):
        if indexed_fields:
            self._index_settings[name] = tuple(indexed_fields)
        return self.inner.ensure_index(name, indexed_fields=indexed_fields)

    def bulk(self, index: str, sources, nominal_ns: int = 0) -> int:
        self._bulk_calls += 1
        self._accept_bulk(json.dumps({"index": index, "docs": list(sources)},
                                     separators=(",", ":"), sort_keys=True))
        return self.inner.bulk(index, sources)

    def bulk_columnar(self, index: str, batch, nominal_ns: int = 0) -> int:
        """Vectorized bulk: journaled (and crashed) like any other.

        Shares the bulk ordinal counter with :meth:`bulk`, so a crash
        scheduled "after k bulks" fires at the same point whichever
        endpoint the consumer ships through — what lets the
        ``bulk``-only twin act as the oracle for crash scenarios.  The
        journal line needs JSON-able docs, so the batch materialises
        here; that is the durability contract's price, not the ingest
        path's.
        """
        self._bulk_calls += 1
        self._accept_bulk(json.dumps(
            {"index": index, "docs": batch.to_docs()},
            separators=(",", ":"), sort_keys=True))
        return self.inner.bulk_columnar(index, batch)

    def _accept_bulk(self, line: str) -> None:
        """Crash if this bulk is the scheduled one; journal it otherwise."""
        if self._crash_at and self._bulk_calls == self._crash_at[0][0]:
            _, torn_frac = self._crash_at.pop(0)
            self._crash(line, torn_frac)
            raise InjectedFault("store-crash", self.clock(),
                                cost_ns=self.recovery_cost_ns)
        self._journal.append(line)
        self.journal_records_total += 1

    # ------------------------------------------------------------------
    # Crash + recovery

    def journal_bytes(self, torn_line: Optional[str] = None,
                      torn_frac: float = 0.0) -> bytes:
        """The journal as an on-disk WAL image (optionally torn)."""
        lines = [json.dumps({"format": JOURNAL_FORMAT,
                             "records": len(self._journal)},
                            sort_keys=True)]
        lines.extend(self._journal)
        blob = "\n".join(lines) + "\n"
        if torn_line is not None:
            # Clamp so the torn record can never parse as complete.
            cut = min(int(len(torn_line) * torn_frac), len(torn_line) - 2)
            blob += torn_line[:max(0, cut)]
        return blob.encode("utf-8")

    def _crash(self, inflight_line: str, torn_frac: float) -> None:
        self.crashes_total += 1
        before = _canonical_state(self.inner)
        wal = self.journal_bytes(torn_line=inflight_line,
                                 torn_frac=torn_frac)
        report = self._rebuild_from_wal(wal)
        after = _canonical_state(self.inner)
        report["at_ns"] = self.clock()
        report["torn_frac"] = torn_frac
        report["consistent"] = (before == after)
        self.recovery_reports.append(report)

    def _rebuild_from_wal(self, wal: bytes) -> dict:
        """Drop all state and replay the parseable journal prefix."""
        report = {"replayed_bulks": 0, "replayed_docs": 0,
                  "torn_lines": 0}
        entries = []
        lines = wal.decode("utf-8", errors="replace").split("\n")
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                entries.append((str(entry["index"]), entry["docs"]))
            except (ValueError, KeyError, TypeError):
                report["torn_lines"] += 1
        for name in list(self.inner.index_names()):
            self.inner.delete_index(name)
        for name, fields in self._index_settings.items():
            self.inner.ensure_index(name, indexed_fields=fields)
        for name, docs in entries:
            self.inner.bulk(name, docs)
            report["replayed_bulks"] += 1
            report["replayed_docs"] += len(docs)
        return report

    # ------------------------------------------------------------------
    # Introspection / delegation

    @property
    def rebuilds_consistent(self) -> bool:
        """All post-crash rebuilds matched the pre-crash state."""
        return all(r["consistent"] for r in self.recovery_reports)

    def bind_telemetry(self, registry, clock=None) -> None:
        self.inner.bind_telemetry(registry, clock=clock)

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def __repr__(self) -> str:
        return (f"<CrashingStore crashes={self.crashes_total} "
                f"pending={len(self._crash_at)}>")
