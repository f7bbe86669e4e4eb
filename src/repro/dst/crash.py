"""Store wrappers the harness layers under the tracer: the crashing
store (torn-WAL recovery) and the oracle twin's bulk-only facade.

:class:`CrashingStore` models the backend's durability contract the
way Elasticsearch's translog does: every *accepted* bulk request is
journaled (fsync-per-request) to an append-only WAL before it is
acknowledged, so a crash can lose at most the one record being written
at the instant of the crash — the in-flight bulk that was never acked.

The journal is the repository's one record-log format (``DIOJNL01``
then ``len | crc32 | payload`` frames, the codec of
:mod:`repro.backend.wal`; payload ``[index, [doc, ...]]``).

At a scenario-chosen crash point (the k-th bulk reaching the store,
torn at an arbitrary byte fraction of the in-flight journal frame)
the wrapper:

1. serializes the journal with the in-flight frame torn mid-write;
2. rebuilds the inner store *from the torn journal alone* — dropping
   every index and replaying the intact frame prefix — exactly what a
   restarted backend would do;
3. cross-checks the rebuilt state against the pre-crash state (the
   accepted bulks) and records the verdict;
4. raises a :class:`~repro.faults.InjectedFault` so the consumer's
   retry machinery re-ships the torn batch — which is what makes the
   pipeline exactly-once across store crashes.

The torn fraction is strictly below 1, so the in-flight frame is
always a strict prefix — which cannot scan as a frame: an fsync
barrier sits between writing the record and acking the request, so
"fully written but unacked" (the duplicate-on-retry case) is not in
this failure model — see docs/RELIABILITY.md.
"""

from __future__ import annotations

import json
from typing import Callable, Optional

from repro.backend.wal import frame_record, recover_log
from repro.faults import InjectedFault

#: Journal magic; the trailing ``01`` is the format version.
JOURNAL_MAGIC = b"DIOJNL01"


def _canonical_state(store) -> str:
    """A store's full content as one canonical JSON string."""
    state = {}
    for name in sorted(store.index_names()):
        docs = sorted(
            (doc_id, source)
            for doc_id, source in store.scan(name, {"match_all": {}}))
        state[name] = docs
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def _journal_entry(entry) -> tuple[str, list]:
    """One journal payload as ``(index, docs)``; raises if it is not."""
    index, docs = entry
    if not isinstance(index, str) or not isinstance(docs, list):
        raise ValueError("not a journal record")
    return index, docs


class BulkOnlyStore:
    """Store facade without ``bulk_columnar``: the tracer's capability
    probe then ships ``RecordBatch.to_docs()`` through ``bulk`` — the
    oracle twin's reference endpoint."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def __getattr__(self, name: str):
        if name == "bulk_columnar":
            raise AttributeError(name)
        return getattr(self._inner, name)


class CrashingStore:
    """Wraps a store; crashes it at scheduled bulk ordinals.

    ``crash_points`` is a list of ``{"after_bulks": k, "torn_frac": f}``
    dicts: the k-th bulk call reaching this wrapper (1-based, counted
    across the store's lifetime) crashes the store with its journal
    frame torn at fraction ``0 <= f < 1``.  Everything not intercepted
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
        for _, torn_frac in self._crash_at:
            if not 0.0 <= torn_frac < 1.0:
                raise ValueError(f"torn_frac must be in [0, 1): {torn_frac}")
        self._bulk_calls = 0
        #: Journal of accepted bulks: one frame each.
        self._journal: list[bytes] = []
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
        self._accept_bulk(index, list(sources))
        return self.inner.bulk(index, sources)

    def bulk_columnar(self, index: str, batch, nominal_ns: int = 0) -> int:
        """Vectorized bulk: journaled (and crashed) like any other.

        Shares the bulk ordinal counter with :meth:`bulk`, so a crash
        scheduled "after k bulks" fires at the same point whichever
        endpoint the consumer ships through — what lets the
        ``bulk``-only twin act as the oracle for crash scenarios.  The
        journal frame needs JSON-able docs, so the batch materialises
        here; that is the durability contract's price, not the ingest
        path's.
        """
        self._accept_bulk(index, batch.to_docs())
        return self.inner.bulk_columnar(index, batch)

    def _accept_bulk(self, index: str, docs: list) -> None:
        """Crash if this bulk is the scheduled one; journal it otherwise."""
        self._bulk_calls += 1
        frame = frame_record([index, docs])
        if self._crash_at and self._bulk_calls == self._crash_at[0][0]:
            _, torn_frac = self._crash_at.pop(0)
            self._crash(frame, torn_frac)
            raise InjectedFault("store-crash", self.clock(),
                                cost_ns=self.recovery_cost_ns)
        self._journal.append(frame)
        self.journal_records_total += 1

    # ------------------------------------------------------------------
    # Crash + recovery

    def journal_bytes(self, torn_frame: bytes = b"",
                      torn_frac: float = 0.0) -> bytes:
        """The journal as an on-disk log image (optionally torn)."""
        return (JOURNAL_MAGIC + b"".join(self._journal)
                + torn_frame[:int(len(torn_frame) * torn_frac)])

    def _crash(self, inflight_frame: bytes, torn_frac: float) -> None:
        self.crashes_total += 1
        before = _canonical_state(self.inner)
        report = self._rebuild_from_wal(
            self.journal_bytes(inflight_frame, torn_frac))
        after = _canonical_state(self.inner)
        report["at_ns"] = self.clock()
        report["torn_frac"] = torn_frac
        report["inflight_frame_bytes"] = len(inflight_frame)
        report["consistent"] = (before == after)
        self.recovery_reports.append(report)

    def _rebuild_from_wal(self, wal: bytes) -> dict:
        """Drop all state and replay the intact journal prefix."""
        entries, report = recover_log(wal, JOURNAL_MAGIC, _journal_entry)
        for name in list(self.inner.index_names()):
            self.inner.delete_index(name)
        for name, fields in self._index_settings.items():
            self.inner.ensure_index(name, indexed_fields=fields)
        for name, docs in entries:
            self.inner.bulk(name, docs)
        report["replayed_docs"] = sum(len(docs) for _, docs in entries)
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
