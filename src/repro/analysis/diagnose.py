"""The unified diagnosis surface: one evidence-backed report.

This is the automatic-diagnosis layer: the paper's two headline
case studies (Fluent Bit data loss §III-B, RocksDB contention §III-C)
diagnosed *automatically* instead of by a human reading dashboards.

:func:`diagnose_session` runs each detector once over the stored
session.  Every finding name has one detector, in one of two
batteries:

- the **batch** battery (:mod:`repro.analysis.detectors`), which runs
  post-mortem correlations over the whole session, and
- the **streaming** battery (:mod:`repro.analysis.streaming`), run by
  replaying the stored events through a fresh
  :class:`~repro.analysis.streaming.DiagnosisTap`
  (:func:`follow_session`, which hands the tap what the tracer's
  consumer hands it: lane batches, here with their backend ids).

The report is both batteries' findings ranked by severity and
confidence (a finding's source is fixed by its detector), with the
mined DFG fingerprint and behaviour phases, rendered
deterministically: same events in, byte-identical report out (pinned
by the DST digest).  All of it reads one
:class:`~repro.analysis.session.SessionEvents` — the session's lanes,
fetched once — and builds no document for a pass.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Optional, Sequence

from repro.analysis.detectors import (DEFAULT_DETECTORS, SEVERITY_ORDER,
                                      Detector, Finding, run_detectors)
from repro.analysis.dfg import (DirectlyFollowsGraph, Phase, merged_dfg,
                                segment_phases)
from repro.analysis.session import SessionEvents
from repro.analysis.streaming import DiagnosisTap
from repro.backend.store import DocumentStore

#: Confidence by provenance: batch outranks streaming (it saw the
#: complete stream with the backend's indexes, not a bounded tap).
CONFIDENCE = {"batch": 0.8, "streaming": 0.6}


class RankedFinding:
    """One finding with its provenance and confidence."""

    __slots__ = ("finding", "source", "confidence", "emit_ns")

    def __init__(self, finding: Finding, source: str,
                 emit_ns: Optional[int] = None) -> None:
        self.finding = finding
        self.source = source            # "batch" | "streaming"
        self.confidence = CONFIDENCE[source]
        self.emit_ns = emit_ns

    @property
    def sort_key(self) -> tuple:
        return (SEVERITY_ORDER.get(self.finding.severity, 9),
                -self.confidence, self.finding.detector,
                self.finding.title)

    def as_dict(self) -> dict:
        out = self.finding.as_dict()
        out["source"] = self.source
        out["confidence"] = self.confidence
        if self.emit_ns is not None:
            out["emit_ns"] = self.emit_ns
        return out


class DiagnosisReport:
    """The merged, ranked, evidence-backed diagnosis of one session."""

    def __init__(self, session: Optional[str],
                 findings: list[RankedFinding],
                 dfg: DirectlyFollowsGraph,
                 phases: list[Phase],
                 events: int) -> None:
        self.session = session
        self.findings = findings
        self.dfg = dfg
        self.phases = phases
        self.events = events

    # -- summaries -----------------------------------------------------

    @property
    def severities(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for ranked in self.findings:
            severity = ranked.finding.severity
            counts[severity] = counts.get(severity, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def detectors_fired(self) -> list[str]:
        return sorted({ranked.finding.detector
                       for ranked in self.findings})

    def as_dict(self) -> dict:
        """JSON-ready, deterministic (stable ordering throughout)."""
        return {
            "session": self.session,
            "events": self.events,
            "severities": self.severities,
            "detectors_fired": self.detectors_fired,
            "findings": [ranked.as_dict() for ranked in self.findings],
            "dfg": self.dfg.fingerprint(),
            "phases": [phase.as_dict() for phase in self.phases],
        }

    # -- rendering -----------------------------------------------------

    def render(self) -> str:
        """Human-readable report (deterministic)."""
        lines = [f"=== diagnosis for session {self.session!r} ===",
                 f"{self.events} events analyzed; "
                 + (", ".join(f"{count} {severity}" for severity, count
                              in self.severities.items())
                    if self.findings else "no issues detected")]
        for ranked in self.findings:
            finding = ranked.finding
            lines.append(f"  {finding}")
            lines.append(f"      source: {ranked.source}  "
                         f"confidence: {ranked.confidence:.2f}")
            evidence = finding.evidence or {}
            ids = evidence.get("event_ids") or []
            window = evidence.get("window")
            parts = []
            if ids:
                shown = ", ".join(ids[:4])
                more = f" (+{len(ids) - 4} more)" if len(ids) > 4 else ""
                parts.append(f"events [{shown}{more}]")
            if window:
                parts.append(f"window {window['start_ns'] / 1e6:.1f}"
                             f"-{window['end_ns'] / 1e6:.1f} ms")
            if parts:
                lines.append(f"      evidence: {'; '.join(parts)}")
        lines.append("")
        lines.append(f"behaviour: {len(self.phases)} phase(s), "
                     f"{len(self.dfg.node_counts)} DFG nodes, "
                     f"{len(self.dfg.edges)} edges")
        for index, phase in enumerate(self.phases, 1):
            top = ", ".join(f"{src}->{dst}" for src, dst, _
                            in phase.dfg.top_edges(3))
            drift = (f" (drift {phase.drift:.2f})"
                     if phase.drift else "")
            lines.append(
                f"  phase {index}: {phase.start_ns / 1e6:.1f}-"
                f"{phase.end_ns / 1e6:.1f} ms, {phase.events} events"
                f"{drift}; dominant: {top}")
        return "\n".join(lines)


def follow_session(store: DocumentStore, index: str,
                   session: Optional[str],
                   tap: Optional[DiagnosisTap] = None,
                   latency_records: Optional[Sequence] = None,
                   emit=None,
                   view: Optional[SessionEvents] = None) -> DiagnosisTap:
    """Feed a stored session through a (fresh) streaming tap.

    Post-mortem equivalent of riding the consumer path live, through
    the code the consumer path runs — ``tap.observe_batch`` — with the
    bonus that stored events carry backend ids, so the streaming
    findings get real evidence links.

    The session is handed over in stretches of event time cut at
    multiples of the narrowest detector window: each stretch's events
    (they arrive time-sorted; the records are put in start order here)
    and then its latency records.  A detector closes a window two of
    its widths behind the watermark, so nothing inside a stretch no
    wider than the narrowest window can close a window that something
    else in that stretch still belongs to: every window closes in the
    same order, holding the same events and samples, as if events and
    records had been merged by time and fed one at a time, and the
    findings are that feed's.

    With ``emit`` it is the ``--follow`` mode of ``dio diagnose``:
    ``emit(emit_ns, finding)`` is called for every incremental finding,
    stretch by stretch — within a stretch in ``(emit_ns, detector,
    title)`` order — including those flushed by the final watermark
    close.
    """
    if tap is None:
        tap = DiagnosisTap()

    def drain() -> None:
        if emit is not None:
            for emit_ns, finding in tap.drain_new():
                emit(emit_ns, finding)

    view = view or SessionEvents(store, index, session)
    batch, ids, times = view.batch, view.ids, view.times
    records = sorted(latency_records or (), key=itemgetter(0))
    starts = [record[0] for record in records]
    width = tap.stretch_ns
    lo = at = 0
    while lo < len(times) or at < len(records):
        hi, to = len(times), len(records)
        if width is not None:
            # The stretch holding the earliest event or record left.
            first = min(times[lo:lo + 1] + starts[at:at + 1])
            end = (first // width + 1) * width
            hi = bisect_left(times, end, lo)
            to = bisect_left(starts, end, at)
        tap.observe_batch(batch.take(range(lo, hi)), ids[lo:hi])
        tap.observe_latencies(records[at:to])
        drain()
        lo, at = hi, to
    tap.finalize()
    drain()
    return tap


def diagnose_session(store: DocumentStore, session: Optional[str] = None,
                     index: str = "dio_trace",
                     detectors: Sequence[Detector] = DEFAULT_DETECTORS,
                     latency_records: Optional[Sequence] = None,
                     window_events: int = 64,
                     drift_threshold: float = 0.4) -> DiagnosisReport:
    """Diagnose one stored session: both batteries, DFG, phases.

    ``latency_records`` (``(start_ns, latency_ns, ...)`` tuples, e.g.
    ``bench.records()``) additionally feed the spike attributor.

    The session is read from the store once: the batch detectors, the
    replay, the DFG and the phases all derive from one
    :class:`SessionEvents`.
    """
    view = SessionEvents(store, index, session)
    findings = [RankedFinding(finding, "batch") for finding
                in run_detectors(store, index, session, detectors, view)]
    # The report's DFG is mined below, once; the replay's tap need not
    # mine another.
    tap = follow_session(store, index, session, tap=DiagnosisTap(dfg=False),
                         latency_records=latency_records, view=view)
    findings += [RankedFinding(finding, "streaming", emit_ns)
                 for emit_ns, finding in tap.findings()]
    findings.sort(key=lambda ranked: ranked.sort_key)
    return DiagnosisReport(
        session=session,
        findings=findings,
        dfg=merged_dfg(store, index, session, view),
        phases=segment_phases(view.batch, window_events, drift_threshold,
                              name=session or index),
        events=len(view),
    )
