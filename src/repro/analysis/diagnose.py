"""The unified diagnosis surface: one evidence-backed report.

This is the automatic-diagnosis layer: the paper's two headline
case studies (Fluent Bit data loss §III-B, RocksDB contention §III-C)
diagnosed *automatically* instead of by a human reading dashboards.

:func:`diagnose_session` runs one battery of detectors
(:data:`~repro.analysis.detectors.DEFAULT_DETECTORS`) once each over
the stored session.  Every finding name has one detector; a finding's
provenance label (``batch`` or ``streaming``) and its emission time
come from that detector.  :func:`follow_session` is the same pass
over the detectors that stamp their findings, in emission order.

The report is the findings ranked by severity and confidence, with
the mined DFG fingerprint and behaviour phases, rendered
deterministically: same events in, byte-identical report out (pinned
by the DST digest).  All of it reads one
:class:`~repro.analysis.session.SessionEvents` — the session's lanes,
fetched once — and builds no document for a pass.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.detectors import (DEFAULT_DETECTORS, SEVERITY_ORDER,
                                      Detector, Finding)
from repro.analysis.dfg import (DirectlyFollowsGraph, Phase, merged_dfg,
                                mine_phases)
from repro.analysis.session import SessionEvents
from repro.backend.store import DocumentStore

#: Confidence by provenance label (``Detector.source``).  The labels
#: and numbers are the report's since five detectors ran online, and
#: stay byte-identical: ``batch`` outranks ``streaming``.
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
                self.finding.title, self.emit_ns or 0)

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
                   detectors: Optional[Sequence[Detector]] = None,
                   latency_records: Optional[Sequence] = None,
                   view: Optional[SessionEvents] = None
                   ) -> list[tuple[int, Finding]]:
    """The stamped findings of one stored session, in emission order.

    ``detectors`` default to the battery's ``streaming`` ones, each of
    which stamps every finding with the event time it is settled at.
    ``latency_records`` (``(start_ns, latency_ns, ...)`` tuples) go on
    the view this builds; a caller's ``view`` carries its own.

    Returns every ``(emit_ns, finding)``, in ``(emit_ns, detector,
    title)`` order — what ``dio diagnose --follow`` prints.
    """
    if detectors is None:
        detectors = [detector for detector in DEFAULT_DETECTORS
                     if detector.source == "streaming"]
    view = view or SessionEvents(store, index, session, latency_records)
    return sorted((pair for detector in detectors
                   for pair in detector.detect(view)),
                  key=lambda item: (item[0], item[1].detector,
                                    item[1].title))


def diagnose_session(store: DocumentStore, session: Optional[str] = None,
                     index: str = "dio_trace",
                     detectors: Sequence[Detector] = DEFAULT_DETECTORS,
                     latency_records: Optional[Sequence] = None,
                     window_events: int = 64,
                     drift_threshold: float = 0.4) -> DiagnosisReport:
    """Diagnose one stored session: the detector battery, DFG, phases.

    ``latency_records`` (``(start_ns, latency_ns, ...)`` tuples, e.g.
    ``bench.records()``) additionally feed the spike attributor.

    The session is read from the store once: the detectors, the DFG
    and the phases all derive from one :class:`SessionEvents`.
    """
    view = SessionEvents(store, index, session, latency_records)
    findings = sorted((RankedFinding(finding, detector.source, emit_ns)
                       for detector in detectors
                       for emit_ns, finding in detector.detect(view)),
                      key=lambda ranked: ranked.sort_key)
    return DiagnosisReport(
        session=session,
        findings=findings,
        dfg=merged_dfg(store, index, session, view),
        phases=mine_phases(store, index, session,
                           window_events=window_events,
                           drift_threshold=drift_threshold, view=view),
        events=len(view),
    )
