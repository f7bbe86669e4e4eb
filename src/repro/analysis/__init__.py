"""Analysis algorithms over benchmark results and traced events.

- :mod:`repro.analysis.latency` — windowed percentile series over
  db_bench operation records (the paper's Fig. 3).
- :mod:`repro.analysis.contention` — correlating per-thread syscall
  activity from DIO's backend with client performance to locate
  multi-threaded I/O contention (the paper's Fig. 4 finding).
- :mod:`repro.analysis.patterns` — I/O access-pattern classifiers over
  traced events (sequential vs. random, small requests, and the
  stale-offset-resume signature behind the Fluent Bit data loss).
- :mod:`repro.analysis.session` — the one time-ordered read of a
  stored session that the post-mortem analyses share.
"""

from repro.analysis.latency import LatencyPoint, percentile_series, spikes
from repro.analysis.session import SessionEvents
from repro.analysis.contention import (ContentionReport, detect_contention,
                                       syscall_counts_by_thread)
from repro.analysis.patterns import (AccessPattern, classify_file_accesses,
                                     find_stale_offset_resumes,
                                     small_io_files)
from repro.analysis.detectors import (DEFAULT_DETECTORS, Detector, Finding,
                                      run_detectors)
from repro.analysis.compare import (Divergence, SessionComparison,
                                    compare_sessions, session_fingerprint)
from repro.analysis.blame import (SpikeBlame, ThreadActivity, blame_spikes,
                                  render_blame)
from repro.analysis.dfg import (DFGComparison, DirectlyFollowsGraph, Phase,
                                compare_session_dfgs, merged_dfg, mine_phases,
                                segment_phases)
from repro.analysis.streaming import (DiagnosisTap, StreamingDetector,
                                      default_streaming_detectors)
from repro.analysis.diagnose import (DiagnosisReport, RankedFinding,
                                     diagnose_session, follow_session)

__all__ = [
    "LatencyPoint",
    "percentile_series",
    "spikes",
    "SessionEvents",
    "ContentionReport",
    "detect_contention",
    "syscall_counts_by_thread",
    "AccessPattern",
    "classify_file_accesses",
    "find_stale_offset_resumes",
    "small_io_files",
    "DEFAULT_DETECTORS",
    "Detector",
    "Finding",
    "run_detectors",
    "Divergence",
    "SessionComparison",
    "compare_sessions",
    "session_fingerprint",
    "SpikeBlame",
    "ThreadActivity",
    "blame_spikes",
    "render_blame",
    "DFGComparison",
    "DirectlyFollowsGraph",
    "Phase",
    "compare_session_dfgs",
    "merged_dfg",
    "mine_phases",
    "segment_phases",
    "DiagnosisTap",
    "StreamingDetector",
    "default_streaming_detectors",
    "DiagnosisReport",
    "RankedFinding",
    "diagnose_session",
    "follow_session",
]
