"""Post-mortem bodies the production detectors replaced, as oracles.

``stale-offset-resume`` and ``fd-leak`` come from one detector each in
the battery (``repro.analysis.detectors``), which serves ``--follow``
and the report alike.  The earlier bodies of both — an aggregation
for the descriptor counts, and ``patterns.find_stale_offset_resumes``
as it was before it answered from the detector's rule — are kept here,
as they were, as the oracles those rules must agree with
(``tests/test_diagnosis_feed.py``).  The per-row access-pattern loop
and the two-search contention correlation, which lane arithmetic
replaced, are the oracles of ``tests/test_array_analysis.py``.
"""

import numpy as np

from repro.analysis.contention import (ContentionReport,
                                       syscall_counts_by_thread)
from repro.analysis.detectors import Finding, events_evidence
from repro.analysis.patterns import AccessPattern, StaleOffsetResume
from repro.analysis.session import READS as _READS, SessionEvents


def find_stale_offset_resumes(store, index, session=None, view=None):
    """Detect the Fluent Bit signature (§III-B, Fig. 2a step 5).

    For some file tag, the *first* read ever issued against the file
    starts at an offset > 0 and returns 0 bytes: the reader resumed
    from a position that belongs to a previous file that had the same
    name and inode.  Every later read of that tag returning data would
    clear the suspicion; a tag whose reads never returned data past
    that offset is flagged.
    """
    view = view or SessionEvents(store, index, session)
    syscalls = view.values("syscall")
    rets = view.values("ret")
    offsets = view.values("offset")
    findings = []
    for tag, rows in sorted(view.data_by_file.items()):
        reads = [row for row in rows if syscalls[row] in _READS]
        if not reads:
            continue
        first = reads[0]
        offset = offsets[first]
        if offset is None or offset == 0 or rets[first] != 0:
            continue
        if any(rets[row] > 0 for row in reads):
            continue
        findings.append(StaleOffsetResume(
            file_tag=tag,
            file_path=view.values("file_path")[first],
            proc_name=view.values("proc_name")[first],
            offset=offset,
            time=view.values("time")[first],
        ))
    return findings


class _Oracle:
    """A post-mortem body over one session read: ``run`` returns its
    findings."""

    def run(self, store, index, session=None):
        return self.detect(SessionEvents(store, index, session))


class StaleOffsetOracle(_Oracle):
    """The §III-B data-loss signature: resume at a stale offset."""

    name = "stale-offset-resume"

    def detect(self, view):
        findings = []
        for resume in find_stale_offset_resumes(
                view.store, view.index, view.session, view):
            findings.append(Finding(
                detector=self.name,
                severity="critical",
                title=(f"{resume.proc_name} resumed "
                       f"{resume.file_path or resume.file_tag} at stale "
                       f"offset {resume.offset}; content before EOF was "
                       "never read (possible data loss)"),
                details={"file_tag": resume.file_tag,
                         "file_path": resume.file_path,
                         "offset": resume.offset,
                         "time": resume.time},
                evidence=events_evidence(
                    view, view.by_file_tag[resume.file_tag]),
            ))
        return findings


class FdLeakOracle(_Oracle):
    """Erroneous usage: opened descriptors never closed."""

    name = "fd-leak"

    def __init__(self, min_unclosed: int = 4):
        self.min_unclosed = min_unclosed

    def detect(self, view):
        fd_calls = ("open", "openat", "creat", "close")
        succeeded = [{"terms": {"syscall": list(fd_calls)}},
                     {"range": {"ret": {"gte": 0}}}]
        response = view.store.search(
            view.index, query=view.query(succeeded), size=0,
            aggs={"by_pid": {
                "terms": {"field": "pid", "size": 500},
                "aggs": {"by_syscall": {"terms": {"field": "syscall",
                                                  "size": 10}}},
            }})
        syscalls = view.values("syscall")
        rets = view.values("ret")
        pids = view.values("pid")
        findings = []
        for bucket in response["aggregations"]["by_pid"]["buckets"]:
            counts = {b["key"]: b["doc_count"]
                      for b in bucket["by_syscall"]["buckets"]}
            opens = sum(counts.get(s, 0)
                        for s in ("open", "openat", "creat"))
            closes = counts.get("close", 0)
            if opens - closes >= self.min_unclosed:
                findings.append(Finding(
                    detector=self.name,
                    severity="warning",
                    title=(f"pid {bucket['key']}: {opens} opens vs "
                           f"{closes} closes "
                           f"({opens - closes} descriptors left open)"),
                    details={"pid": bucket["key"], "opens": opens,
                             "closes": closes},
                    evidence=events_evidence(view, [
                        row for row, pid in enumerate(pids)
                        if pid == bucket["key"]
                        and syscalls[row] in fd_calls
                        and rets[row] is not None
                        and rets[row] >= 0]),
                ))
        return findings


# ----------------------------------------------------------------------
# Access patterns and contention, as they were before both became lane
# arithmetic: one loop over every data row, and two store searches.

def loop_access_patterns(view):
    """``classify_file_accesses`` as a loop over each file's rows."""
    syscalls = view.values("syscall")
    rets = view.values("ret")
    offsets = view.values("offset")
    paths = view.values("file_path")
    patterns = []
    for tag, rows in sorted(view.data_by_file.items()):
        reads = request_bytes = read_bytes = 0
        sequential = considered = 0
        expected = None
        for row in rows:
            size = max(rets[row], 0)
            request_bytes += size
            if syscalls[row] in ("read", "pread64", "readv"):
                reads += 1
                read_bytes += size
            offset = offsets[row]
            if offset is None:
                continue
            if expected is not None:
                considered += 1
                if offset == expected:
                    sequential += 1
            expected = offset + size
        patterns.append(AccessPattern(
            tag, paths[rows[0]], reads, len(rows) - reads,
            (sequential / considered) if considered else 1.0,
            request_bytes / len(rows),
            read_bytes / reads if reads else 0.0))
    return patterns


def search_active_threads(store, index, window_ns, prefix="rocksdb:low",
                          session=None):
    """``active_compaction_threads`` as a wildcard search with a
    per-window ``cardinality`` of ``tid``."""
    must = [{"wildcard": {"proc_name": prefix + "*"}}]
    if session:
        must.append({"term": {"session": session}})
    response = store.search(index, query={"bool": {"must": must}}, size=0,
                            aggs={"over_time": {
                                "date_histogram": {"field": "time",
                                                   "fixed_interval": window_ns},
                                "aggs": {"tids": {"cardinality": {
                                    "field": "tid"}}}}})
    return {bucket["key"]: bucket["tids"]["value"]
            for bucket in response["aggregations"]["over_time"]["buckets"]}


def search_contention(store, index, window_ns, min_compaction_threads=5,
                      client_comm="db_bench", session=None,
                      background_prefix="rocksdb:low"):
    """``detect_contention`` as two store searches: the Fig. 4 panel
    (syscalls per window by thread name) and the active threads."""
    by_thread = syscall_counts_by_thread(store, index, window_ns, session)
    active = search_active_threads(store, index, window_ns,
                                   background_prefix, session)
    contended, calm, contended_rates, calm_rates = [], [], [], []
    for window, threads in sorted(by_thread.items()):
        client_count = threads.get(client_comm, 0)
        if active.get(window, 0) >= min_compaction_threads:
            contended.append(window)
            contended_rates.append(client_count)
        else:
            calm.append(window)
            calm_rates.append(client_count)
    return ContentionReport(
        contended, calm,
        float(np.mean(contended_rates)) if contended_rates else 0.0,
        float(np.mean(calm_rates)) if calm_rates else 0.0,
        min_compaction_threads)
