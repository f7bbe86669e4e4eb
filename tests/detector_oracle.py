"""The post-mortem bodies of ``stale-offset-resume`` and ``fd-leak``.

Both findings come from one detector each, a streaming one
(``repro.analysis.streaming``), which serves ``--follow``, the tracer's
consumer path and the report alike.  The batch bodies they replaced
read the whole stored session at once and are kept here, as they were,
as the oracles the streaming rules must agree with
(``tests/test_diagnosis_feed.py``).
"""

from repro.analysis.detectors import Detector, Finding, events_evidence
from repro.analysis.patterns import find_stale_offset_resumes


class StaleOffsetDetector(Detector):
    """The §III-B data-loss signature: resume at a stale offset."""

    name = "stale-offset-resume"
    description = ("first read of a fresh file starts past offset 0 and "
                   "returns no data: a stale position was applied")

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


class FdLeakDetector(Detector):
    """Erroneous usage: opened descriptors never closed."""

    name = "fd-leak"
    description = "processes whose open count far exceeds their closes"

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
