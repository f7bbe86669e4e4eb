"""The paper's custom file-path correlation algorithm (§II-C).

DIO's tracer labels fd-handling syscalls with a *file tag* — device
number, inode number, and first-access timestamp — because most
fd-based syscalls (``read``, ``close``, ...) never see a path.  The
path **is** visible in the ``open``/``openat``/``creat`` event that
produced the fd.  This module performs the translation the paper
implements with Elasticsearch's query and update APIs: find each tag's
opening event, then update every event carrying that tag with the
resolved ``file_path``.

The resolution runs over **lanes**, not documents: one lane read of
the session (:meth:`DocumentStore.lanes`) hands over the ``syscall``,
``file_tag``, ``time``, ``args.path`` and ``file_path`` lanes in
insertion order (the one argument the pass needs — never every row's
``args``); one pass over the open-family rows builds tag -> path, one pass
over the tagged rows builds tag -> document ids and the
tagged/unresolved tallies, and each resolved group takes one
``update_docs`` — which lands on documents nobody has hydrated as an
overlay on their batch.  A trace that is correlated and then saved
never becomes a document.  The pre-planner shape — one
``update_by_query`` per tag plus two counting queries — survives as
:func:`repro.backend.naive.legacy_correlate`, the oracle.

Events whose opening syscall was never captured (e.g. discarded at the
ring buffer, or the file was opened before tracing started) remain
unresolved; the ratio of unresolved events is the fidelity metric the
paper compares against Sysdig (≤5% vs 45%, §III-D).
"""

from __future__ import annotations

from typing import Optional

from repro.backend.lanes import sort_key
from repro.backend.store import DocumentStore

#: Syscalls whose events carry both a path argument and a file tag.
PATH_BEARING_SYSCALLS = ("open", "openat", "creat")


def path_argument(args) -> Optional[str]:
    """The ``path`` argument of an open-family event: what
    ``get_field(event, "args.path")`` reads — ``None`` when the event
    has no ``args`` object or it has no path (an imported foreign
    event), which leaves the event unresolved."""
    return args.get("path") if isinstance(args, dict) else None


class CorrelationReport:
    """Outcome of one correlation pass."""

    __slots__ = ("tags_resolved", "documents_updated", "documents_tagged",
                 "documents_unresolved")

    def __init__(self, tags_resolved: int, documents_updated: int,
                 documents_tagged: int, documents_unresolved: int):
        self.tags_resolved = tags_resolved
        self.documents_updated = documents_updated
        self.documents_tagged = documents_tagged
        self.documents_unresolved = documents_unresolved

    @property
    def unresolved_ratio(self) -> float:
        """Fraction of tagged events left without a file path."""
        if self.documents_tagged == 0:
            return 0.0
        return self.documents_unresolved / self.documents_tagged

    def as_dict(self) -> dict:
        """Report fields as a plain dict."""
        return {
            "tags_resolved": self.tags_resolved,
            "documents_updated": self.documents_updated,
            "documents_tagged": self.documents_tagged,
            "documents_unresolved": self.documents_unresolved,
            "unresolved_ratio": self.unresolved_ratio,
        }

    def __repr__(self) -> str:
        return (f"<CorrelationReport resolved_tags={self.tags_resolved} "
                f"unresolved_ratio={self.unresolved_ratio:.3f}>")


class FilePathCorrelator:
    """Translates file tags into file paths across an event index."""

    def __init__(self, store: DocumentStore, registry=None):
        self.store = store
        self._metrics = None
        if registry is not None:
            self.bind_telemetry(registry)

    def bind_telemetry(self, registry) -> None:
        """Expose correlation outcome counters on a telemetry registry.

        ``registry`` is a :class:`repro.telemetry.MetricsRegistry`;
        every :meth:`correlate` pass accumulates into it.
        """
        self._metrics = {
            "tags_resolved": registry.counter(
                "dio_correlator_tags_resolved_total",
                "File tags resolved to a path (§II-C correlation)."),
            "documents_updated": registry.counter(
                "dio_correlator_documents_updated_total",
                "Documents updated with a resolved file path."),
            "documents_tagged": registry.counter(
                "dio_correlator_documents_tagged_total",
                "Documents carrying a file tag when correlation ran."),
            "documents_unresolved": registry.counter(
                "dio_correlator_documents_unresolved_total",
                "Tagged documents left without a file path."),
        }

    def tag_to_path(self, index: str,
                    session: Optional[str] = None) -> dict[str, str]:
        """Build the tag -> path mapping from open-family events.

        When the same tag was opened under several paths (rename between
        opens), the most recent open wins, matching what a user sees in
        Kibana when sorting by time.  With ``session`` given, only that
        execution's opens contribute: different machines may produce
        identical (dev, ino, timestamp) tags, and one session's paths
        must never resolve another's events.
        """
        _, batch = self._session_lanes(index, session)
        return self._tag_to_path(batch)

    def _session_lanes(self, index: str, session: Optional[str]):
        return self.store.lanes(
            index, {"term": {"session": session}} if session else None)

    @staticmethod
    def _tag_to_path(batch) -> dict[str, str]:
        tags = batch.values_for("file_tag")
        times = batch.values_for("time")
        paths = batch.values_for("args.path")
        mapping: dict[str, str] = {}
        best: dict[str, tuple] = {}
        # Rows are in insertion order; taking >= on the time key
        # reproduces "stable sort by time, last hit wins".
        for row, syscall in enumerate(batch.values_for("syscall")):
            if syscall not in PATH_BEARING_SYSCALLS:
                continue
            tag = tags[row]
            path = paths[row]
            if not (path and tag):
                continue
            key = sort_key(times[row])
            if tag not in best or key >= best[tag]:
                best[tag] = key
                mapping[tag] = path
        return mapping

    def correlate(self, index: str,
                  session: Optional[str] = None) -> CorrelationReport:
        """Run the correlation over ``index`` (optionally one session)."""
        doc_ids, batch = self._session_lanes(index, session)
        mapping = self._tag_to_path(batch)

        # One grouped pass over the tagged events: documents of resolved
        # tags are collected for the in-place update, unresolved ones
        # are tallied on the spot — no per-tag queries, no re-counting.
        tagged = 0
        unresolved = 0
        groups: dict[str, list[str]] = {tag: [] for tag in mapping}
        file_paths = batch.values_for("file_path")
        for row, tag in enumerate(batch.values_for("file_tag")):
            if tag is None:
                continue
            tagged += 1
            ids = groups.get(tag)
            if ids is not None:
                ids.append(doc_ids[row])
            elif file_paths[row] is None:
                unresolved += 1

        updated = 0
        for tag, ids in groups.items():
            updated += self.store.update_docs(index, ids,
                                              {"file_path": mapping[tag]})

        report = CorrelationReport(
            tags_resolved=len(mapping),
            documents_updated=updated,
            documents_tagged=tagged,
            documents_unresolved=unresolved,
        )
        if self._metrics is not None:
            for field, counter in self._metrics.items():
                counter.inc(getattr(report, field))
        return report
