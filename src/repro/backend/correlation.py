"""The paper's custom file-path correlation algorithm (§II-C).

DIO's tracer labels fd-handling syscalls with a *file tag* — device
number, inode number, and first-access timestamp — because most
fd-based syscalls (``read``, ``close``, ...) never see a path.  The
path **is** visible in the ``open``/``openat``/``creat`` event that
produced the fd.  This module performs the translation the paper
implements with Elasticsearch's query and update APIs: find each tag's
opening event, then give every event carrying that tag the resolved
``file_path``.  The paper writes the path onto each event; here the
store keeps what the correlation found, the session's tag -> path
table, and each event reads its path off its own tag.

The resolution is lane arithmetic, not a loop over documents: one lane
read of the session (:meth:`DocumentStore.lanes`) hands over its rows
in insertion order; one pass over the ``syscall`` lane picks the
open-family rows, and ``file_tag``, ``time`` and ``args.path`` are read
for those rows alone (:meth:`JoinedBatch.values_at` — never every row's
``args``) to build tag -> path.  One ``map(mapping.get, tags)`` over
the ``file_tag`` lane then resolves every tagged row for the
tagged/unresolved tallies, and the table lands with **one**
:meth:`DocumentStore.set_paths`, which gives each parked batch a
``file_path`` lane derived from its ``file_tag`` lane, so a trace
nobody has hydrated stays lanes.  A trace that is correlated and then
saved never becomes a document.  The paper's flow — every event of a
tag updated by query — survives spelled out on documents as
:func:`repro.backend.naive.legacy_correlate`, the oracle.

Events whose opening syscall was never captured (e.g. discarded at the
ring buffer, or the file was opened before tracing started) remain
unresolved; the ratio of unresolved events is the fidelity metric the
paper compares against Sysdig (≤5% vs 45%, §III-D).
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import is_not
from typing import Optional

from repro.backend.lanes import sort_key
from repro.backend.store import DocumentStore

#: Syscalls whose events carry both a path argument and a file tag.
PATH_BEARING_SYSCALLS = ("open", "openat", "creat")

_PATH_BEARING = frozenset(PATH_BEARING_SYSCALLS)


def _open_rows(syscalls: list) -> list[int]:
    """The rows whose syscall is one of :data:`PATH_BEARING_SYSCALLS`
    (a set lookup; ``==`` for a lane holding an unhashable name)."""
    rows = range(len(syscalls))
    try:
        return list(compress(rows, map(_PATH_BEARING.__contains__,
                                       syscalls)))
    except TypeError:
        return [row for row, name in zip(rows, syscalls)
                if name in PATH_BEARING_SYSCALLS]


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

    @staticmethod
    def _tag_to_path(tags: list, times: list, paths: list) -> dict[str, str]:
        """Tag -> path over the open-family rows' lanes, in insertion
        order: taking ``>=`` on the time key reproduces "stable sort by
        time, last hit wins"."""
        mapping: dict[str, str] = {}
        best: dict[str, tuple] = {}
        for tag, time, path in zip(tags, times, paths):
            if not (path and tag):
                continue
            key = sort_key(time)
            if tag not in best or key >= best[tag]:
                best[tag] = key
                mapping[tag] = path
        return mapping

    def correlate(self, index: str,
                  session: Optional[str] = None) -> CorrelationReport:
        """Run the correlation over ``index`` (optionally one session)."""
        _, batch = self.store.lanes(
            index, {"term": {"session": session}} if session else None)
        tags = batch.values_for("file_tag")
        opens = _open_rows(batch.values_for("syscall"))
        mapping = self._tag_to_path(list(map(tags.__getitem__, opens)),
                                    batch.values_at("time", opens),
                                    batch.values_at("args.path", opens))

        # Every tagged row resolved at once, for the tallies.
        resolved = list(map(mapping.get, tags))
        tagged = len(tags) - tags.count(None)
        named = len(resolved) - resolved.count(None)
        unresolved = tagged - named
        file_paths = batch.values_for("file_path")
        if file_paths.count(None) < len(file_paths):
            # An unresolved tag is no loss on a row that already names
            # a file.
            unresolved -= sum(tag is not None and path is None
                              for tag, path in compress(
                                  zip(tags, resolved),
                                  map(is_not, file_paths, repeat(None))))

        if mapping:
            self.store.set_paths(index, mapping, session)

        report = CorrelationReport(
            tags_resolved=len(mapping),
            documents_updated=named,
            documents_tagged=tagged,
            documents_unresolved=unresolved,
        )
        if self._metrics is not None:
            for field, counter in self._metrics.items():
                counter.inc(getattr(report, field))
        return report
