"""One read of a stored session, shared by everything that analyses it.

Every post-mortem analysis — the batch detectors, the streaming
replay, DFG mining, phase segmentation, session comparison — is a pass
over one session's events in time order.  :class:`SessionEvents` asks
the store for that list **once** (one public ``search`` request, so it
works on any store-shaped object: sharded, tenant-scoped, proxied) and
derives the subsets the analyses need from it.

A filter of a stably time-sorted list equals the stable time-sort of
the filtered query (unsorted scans return rank order on every store),
so a consumer that used to send ``query + sort=["time"]`` can read the
matching subset here and produce identical bytes.  A view lives for
one call: nothing is memoised across calls, nothing needs invalidating.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from repro.backend.store import DocumentStore

#: Syscalls that read file data.
READS = ("read", "pread64", "readv")
#: Syscalls that write file data.
WRITES = ("write", "pwrite64", "writev")

#: One stored event: ``(backend id, source document)``.
Event = tuple[str, dict]


class SessionEvents:
    """The time-ordered events of one session (or of a whole index)."""

    def __init__(self, store: DocumentStore, index: str,
                 session: Optional[str] = None) -> None:
        self.store = store
        self.index = index
        self.session = session

    def query(self, extra: Optional[list] = None) -> dict:
        """``extra`` clauses scoped to this session, for store requests."""
        must = list(extra or [])
        if self.session:
            must.append({"term": {"session": self.session}})
        return {"bool": {"must": must}} if must else {"match_all": {}}

    @cached_property
    def events(self) -> list[Event]:
        """Every event, stably sorted by time: the one whole-session read."""
        response = self.store.search(self.index, query=self.query(),
                                     sort=["time"], size=None)
        return [(hit["_id"], hit["_source"])
                for hit in response["hits"]["hits"]]

    @cached_property
    def data_by_file(self) -> dict[str, list[dict]]:
        """Data-syscall sources that carry a file tag, per tag."""
        data = frozenset(READS + WRITES)
        per_file: dict[str, list[dict]] = {}
        for _, source in self.events:
            tag = source.get("file_tag")
            if tag is not None and source.get("syscall") in data:
                per_file.setdefault(tag, []).append(source)
        return per_file

    def _grouped(self, field: str) -> dict:
        groups: dict = {}
        for event in self.events:
            groups.setdefault(event[1].get(field), []).append(event)
        return groups

    @cached_property
    def by_file_tag(self) -> dict[Optional[str], list[Event]]:
        """Events per ``file_tag`` (what ``term: file_tag`` matches)."""
        return self._grouped("file_tag")

    @cached_property
    def by_pid(self) -> dict[Optional[int], list[Event]]:
        """Events per ``pid`` (what ``term: pid`` matches)."""
        return self._grouped("pid")
