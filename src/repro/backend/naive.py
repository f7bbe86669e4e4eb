"""Reference implementations of the pre-planner read/correlate paths.

These are deliberately kept verbatim-shaped so the equivalence tests
have an honest oracle:

- :func:`naive_scan` — compile-and-filter over every document, no index
  help at all.  The oracle for planner-equivalence property tests.
- :func:`naive_aggregate` — full scan feeding the legacy dict-walking
  :func:`repro.backend.aggregations.run_aggregations`.  The oracle for
  columnar-kernel equivalence property tests: no planner, no columns,
  no cache anywhere in the path.
- :func:`legacy_correlate` — the paper's §II-C flow spelled out on
  documents: a sorted search of the session, tag -> path with the last
  open winning, the path set on every document of a resolved tag, and
  the fidelity tallies counted off the same documents.  The oracle the
  lane correlator, which keeps the table instead, is cross-checked
  against.
"""

from __future__ import annotations

from typing import Optional

from repro.backend.correlation import (PATH_BEARING_SYSCALLS,
                                       CorrelationReport, path_argument)
from repro.backend.query import compile_query
from repro.backend.store import DocumentStore, Index


def naive_scan(index: Index,
               query: Optional[dict]) -> list[tuple[str, dict]]:
    """Full-scan matches of ``query``: the planner-free oracle."""
    predicate = compile_query(query)
    return [(doc_id, source) for doc_id, source in index.documents()
            if predicate(source)]


def naive_aggregate(index: Index, query: Optional[dict],
                    aggs: dict) -> dict:
    """Full-scan + dict-walking aggregations: the columnar oracle."""
    from repro.backend.aggregations import run_aggregations

    sources = [source for _, source in naive_scan(index, query)]
    return run_aggregations(aggs, sources)


def legacy_correlate(store: DocumentStore, index: str,
                     session: Optional[str] = None) -> CorrelationReport:
    """Correlate the documents ``store`` hands a reader: every document
    of ``session`` (of the index, for ``None``) whose tag an open
    resolved takes the path as ``file_path`` — on the very dicts a scan
    of the store returns, not through a store write."""
    query = {"term": {"session": session}} if session else None
    docs = [hit["_source"] for hit in store.search(
        index, query=query, sort=["time"], size=None)["hits"]["hits"]]
    opens = compile_query({"bool": {"must": [
        {"terms": {"syscall": list(PATH_BEARING_SYSCALLS)}},
        {"exists": {"field": "file_tag"}}]}})
    mapping: dict = {}
    for doc in filter(opens, docs):
        path = path_argument(doc.get("args"))
        tag = doc.get("file_tag")
        if path and tag:
            mapping[tag] = path
    tagged = [doc for doc in docs if doc.get("file_tag") is not None]
    updated = 0
    for doc in tagged:
        if doc["file_tag"] in mapping:
            doc["file_path"] = mapping[doc["file_tag"]]
            updated += 1
    return CorrelationReport(
        tags_resolved=len(mapping),
        documents_updated=updated,
        documents_tagged=len(tagged),
        documents_unresolved=sum(doc.get("file_path") is None
                                 for doc in tagged),
    )
