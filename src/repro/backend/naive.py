"""Reference implementations of the pre-planner read/correlate paths.

These are deliberately kept verbatim-shaped so the equivalence tests
have an honest oracle:

- :func:`naive_scan` — compile-and-filter over every document, no index
  help at all.  The oracle for planner-equivalence property tests.
- :func:`naive_aggregate` — full scan feeding the legacy dict-walking
  :func:`repro.backend.aggregations.run_aggregations`.  The oracle for
  columnar-kernel equivalence property tests: no planner, no columns,
  no cache anywhere in the path.
- :func:`legacy_correlate` — the original §II-C flow: a sorted search
  to build the tag -> path mapping, one ``update_by_query`` per tag,
  then two counting queries for the fidelity tallies.  The oracle the
  single-pass correlator is cross-checked against.
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


def legacy_tag_to_path(store: DocumentStore, index: str,
                       session: Optional[str] = None) -> dict[str, str]:
    """Tag -> path mapping via a sorted search (pre-planner shape)."""
    must: list = [
        {"terms": {"syscall": list(PATH_BEARING_SYSCALLS)}},
        {"exists": {"field": "file_tag"}},
    ]
    if session:
        must.append({"term": {"session": session}})
    response = store.search(
        index,
        query={"bool": {"must": must}},
        sort=["time"],
        size=None,
    )
    mapping: dict[str, str] = {}
    for hit in response["hits"]["hits"]:
        source = hit["_source"]
        path = path_argument(source.get("args"))
        tag = source.get("file_tag")
        if path and tag:
            mapping[tag] = path
    return mapping


def legacy_correlate(store: DocumentStore, index: str,
                     session: Optional[str] = None) -> CorrelationReport:
    """One ``update_by_query`` per tag plus two counting queries."""
    mapping = legacy_tag_to_path(store, index, session)

    updated = 0
    for tag, path in mapping.items():
        query: dict = {"bool": {"must": [{"term": {"file_tag": tag}}]}}
        if session:
            query["bool"]["must"].append({"term": {"session": session}})
        updated += store.update_by_query(index, query, {"file_path": path})

    tagged_query: dict = {"bool": {"must": [{"exists": {"field": "file_tag"}}]}}
    unresolved_query: dict = {"bool": {
        "must": [{"exists": {"field": "file_tag"}}],
        "must_not": [{"exists": {"field": "file_path"}}],
    }}
    if session:
        tagged_query["bool"]["must"].append({"term": {"session": session}})
        unresolved_query["bool"]["must"].append({"term": {"session": session}})

    return CorrelationReport(
        tags_resolved=len(mapping),
        documents_updated=updated,
        documents_tagged=store.count(index, tagged_query),
        documents_unresolved=store.count(index, unresolved_query),
    )
