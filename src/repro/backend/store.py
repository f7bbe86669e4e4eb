"""The document store: indices, search and bulk APIs.

API surface mirrors the slice of Elasticsearch that DIO uses: document
indexing (including a bulk endpoint the tracer batches into) and
search with query + aggregations + sort + pagination.  Where the paper
annotates a trace with update-by-query — every event of a file tag
takes the path its ``open`` named — the store keeps the correlation's
result instead: :meth:`DocumentStore.set_paths` hands an index a
session's ``file_tag -> file_path`` table, and each row's path is read
off its tag.

An index holds its rows in one form: *parts*, ``(first row,
LaneBatch)`` pairs in row order (:mod:`repro.backend.lanes`).  There
is one write path — every write appends a part: ``bulk_columnar`` its
batch as it came (a decoded ring batch, a loaded session), ``bulk``
its documents as one :class:`DocBatch` — and an index is append-only:
a trace is written once and then annotated, never rewritten.  The one
annotation is the path table (:meth:`Index.set_paths`): a lane part
gains ``file_path`` as a lane derived from its ``file_tag`` lane.

Rows are the address of the read path.  Every document owns a row —
its position in insertion order — and every field a request has
touched owns one typed :class:`~repro.backend.columns.Column`, built
lazily from lanes.  The query planner (:mod:`repro.backend.planner`)
answers in ascending row numbers read off those columns (dictionary
code -> postings for ``term``/``terms``, bisect on the numeric lane for
``range``, the dictionary's string keys for ``prefix`` and
``wildcard``, the presence bitmap for ``exists``), and everything
downstream consumes the rows as
they are: the aggregation kernels, ``count``, the lane read, and a
sorted search, which orders rows by keys read off the columns and
builds ``(id, source)`` only for the window it returns.  When a plan is
*exact* the store skips predicate evaluation entirely; otherwise the
plan prunes the candidate rows and the compiled predicate re-checks the
survivors.  Every plan decision is counted (``plan_counts``) and exposed
through telemetry as ``dio_store_plan_{exact,pruned,fullscan}_total``
plus a cumulative pruning-ratio gauge.

A part stays as it came through the tail of a traced execution and
through every read of a loaded session: :meth:`DocumentStore.lanes`
reads the parts as lanes, :meth:`DocumentStore.set_paths` gives each
of a session's parts one derived lane, and a request that returns hits
builds the ``_source`` of those rows alone (:meth:`Index.sources`), so
correlation, ``save_session``, diagnosis and a ``size=50`` window
build no other dict.  Only a part whose lanes cannot state where the
path goes (it has a ``file_path`` lane already, or holds rows of
another session) is built whole, and becomes a :class:`DocBatch` of
its rows.

Aggregations are *pushed down* to the columnar kernels
(:mod:`repro.backend.columns`): the plan's rows are evaluated by
lane kernels without ever materialising ``_source`` dicts — the
dominant cost of the dashboard path.  Results are cached per ``(index
epoch, query, aggs)`` (copies in, copies out: :func:`copy_json`) and
invalidated by any mutation.  Shapes the
kernels do not support fall back to the dict-walking
:func:`run_aggregations`.  Every decision is counted and exposed as
``dio_store_agg_{pushdown,fallback,cache_hits,cache_misses}`` plus a
kernel-duration histogram.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.backend.aggregations import run_aggregations
from repro.backend.columns import Column, ColumnSet
from repro.backend.lanes import (DocBatch, JoinedBatch, LaneBatch, Lookup,
                                 derive_lane, sort_key)
from repro.backend.planner import QueryPlan, plan_query
from repro.backend.query import compile_query, get_field

#: Cached aggregation results kept per index (LRU).
AGG_CACHE_SIZE = 64

#: The fields every index of trace events is declared to be queried on
#: — by the tracer, by a loaded segment store and by an imported
#: export alike (a declaration: see :class:`Index`).
INDEXED_EVENT_FIELDS = ("syscall", "proc_name", "pid", "tid", "file_tag",
                        "session", "time")


class StoreError(Exception):
    """Misuse of the document store."""


class Index:
    """A named collection of JSON documents, addressed by row.

    An index is its parts: ``(first row, LaneBatch)`` pairs in row
    order.  Every write appends one (:meth:`bulk_append`) — a lane-wise
    bulk its batch as it came, a document bulk a :class:`DocBatch` —
    and an index is append-only: a document's row is its insertion rank
    forever.
    """

    def __init__(self, name: str,
                 indexed_fields: Optional[Iterable[str]] = None):
        """``indexed_fields`` is accepted for the callers that declare
        what they will query (the tracer, the session loaders) and
        builds nothing: a field's column is built from lanes by the
        first query, sort or aggregation that touches it."""
        self.name = name
        self._next_id = 1
        #: Row numbering plus one typed :class:`Column` per field any
        #: request has touched — the only per-field structure: the
        #: planner, the sort and the aggregation kernels all read it.
        self.columns = ColumnSet()
        #: Mutation epoch — any append or path table bumps it, which is
        #: what keys cached aggregation results out of existence.
        self.epoch = 0
        self._agg_cache: OrderedDict[tuple, tuple] = OrderedDict()
        #: The rows: ``(first row, LaneBatch)`` parts in row order, and
        #: their first rows alone, for :meth:`_runs` to bisect.
        self._parts: list[tuple[int, LaneBatch]] = []
        self._starts: list[int] = []
        #: Row -> the ``_source`` a reader was handed (:meth:`sources`):
        #: a row reads as the same dict until it changes.
        self._built: dict[int, dict] = {}
        #: Rows of lane parts (any part but a :class:`DocBatch`, whose
        #: documents exist already) whose ``_source`` no reader has had
        #: built yet, and the rows built so far (telemetry).
        self.pending_docs = 0
        self.hydrated_docs_total = 0

    def __len__(self) -> int:
        return len(self.columns.doc_ids)

    def column(self, field: str) -> Column:
        """``field``'s column, built on first use from the parts' lanes
        — the planner's field resolver, so a query pays for the fields
        it touches and only those, and building one builds no
        document."""
        return self.columns.ensure_column(
            field, (batch for _, batch in self._parts))

    # ------------------------------------------------------------------
    # Write path

    def bulk_append(self, batch: LaneBatch,
                    doc_ids: Optional[list] = None) -> int:
        """Append one :class:`LaneBatch` of brand-new docs as a part.

        Ids and rows are assigned in one pass and no source dict is
        built; only the columns that already exist take the batch's
        lanes.

        ``doc_ids`` lets a coordinator (the shard router) assign
        *global* ids, and a restore the ids of an image; they must be
        brand-new, in any order: the id counter is advanced past the
        largest numeric one, so no auto id repeats it.
        """
        n = len(batch)
        if n == 0:
            return 0
        if doc_ids is None:
            start = self._next_id
            self._next_id = start + n
            doc_ids = list(map(str, range(start, start + n)))
        else:
            self._claim_ids(doc_ids)
        self.epoch += n
        self._starts.append(len(self.columns.doc_ids))
        self._parts.append((self._starts[-1], batch))
        if type(batch) is not DocBatch:
            self.pending_docs += n
        self.columns.extend_new(doc_ids, batch)
        return n

    def _claim_ids(self, doc_ids: list) -> None:
        """Advance the id counter past every numeric id of
        ``doc_ids``."""
        try:
            top = max(map(int, doc_ids))
        except (TypeError, ValueError):
            # Some id is no number; an auto id can only repeat a
            # decimal one.
            top = max((int(doc_id) for doc_id in map(str, doc_ids)
                       if doc_id.isdecimal()), default=0)
        if top >= self._next_id:
            self._next_id = top + 1

    def documents(self) -> list[tuple[str, dict]]:
        """All (id, source) pairs in insertion order."""
        return self.pairs(self.columns.all_rows())

    def set_paths(self, lookup: Lookup, session: Optional[str]) -> None:
        """Name the rows of ``session`` (every row, for ``None``) by
        their ``file_tag``: a row whose tag the lookup's table holds
        takes that path as ``file_path``, its last key; any other stays
        without.

        A lane part whose rows are all the session's gains the field as
        a lane derived from its ``file_tag`` lane (:func:`derive_lane`,
        one :class:`Lookup` for every part, so a save's chunk of
        several parts derives it once).  Any other part names its
        documents: a :class:`DocBatch` its own, and a lane part its
        rows built for the purpose (:meth:`_documents`).  The dicts
        readers hold take the path too, and the ``file_path`` column
        goes: the next read builds it from the parts.
        """
        rows, _ = self.matching_rows(
            {"term": {"session": session}} if session else None)
        table = lookup.table
        built = self._built
        for number, at, upto in self._runs(rows):
            start, batch = self._parts[number]
            derived = (derive_lane(batch, "file_path", "file_tag", lookup)
                       if upto - at == len(batch) else None)
            if derived is None:
                derived = self._documents(number)
                docs = derived.docs_at([row - start for row in rows[at:upto]])
            else:
                docs = [built[row] for row in rows[at:upto]
                        if row in built] if built else []
            for doc in docs:
                tag = doc.get("file_tag")
                if tag in table:
                    doc["file_path"] = table[tag]
            self._parts[number] = (start, derived)
        self.epoch += 1
        self.columns.drop("file_path")

    def _documents(self, number: int) -> DocBatch:
        """Part ``number`` as a :class:`DocBatch` of its rows: the dicts
        readers hold, the rest built now."""
        start, batch = self._parts[number]
        if type(batch) is DocBatch:
            return DocBatch(batch.to_docs())
        docs = list(map(self._built.get, range(start, start + len(batch))))
        fresh = docs.count(None)
        if fresh:
            docs = [doc if doc is not None else new
                    for doc, new in zip(docs, batch.to_docs())]
            self.pending_docs -= fresh
            self.hydrated_docs_total += fresh
        return DocBatch(docs)

    # ------------------------------------------------------------------
    # Read path

    def plan(self, query: Optional[dict]) -> QueryPlan:
        """Plan ``query`` against this index's columns."""
        return plan_query(query, self.column)

    def _ids(self, rows: Iterable[int]) -> list[str]:
        if isinstance(rows, range):     # a contiguous plan: one slice
            return self.columns.doc_ids[rows.start:rows.stop:rows.step]
        return list(map(self.columns.doc_ids.__getitem__, rows))

    def sources(self, rows: Sequence[int]) -> list[dict]:
        """The ``_source`` of each of ``rows``, in their order.

        A row is built from its part's lanes the first time a reader
        asks for it — on its own (:meth:`LaneBatch.docs_at`), or with
        the whole part when all of it is asked for at once — and is the
        same dict on every read after, until it changes.
        """
        built = self._built
        missing = [row for row in rows if row not in built]
        if missing:
            self._build(missing)
        return list(map(built.__getitem__, rows))

    def _runs(self, rows: Sequence[int]
              ) -> Iterator[tuple[int, int, int]]:
        """``(part number, at, upto)`` of each part holding some of the
        ascending ``rows``, in row order: ``rows[at:upto]`` are its
        rows.  A part is found by one bisect of the parts' first rows,
        its run by one bisect at its end, so a part no row is in costs
        nothing."""
        starts = self._starts
        at = 0
        while at < len(rows):
            number = bisect_right(starts, rows[at]) - 1
            start, batch = self._parts[number]
            upto = bisect_left(rows, start + len(batch), at)
            yield number, at, upto
            at = upto

    def _build(self, rows: list[int]) -> None:
        """Build ``rows`` (distinct, none built yet), one part's run of
        them at a time."""
        rows.sort()
        built = self._built
        for number, at, upto in self._runs(rows):
            start, batch = self._parts[number]
            need = rows[at:upto]
            built.update(zip(need, batch.to_docs() if len(need) == len(batch)
                             else batch.docs_at([row - start
                                                 for row in need])))
            if type(batch) is not DocBatch:
                self.pending_docs -= len(need)
                self.hydrated_docs_total += len(need)

    def pairs(self, rows: Sequence[int]) -> list[tuple[str, dict]]:
        """``(id, source)`` of ``rows``, in their order."""
        return list(zip(self._ids(rows), self.sources(rows)))

    def scan(self, query: Optional[dict],
             plan: Optional[QueryPlan] = None) -> list[tuple[str, dict]]:
        """All (id, source) pairs matching ``query``, insertion-ordered."""
        return self.pairs(self.matching_rows(query, plan)[0])

    def lanes(self, query: Optional[dict],
              plan: Optional[QueryPlan] = None
              ) -> tuple[list[str], JoinedBatch]:
        """The matches of :meth:`scan`, in its order, as ``(doc_ids,
        batch)`` — one joined lane batch, no document built.

        A part is handed over as it is (or taken to its matching rows)
        whether or not a reader has had some of its rows built: the
        lanes and those dicts say the same.
        """
        rows, _ = self.matching_rows(query, plan)
        parts: list[LaneBatch] = []
        for number, at, upto in self._runs(rows):
            start, batch = self._parts[number]
            parts.append(batch if upto - at == len(batch) else batch.take(
                [row - start for row in rows[at:upto]]))
        return self._ids(rows), JoinedBatch(parts)

    def count(self, query: Optional[dict],
              plan: Optional[QueryPlan] = None) -> int:
        """Number of matches, without materialising (id, source) pairs."""
        if plan is None:
            plan = self.plan(query)
        if plan.exact and plan.rows is None:
            return len(self)               # nothing to validate or build
        return self.matching_rows(query, plan)[1]

    def matching_rows(self, query: Optional[dict],
                      plan: Optional[QueryPlan] = None
                      ) -> tuple[Sequence[int], int]:
        """Matching *row numbers* (ascending) and the match count.

        The read every request shares: no ``(id, source)`` tuples, no
        hit dicts — the rows the columnar kernels consume, a sorted
        search orders and :meth:`pairs` turns into hits.  Under an
        exact plan no document is built; otherwise the candidates'
        are (:meth:`sources`).  The sequence may be column storage
        (read-only).
        """
        predicate = compile_query(query)   # validates even when exact
        if plan is None:
            plan = self.plan(query)
        rows = self.columns.all_rows() if plan.rows is None else plan.rows
        if not plan.exact:
            rows = [row for row, source in zip(rows, self.sources(rows))
                    if predicate(source)]
        return rows, len(rows)

    def sort_rows(self, rows: Sequence[int],
                  entries: list[tuple[str, bool]]) -> Sequence[int]:
        """Ascending ``rows`` in the order a stable multi-pass
        ``list.sort`` by ``sort_key(field value)`` — last entry first,
        ``reverse=True`` for a descending one — leaves their documents.

        Keys are read off the field's column; only a column that
        cannot say (:meth:`Column.sort_keys`) sends the pass to the
        documents.  A pass over a sorted dense lane (a trace's
        ``time``, ascending) is the identity while the rows still are
        in row order.
        """
        in_row_order = True
        for field, descending in reversed(entries):
            column = self.column(field)
            if in_row_order and not descending and column.sorted_dense:
                continue
            keys = column.sort_keys(rows)
            if keys is None:
                keys = [sort_key(get_field(source, field))
                        for _, source in self.pairs(rows)]
            order = sorted(range(len(keys)), key=keys.__getitem__,
                           reverse=descending)
            rows = list(map(rows.__getitem__, order))
            in_row_order = False
        return rows

    # ------------------------------------------------------------------
    # Aggregation result cache

    def agg_cache_key(self, query: Optional[dict],
                      aggs: dict) -> Optional[tuple]:
        """Cache key for one (query, aggs) request at the current epoch.

        ``None`` when the request cannot be canonicalised (exotic value
        types) — such requests simply bypass the cache.
        """
        try:
            body = json.dumps((query, aggs), sort_keys=True, default=repr)
        except (TypeError, ValueError):
            return None
        return (self.epoch, body)

    def agg_cache_get(self, key: tuple) -> Optional[tuple]:
        """Cached ``(total, aggregations)`` for ``key``, LRU-refreshed."""
        entry = self._agg_cache.get(key)
        if entry is not None:
            self._agg_cache.move_to_end(key)
        return entry

    def agg_cache_put(self, key: tuple, entry: tuple) -> None:
        """Insert one result; evicts least-recently-used beyond capacity.

        Stale epochs age out through the same LRU pressure — their keys
        can never hit again.
        """
        self._agg_cache[key] = entry
        self._agg_cache.move_to_end(key)
        while len(self._agg_cache) > AGG_CACHE_SIZE:
            self._agg_cache.popitem(last=False)


#: The ``dio_store_*``/``dio_ingest_*`` counter and gauge families:
#: (registry constructor, family name, reader key, help text).
_STORE_FAMILIES = (
    ("counter", "dio_store_bulk_requests_total", "bulk_requests",
     "Bulk indexing requests received by the document store."),
    ("counter", "dio_store_documents_indexed_total", "documents_indexed",
     "Documents indexed across all indices."),
    ("counter", "dio_store_queries_total", "queries",
     "Search and count requests served."),
    ("counter", "dio_ingest_columnar_bulks_total", "columnar_bulks",
     "Bulk requests ingested lane-wise by bulk_columnar "
     "(no per-event _source materialisation)."),
    ("counter", "dio_ingest_docs_hydrated_total", "docs_hydrated",
     "Lane-appended documents (traced batches and loaded sessions) "
     "whose _source dicts were built: one row at a time for the hits "
     "a request returns (and the candidates an inexact plan "
     "re-checks), the rest of a batch when an update sets a field the "
     "batch holds as a lane.  Puts, aggregations, exact plans, "
     "file-path correlation, save_session and diagnosis build "
     "nothing."),
    ("gauge", "dio_ingest_pending_docs", "pending_docs",
     "Lane-appended documents (traced batches and loaded sessions) "
     "whose _source no reader or update has had built yet."),
    ("counter", "dio_store_plan_exact_total", "plan_exact",
     "Queries the planner resolved as exact."),
    ("counter", "dio_store_plan_pruned_total", "plan_pruned",
     "Queries the planner resolved as pruned."),
    ("counter", "dio_store_plan_fullscan_total", "plan_fullscan",
     "Queries the planner resolved as fullscan."),
    ("gauge", "dio_store_plan_pruning_ratio", "pruning_ratio",
     "Cumulative fraction of stored documents the planner's "
     "candidate sets skipped (1.0 = nothing scanned)."),
    ("counter", "dio_store_agg_pushdown_total", "agg_pushdowns",
     "Aggregation requests served by the columnar kernels "
     "(typed columns, no _source materialisation)."),
    ("counter", "dio_store_agg_fallback_total", "agg_fallbacks",
     "Aggregation requests served by the dict-walking path "
     "(a shape the columnar kernels do not support)."),
    ("counter", "dio_store_agg_cache_hits_total", "agg_cache_hits",
     "Aggregation lookups answered from an index's (epoch, query, "
     "aggs) result cache; on a sharded store, one lookup per shard "
     "partial."),
    ("counter", "dio_store_agg_cache_misses_total", "agg_cache_misses",
     "Cacheable aggregation lookups that had to be computed; on a "
     "sharded store, one lookup per shard partial."),
)


def bind_store_telemetry(registry, clock,
                         readers: dict[str, Callable[[], Any]]) -> dict:
    """Register the store families once, whoever owns the numbers.

    ``readers`` maps every reader key in :data:`_STORE_FAMILIES` to a
    zero-argument callable: :class:`DocumentStore` reads its own
    counters, the shard coordinator its counters and shard sums.
    Returns what the bulk and query paths observe into — the clock
    (for :func:`span_start`/:func:`observe_span`), the span histogram
    and the aggregation-kernel histogram.
    """
    from repro.telemetry.spans import SPAN_HISTOGRAM

    for kind, name, key, help_text in _STORE_FAMILIES:
        getattr(registry, kind)(name, help_text).set_function(readers[key])
    return {
        "clock": clock,
        "span": registry.histogram(
            SPAN_HISTOGRAM,
            "Duration of pipeline stage spans "
            "(virtual nanoseconds).", labelnames=("span",)),
        "agg_kernel": registry.histogram(
            "dio_store_agg_kernel_ns",
            "Wall-clock duration of one columnar aggregation "
            "kernel run (real nanoseconds).",
            buckets=(0, 10_000, 100_000, 1_000_000, 10_000_000,
                     100_000_000, 1_000_000_000)),
    }


def span_start(telemetry: Optional[dict]) -> Optional[int]:
    """Clock reading that opens a span, or ``None`` when unbound."""
    if telemetry is None or telemetry["clock"] is None:
        return None
    return telemetry["clock"]()


def observe_span(telemetry: Optional[dict], name: str,
                 start_ns: Optional[int]) -> None:
    """Close the span :func:`span_start` opened (no-op for ``None``)."""
    if start_ns is None:
        return
    telemetry["span"].labels(span=name).observe(
        telemetry["clock"]() - start_ns)


class DocumentStore:
    """A collection of named indices — the in-process "Elasticsearch"."""

    def __init__(self) -> None:
        self._indices: dict[str, Index] = {}
        self.bulk_requests = 0
        self.documents_indexed = 0
        #: Bulk requests served by the vectorized lane path.
        self.columnar_bulks = 0
        self.queries = 0
        #: Query-planner decisions, by plan kind.
        self.plan_counts = {"exact": 0, "pruned": 0, "fullscan": 0}
        #: Documents the executed plans had to examine vs. were stored.
        self.docs_examined = 0
        self.docs_available = 0
        #: Aggregation-engine decisions and cache traffic.
        self.agg_pushdowns = 0
        self.agg_fallbacks = 0
        self.agg_cache_hits = 0
        self.agg_cache_misses = 0
        #: Cumulative wall-clock time inside columnar kernels (real ns).
        self.agg_kernel_ns = 0
        self._telemetry: Optional[dict] = None

    def bind_telemetry(self, registry, clock=None) -> None:
        """Expose store counters and sizes on a telemetry registry.

        ``registry`` is a :class:`repro.telemetry.MetricsRegistry`.
        With ``clock`` given (a callable returning nanoseconds, e.g.
        the simulation clock), bulk and query calls also record
        ``store.bulk`` / ``store.query`` spans; on the virtual clock
        these are zero-duration unless the caller's clock advances, so
        the tracer's shipper span is where bulk round-trip latency
        shows up.
        """
        self._telemetry = bind_store_telemetry(registry, clock, {
            "bulk_requests": lambda: self.bulk_requests,
            "documents_indexed": lambda: self.documents_indexed,
            "queries": lambda: self.queries,
            "columnar_bulks": lambda: self.columnar_bulks,
            "docs_hydrated": lambda: sum(
                index.hydrated_docs_total
                for index in self._indices.values()),
            "pending_docs": lambda: sum(
                index.pending_docs for index in self._indices.values()),
            "plan_exact": lambda: self.plan_counts["exact"],
            "plan_pruned": lambda: self.plan_counts["pruned"],
            "plan_fullscan": lambda: self.plan_counts["fullscan"],
            "pruning_ratio": self.pruning_ratio,
            "agg_pushdowns": lambda: self.agg_pushdowns,
            "agg_fallbacks": lambda: self.agg_fallbacks,
            "agg_cache_hits": lambda: self.agg_cache_hits,
            "agg_cache_misses": lambda: self.agg_cache_misses,
        })

    def pruning_ratio(self) -> float:
        """1 - (docs examined / docs stored), cumulative over queries."""
        if self.docs_available == 0:
            return 0.0
        return 1.0 - self.docs_examined / self.docs_available

    def agg_cache_hit_rate(self) -> float:
        """Fraction of cacheable aggregation requests served from cache."""
        cacheable = self.agg_cache_hits + self.agg_cache_misses
        if cacheable == 0:
            return 0.0
        return self.agg_cache_hits / cacheable

    def agg_stats(self) -> dict:
        """Aggregation-engine counters as plain data (CLI/dashboards)."""
        return {
            "pushdowns": self.agg_pushdowns,
            "fallbacks": self.agg_fallbacks,
            "cache_hits": self.agg_cache_hits,
            "cache_misses": self.agg_cache_misses,
            "cache_hit_rate": self.agg_cache_hit_rate(),
            "kernel_ms": self.agg_kernel_ns / 1e6,
        }

    # ------------------------------------------------------------------
    # Index management

    def create_index(self, name: str,
                     indexed_fields: Optional[Iterable[str]] = None) -> Index:
        """Create an index; error if it exists."""
        if name in self._indices:
            raise StoreError(f"index {name!r} already exists")
        index = Index(name, indexed_fields)
        self._indices[name] = index
        return index

    def ensure_index(self, name: str,
                     indexed_fields: Optional[Iterable[str]] = None) -> Index:
        """Create-or-get an index (what the tracer's shipper uses).

        ``indexed_fields`` declares what will be queried and builds
        nothing ahead of the first query that touches a field (see
        :class:`Index`).
        """
        if name not in self._indices:
            return self.create_index(name, indexed_fields)
        return self._indices[name]

    def delete_index(self, name: str) -> None:
        """Drop an index and its documents."""
        if name not in self._indices:
            raise StoreError(f"no such index {name!r}")
        del self._indices[name]

    def index_names(self) -> list[str]:
        """Sorted names of existing indices."""
        return sorted(self._indices)

    def _index(self, name: str) -> Index:
        index = self._indices.get(name)
        if index is None:
            raise StoreError(f"no such index {name!r}")
        return index

    def _plan(self, target: Index, query: Optional[dict]) -> QueryPlan:
        """Plan a query and record the decision for telemetry."""
        plan = target.plan(query)
        self.plan_counts[plan.mode] += 1
        stored = len(target)
        self.docs_available += stored
        self.docs_examined += stored if plan.rows is None else len(plan.rows)
        return plan

    def count(self, index: str, query: Optional[dict] = None) -> int:
        """Number of documents matching ``query``.

        Counting never materialises hit tuples: exact plans answer from
        the size of the plan's rows alone, pruned/fullscan plans run
        the predicate over the candidate rows' sources.
        """
        self.queries += 1
        target = self._index(index)
        return target.count(query, self._plan(target, query))

    # ------------------------------------------------------------------
    # Document APIs

    def bulk(self, index: str, sources: Iterable[dict]) -> int:
        """Bulk-index documents as one :class:`DocBatch` part; returns
        how many.  A source that is not a dict stores nothing: every
        source is checked before any id is assigned."""
        start = span_start(self._telemetry)
        batch = DocBatch(check_sources(sources))
        count = self.ensure_index(index).bulk_append(batch)
        self.bulk_requests += 1
        self.documents_indexed += count
        observe_span(self._telemetry, "store.bulk", start)
        return count

    def bulk_columnar(self, index: str, batch: LaneBatch,
                      doc_ids: Optional[list[str]] = None) -> int:
        """Bulk-index one :class:`LaneBatch` — a decoded ring batch or
        a loaded session's segment blocks.

        The lane-wise ingest endpoint: the batch is parked as it is
        and the columns that exist take whole lanes — no per-event
        ``_source`` dict exists until a query asks for one.  Counter
        and span semantics match :meth:`bulk` exactly, so either path
        satisfies the same telemetry invariants.
        """
        start = span_start(self._telemetry)
        target = self.ensure_index(index)
        count = target.bulk_append(batch, doc_ids)
        self.bulk_requests += 1
        self.columnar_bulks += 1
        self.documents_indexed += count
        observe_span(self._telemetry, "store.bulk", start)
        return count

    # ------------------------------------------------------------------
    # Search

    def scan(self, index: str,
             query: Optional[dict] = None) -> list[tuple[str, dict]]:
        """All matching (id, source) pairs, without response envelopes.

        The lean read path for analytics (correlation, detectors) that
        want raw sources rather than ES-shaped hit dicts.
        """
        self.queries += 1
        target = self._index(index)
        return target.scan(query, self._plan(target, query))

    def lanes(self, index: str, query: Optional[dict] = None
              ) -> tuple[list[str], JoinedBatch]:
        """:meth:`scan` as lanes: ``(doc_ids, batch)`` holding the
        matching documents in scan order as one
        :class:`~repro.backend.lanes.JoinedBatch`.

        The read for whoever wants fields, not documents (correlation,
        ``save_session``): documents still parked as lanes stay
        parked.  It is a snapshot — read it, then write; take a fresh
        one afterwards.
        """
        self.queries += 1
        target = self._index(index)
        return target.lanes(query, self._plan(target, query))

    def _run_kernels(self, target: Index, aggs: dict, rows) -> dict:
        """One timed columnar kernel run (``supports`` said yes)."""
        kernel_start = time.perf_counter_ns()
        result = target.columns.run(aggs, rows)
        elapsed = time.perf_counter_ns() - kernel_start
        self.agg_pushdowns += 1
        self.agg_kernel_ns += elapsed
        if self._telemetry is not None:
            self._telemetry["agg_kernel"].observe(elapsed)
        return result

    def search(self, index: str, query: Optional[dict] = None,
               aggs: Optional[dict] = None,
               sort: Optional[list] = None,
               size: Optional[int] = 10,
               from_: int = 0) -> dict:
        """Search an index; returns an ES-shaped response dict.

        ``sort`` entries may be field names (ascending) or
        ``{"field": {"order": "desc"}}`` dicts (:func:`parse_sort`).
        ``size=None`` returns all hits.  The matching *rows* are
        ordered (:meth:`Index.sort_rows`) and only the window
        ``[from_, from_ + size)`` becomes hits.

        Aggregation requests go through the columnar engine: without
        ``sort`` a cache probe first, then — for supported shapes — the
        plan's rows handed straight to the column kernels
        (``size=0`` requests never materialise a single hit tuple or
        ``_source`` dict).  Anything else falls back to the legacy
        dict-walking :func:`run_aggregations`, which is also the
        correctness oracle the kernels are tested against.
        """
        if from_ < 0:
            raise StoreError(f"from_ must be non-negative: {from_}")
        if size is not None and size < 0:
            raise StoreError(f"size must be non-negative or None: {size}")
        start = span_start(self._telemetry)
        self.queries += 1
        target = self._index(index)

        aggregations = None
        total: Optional[int] = None
        cache_key = cacheable = None
        if aggs is not None and not sort:
            cache_key = target.agg_cache_key(query, aggs)
            cacheable = cache_key is not None
            if cacheable:
                cached = target.agg_cache_get(cache_key)
                if cached is not None:
                    self.agg_cache_hits += 1
                    total, aggregations = cached[0], copy_json(cached[1])
                    cacheable = False      # nothing new to store
                else:
                    self.agg_cache_misses += 1

        if aggregations is not None and size == 0:
            # Fully served from cache: no planning, no scan, no hits.
            observe_span(self._telemetry, "store.query", start)
            return _response(index, total, [], aggregations)

        plan = self._plan(target, query)
        pushdown = (aggs is not None and aggregations is None and not sort
                    and ColumnSet.supports(aggs, target.column))

        matched, total = target.matching_rows(query, plan)
        rows = (target.sort_rows(matched, parse_sort(sort)) if sort
                else matched)
        if aggs is not None and aggregations is None:
            if pushdown:
                aggregations = self._run_kernels(target, aggs, matched)
            else:
                aggregations = run_aggregations(aggs, target.sources(rows))
                self.agg_fallbacks += 1
        # Only the hits that are returned are ever built (an
        # aggregate- or count-only request builds none and hydrates
        # nothing).
        rows = rows[from_:] if size is None else rows[from_:from_ + size]
        window = target.pairs(rows) if rows else []

        observe_span(self._telemetry, "store.query", start)
        if cacheable and aggregations is not None:
            target.agg_cache_put(cache_key, (total, copy_json(aggregations)))
        return _response(index, total, window, aggregations)

    def set_paths(self, index: str, table: dict,
                  session: Optional[str] = None) -> None:
        """The correlation's one write: ``table`` maps file tags to
        paths, and every row of ``session`` (of the index, for
        ``None``) whose tag it holds reads that path as ``file_path``
        (:meth:`Index.set_paths`; the caller's dict is copied)."""
        self._index(index).set_paths(Lookup(dict(table)), session)


def check_sources(sources: Iterable[dict]) -> list[dict]:
    """``sources`` as a list, or :class:`StoreError` for the first that
    is not a dict — before a bulk assigns any id or row."""
    sources = list(sources)
    for source in sources:
        if not isinstance(source, dict):
            raise StoreError(f"document source must be a dict: {source!r}")
    return sources


def parse_sort(sort: list) -> list[tuple[str, bool]]:
    """``(field, descending)`` per ``sort`` entry — a field name
    (ascending) or ``{field: {"order": "asc" | "desc"}}``.

    Entries are validated last first, the order the stable multi-pass
    sort visits them, so the first bad one met that way is the
    :class:`StoreError`.
    """
    entries = []
    for entry in reversed(sort):
        if isinstance(entry, str):
            field, descending = entry, False
        elif isinstance(entry, dict) and len(entry) == 1:
            field, opts = next(iter(entry.items()))
            descending = (opts or {}).get("order", "asc") == "desc"
        else:
            raise StoreError(f"bad sort entry {entry!r}")
        entries.append((field, descending))
    return entries[::-1]


def copy_json(value: Any) -> Any:
    """``value`` with every ``dict`` and ``list`` in it copied, all the
    way down; anything else — numbers, strings, the tuples a bucket
    key can be — shared.  What a cached aggregation result is shaped
    like: a cache hands out and keeps copies, so no caller's mutation
    reaches the next response."""
    if type(value) is dict:
        return {key: copy_json(item) for key, item in value.items()}
    if type(value) is list:
        return [copy_json(item) for item in value]
    return value


def _response(index: str, total: int, window: list,
              aggregations: Optional[dict]) -> dict:
    """Assemble the ES-shaped search response envelope."""
    response = {
        "hits": {
            "total": {"value": total},
            "hits": [{"_id": doc_id, "_index": index, "_source": source}
                     for doc_id, source in window],
        },
    }
    if aggregations is not None:
        response["aggregations"] = aggregations
    return response
