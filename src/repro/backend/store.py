"""The document store: indices, search, bulk and update APIs.

API surface mirrors the slice of Elasticsearch that DIO uses: document
indexing (including a bulk endpoint the tracer batches into), search
with query + aggregations + sort + pagination, and update-by-query for
the correlation algorithm.

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

Writes are delta-aware: re-putting or refreshing a document moves its
row only in the columns whose values actually changed.  Documents a
vectorized bulk parked as lanes (:mod:`repro.backend.lanes`) stay
parked through the tail of a traced execution and through every read
of a loaded session: :meth:`DocumentStore.lanes` reads them as lanes,
:meth:`DocumentStore.update_docs` lands on them as an overlay, and a
request that returns hits builds the ``_source`` of those rows alone
(:meth:`Index.sources`), so correlation, ``save_session``, diagnosis
and a ``size=50`` window build no other dict.  Only a path that mutates
documents hydrates the rest.

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
from repro.backend.lanes import DocBatch, JoinedBatch, LaneBatch, sort_key
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
    """A named collection of JSON documents, addressed by row."""

    def __init__(self, name: str,
                 indexed_fields: Optional[Iterable[str]] = None):
        """``indexed_fields`` is accepted for the callers that declare
        what they will query (the tracer, the session loaders) and
        builds nothing: a field's column is built from lanes by the
        first query, sort or aggregation that touches it."""
        self.name = name
        self._docs: dict[str, dict] = {}
        self._next_id = 1
        #: Row numbering plus one typed :class:`Column` per field any
        #: request has touched — the only per-field structure: the
        #: planner, the sort and the aggregation kernels all read it.
        #: An index is append-only: a document's row is its insertion
        #: rank forever.
        self.columns = ColumnSet()
        #: Mutation epoch — any put/refresh bumps it, which is
        #: what keys cached aggregation results out of existence.
        self.epoch = 0
        self._agg_cache: OrderedDict[tuple, tuple] = OrderedDict()
        #: Lane-wise bulk appends still *parked*: ``(first row,
        #: LaneBatch)`` pairs, the last rows of the index (``put``
        #: hydrates them before it inserts), moved into ``_docs`` only
        #: by a path that mutates documents.
        self._pending: list[tuple[int, LaneBatch]] = []
        self._pending_count = 0
        #: Row -> ``_source`` of the parked rows a reader has asked for,
        #: built one row at a time (:meth:`sources`): a row reads as
        #: the same dict until it changes.
        self._built: dict[int, dict] = {}
        #: Documents lazily materialised so far (telemetry).
        self.hydrated_docs_total = 0

    def __len__(self) -> int:
        return len(self._docs) + self._pending_count

    # ------------------------------------------------------------------
    # Lazy hydration (vectorized bulk path)

    @property
    def pending_docs(self) -> int:
        """Documents appended lane-wise whose ``_source`` no reader has
        asked for yet."""
        return self._pending_count - len(self._built)

    def _hydrate(self) -> None:
        """Move every parked row into ``_docs`` — the dicts readers
        were handed, the rest built batch by batch.

        Called by the paths that mutate documents.  The batches were
        appended in insertion order and ``put`` hydrates before
        inserting, so ``_docs`` iteration order always matches row
        order afterwards.
        """
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        built, self._built = self._built, {}
        self.hydrated_docs_total += self._pending_count - len(built)
        self._pending_count = 0
        docs = self._docs
        doc_ids = self.columns.doc_ids
        for start, batch in pending:
            rows = range(start, start + len(batch))
            held = list(map(built.get, rows))
            if None in held:
                held = [doc if doc is not None else new
                        for doc, new in zip(held, batch.to_docs())]
            docs.update(zip(doc_ids[start:rows.stop], held))

    def column(self, field: str) -> Column:
        """``field``'s column, built on first use — the planner's
        field resolver, so a query pays for the fields it touches and
        only those.  A first build reads the materialised documents as
        dicts and the batches still parked as lanes, so planning and
        aggregating never hydrate."""
        return self.columns.ensure_column(
            field, self._docs, [batch for _, batch in self._pending])

    def bulk_append(self, batch: LaneBatch,
                    doc_ids: Optional[list[str]] = None) -> int:
        """Append one :class:`LaneBatch` of brand-new docs.

        The vectorized twin of ``put`` in a loop: ids and rows are
        assigned in one pass and no source dict is built — the batch is
        parked on the pending list until a reader needs sources, and
        only the columns that already exist take its lanes.  State
        after this call plus
        :meth:`_hydrate` is identical to ``len(batch)`` sequential
        ``put`` calls.

        ``doc_ids`` lets a coordinator (the shard router) assign
        *global* ids; it sends them in global insertion order, so
        shard-local row order is the global order.  Ids must be
        brand-new and, when numeric, ascending — the id counter is
        advanced past the last one.
        """
        n = len(batch)
        if n == 0:
            return 0
        if doc_ids is None:
            start = self._next_id
            self._next_id = start + n
            doc_ids = list(map(str, range(start, start + n)))
        else:
            self._claim_id(doc_ids[-1])
        self.epoch += n
        self._pending.append((len(self.columns.doc_ids), batch))
        self._pending_count += n
        self.columns.extend_new(doc_ids, batch)
        return n

    # ------------------------------------------------------------------
    # Write path

    def _generate_id(self) -> str:
        doc_id = str(self._next_id)
        self._next_id += 1
        return doc_id

    def _claim_id(self, doc_id: str) -> None:
        """Advance the id counter past explicit numeric ids.

        Without this, ``put(source, doc_id="7")`` followed by enough
        auto-id puts would silently overwrite document ``"7"``.
        """
        try:
            numeric = int(str(doc_id))
        except ValueError:
            return
        if numeric >= self._next_id:
            self._next_id = numeric + 1

    def put(self, source: dict, doc_id: Optional[str] = None) -> str:
        """Index one document; returns its id.

        Re-putting an existing id keeps its row and is delta-aware:
        each column moves the row only if the field's value changed,
        and in-place mutations of the stored source are handled
        correctly because a column remembers what it holds per row.
        """
        if not isinstance(source, dict):
            raise StoreError(f"document source must be a dict: {source!r}")
        self._hydrate()                    # keep _docs in insertion order
        if doc_id is None:
            doc_id = self._generate_id()
        else:
            self._claim_id(doc_id)
        self._docs[doc_id] = source
        self.epoch += 1
        self.columns.note_put(doc_id, source)
        return doc_id

    def documents(self) -> Iterator[tuple[str, dict]]:
        """All (id, source) pairs in insertion order."""
        self._hydrate()
        return iter(self._docs.items())

    def refresh_many(self, doc_ids: Iterable[str],
                     fields: Optional[Iterable[str]] = None) -> None:
        """Re-read column values after in-place source mutations.

        ``fields`` narrows the work to columns that can actually have
        changed (e.g. the correlator only ever sets ``file_path``).
        """
        self._hydrate()
        self.epoch += 1
        docs = self._docs
        fields = tuple(fields) if fields is not None else None
        for doc_id in doc_ids:
            source = docs.get(doc_id)
            if source is not None:
                self.columns.note_refresh(doc_id, source, fields)

    def update_docs(self, doc_ids: Iterable[str], fields: dict) -> int:
        """``source.update(fields)`` on the documents that exist;
        returns how many.

        A document still parked as lanes takes the update as an
        overlay on its batch (:meth:`LaneBatch.overlay`) and stays
        parked; state after :meth:`_hydrate` is what updating hydrated
        documents leaves.
        """
        row_of = self.columns.row_of
        updated = [doc_id for doc_id in doc_ids if doc_id in row_of]
        if not self._overlay(updated, fields):
            self._hydrate()
            docs = self._docs
            for doc_id in updated:
                docs[doc_id].update(fields)
            self.refresh_many(updated, tuple(fields))
        return len(updated)

    def _overlay(self, doc_ids: list[str], fields: dict) -> bool:
        """:meth:`update_docs` without hydrating; ``False`` when a
        batch or a column needs the documents for it (a batch that
        took the overlay before another refused keeps it: the row path
        then sets the same values again)."""
        pending = self._pending
        if not pending:
            return False
        columns = self.columns.affected(fields)
        if not all(held.field in fields for held in columns):
            return False                # a dotted name under a new key
        row_of = self.columns.row_of
        starts = [start for start, _ in pending]
        # The dicts readers already hold take the update too.
        held: list[dict] = []
        lane_rows: dict[int, list[int]] = {}
        built = self._built
        for doc_id in doc_ids:
            row = row_of[doc_id]
            entry = bisect_right(starts, row) - 1
            if entry < 0:
                held.append(self._docs[doc_id])
            else:
                lane_rows.setdefault(entry, []).append(row - starts[entry])
                if row in built:
                    held.append(built[row])
        for entry, rows in lane_rows.items():
            if not pending[entry][1].overlay(rows, fields):
                return False
        for source in held:
            source.update(fields)
        self.epoch += 1
        for held in columns:
            value = fields[held.field]
            for doc_id in doc_ids:
                held.set(row_of[doc_id], value)
        return True

    # ------------------------------------------------------------------
    # Read path

    def plan(self, query: Optional[dict]) -> QueryPlan:
        """Plan ``query`` against this index's columns."""
        return plan_query(query, self.column)

    def _ids(self, rows: Iterable[int]) -> list[str]:
        return list(map(self.columns.doc_ids.__getitem__, rows))

    def sources(self, rows: Sequence[int]) -> list[dict]:
        """The ``_source`` of each of ``rows``, in their order.

        A parked row is built from its batch's lanes the first time a
        reader asks for it — on its own (:meth:`LaneBatch.docs_at`),
        or with the whole batch when all of it is asked for at once —
        and is the same dict on every read after, until it changes.
        """
        doc_ids = self.columns.doc_ids
        docs = self._docs
        if not self._pending:
            return [docs[doc_ids[row]] for row in rows]
        first = self._pending[0][0]
        built = self._built
        missing = [row for row in rows if row >= first and row not in built]
        if missing:
            self._build(missing)
        return [docs[doc_ids[row]] if row < first else built[row]
                for row in rows]

    def _build(self, rows: list[int]) -> None:
        """Build the parked ``rows`` (distinct, none built yet), one
        batch's run of them at a time."""
        rows.sort()
        pending = self._pending
        starts = [start for start, _ in pending]
        built = self._built
        at = 0
        while at < len(rows):
            start, batch = pending[bisect_right(starts, rows[at]) - 1]
            upto = bisect_left(rows, start + len(batch), at)
            need = rows[at:upto]
            built.update(zip(need, batch.to_docs() if len(need) == len(batch)
                             else batch.docs_at([row - start
                                                 for row in need])))
            at = upto
        self.hydrated_docs_total += len(rows)

    def pairs(self, rows: Sequence[int]) -> list[tuple[str, dict]]:
        """``(id, source)`` of ``rows``, in their order."""
        return list(zip(self._ids(rows), self.sources(rows)))

    def scan(self, query: Optional[dict],
             plan: Optional[QueryPlan] = None) -> list[tuple[str, dict]]:
        """All (id, source) pairs matching ``query``, insertion-ordered."""
        return self.pairs(self.matching_rows(query, plan)[0])

    def lanes(self, query: Optional[dict],
              plan: Optional[QueryPlan] = None
              ) -> tuple[list[str], LaneBatch]:
        """The matches of :meth:`scan`, in its order, as ``(doc_ids,
        batch)`` — one lane batch, no document built.

        A parked batch is handed over as it is (or taken to its
        matching rows) whether or not a reader has had some of its
        rows built — the lanes and those dicts say the same — and the
        hydrated documents are the transposing part.
        """
        rows, _ = self.matching_rows(query, plan)
        doc_ids = self._ids(rows)
        pending = self._pending
        # Hydrated rows first: the parked batches are the last rows.
        done = bisect_left(rows, pending[0][0]) if pending else len(rows)
        parts: list[LaneBatch] = [DocBatch(
            list(map(self._docs.__getitem__, doc_ids[:done])))]
        for start, batch in pending:
            upto = bisect_left(rows, start + len(batch), done)
            if upto - done == len(batch):
                parts.append(batch)
            elif upto > done:
                parts.append(batch.take(
                    [row - start for row in rows[done:upto]]))
            done = upto
        return doc_ids, JoinedBatch(parts)

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
     "re-checks), the rest when a write needs the documents (a put, "
     "an update a lane cannot overlay).  Aggregations, exact "
     "plans, file-path correlation, save_session and diagnosis read "
     "lanes and build nothing."),
    ("gauge", "dio_ingest_pending_docs", "pending_docs",
     "Lane-appended documents (traced batches and loaded sessions) "
     "whose _source no reader has had built yet."),
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

    def index_doc(self, index: str, source: dict,
                  doc_id: Optional[str] = None) -> str:
        """Index a single document."""
        doc_id = self.ensure_index(index).put(source, doc_id)
        self.documents_indexed += 1
        return doc_id

    def bulk(self, index: str, sources: Iterable[dict]) -> int:
        """Bulk-index documents, one ``put`` each; returns how many.

        A source that is not a dict stores nothing: every source is
        checked before the first is put.
        """
        start = span_start(self._telemetry)
        sources = check_sources(sources)
        target = self.ensure_index(index)
        for source in sources:
            target.put(source)
        self.bulk_requests += 1
        self.documents_indexed += len(sources)
        observe_span(self._telemetry, "store.bulk", start)
        return len(sources)

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
              ) -> tuple[list[str], LaneBatch]:
        """:meth:`scan` as lanes: ``(doc_ids, batch)`` holding the
        matching documents in scan order as one
        :class:`~repro.backend.lanes.LaneBatch`.

        The read for whoever wants fields, not documents (correlation,
        ``save_session``): documents still parked as lanes stay
        parked.  It is a snapshot — read it, then update; take a fresh
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

    def update_by_query(self, index: str, query: Optional[dict],
                        update: Callable[[dict], None] | dict) -> int:
        """Apply ``update`` to every matching document.

        ``update`` is either a callable mutating the source in place or
        a dict of fields to set (the common correlation case).  Returns
        the number of updated documents.  Re-indexing is delta-aware:
        for dict updates only the named fields' columns are refreshed.
        """
        target = self._index(index)
        matches = target.scan(query, self._plan(target, query))
        fields = None if callable(update) else tuple(update)
        for _, source in matches:
            if callable(update):
                update(source)
            else:
                source.update(update)
        target.refresh_many((doc_id for doc_id, _ in matches), fields)
        return len(matches)

    def update_docs(self, index: str, doc_ids: Iterable[str],
                    fields: dict) -> int:
        """Set ``fields`` on specific documents by id (delta reindex)."""
        return self._index(index).update_docs(doc_ids, fields)


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
