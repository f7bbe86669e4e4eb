"""Sharded document-store coordinator: scatter-gather over N shards.

The paper's production backend is a sharded Elasticsearch cluster;
this module puts the same shape in front of the in-process store.  A
:class:`ShardedDocumentStore` owns N plain :class:`DocumentStore`
shards — each with its own indexes, columns, and (when persisted) its
own segment directory — and a thin coordinator that:

- **routes writes** deterministically by a configurable shard key
  (``file_tag`` hash, ``pid``, or ``time`` window; ``TracerConfig
  [sharding]``), assigning *global* doc ids and insertion ranks and
  handing each shard its documents in rank order, so shard-local row
  order — every shard-local scan — is already the global order;
- **partitions bulks** lane-wise: a decoded
  :class:`~repro.tracer.batch.RecordBatch` — or a list of documents,
  as a :class:`~repro.backend.lanes.DocBatch` — is split by shard key
  with ``take`` before each shard's ``bulk_columnar``;
- **fans out reads** shard by shard (serially: the speed-up is the
  smaller per-shard working set, not threads) and merges at the
  coordinator, one plan per search: hits are a k-way heap merge by
  global rank (an unsorted search merges the matching ids and builds
  the window's documents alone; a sorted search asks each shard for its
  own sorted ``from_ + size`` prefix and merges those by the sort key);
  aggregations are each shard's columnar partial
  (:meth:`ColumnSet.partial`, cached per shard epoch — the router's
  only cache) handed to the same :meth:`ColumnSet.merge` that finishes
  a single store's answer — no aggregation is validated, computed or
  finished in this module — or, whenever a shard declines, the merge
  answers ``None`` or the request carries ``sort``, a gather in the
  single store's order that reproduces its bytes;
- **stays byte-identical**: ``shard_count=1`` (via :func:`create_store`)
  is literally today's ``DocumentStore``, and for any shard count the
  documents, query results, aggregations, correlation output, and
  diagnosis reports are identical to the single-store run.

Hash routing uses ``zlib.crc32`` over a normalised value token — never
Python ``hash()``, which is randomised per process for strings.  The
normalisation maps equal-comparing values (``3``, ``3.0``, ``True``)
to the same token so query-time routing can never miss a shard that
equality-based matching would reach.
"""

from __future__ import annotations

import json
import time
import zlib
from heapq import merge as heap_merge
from itertools import islice, repeat
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.backend.aggregations import run_aggregations
from repro.backend.columns import ColumnSet
from repro.backend.lanes import DocBatch, JoinedBatch
from repro.backend.query import get_field
from repro.backend.store import (DocumentStore, Index, StoreError,
                                 _response, bind_store_telemetry,
                                 check_sources, observe_span, parse_sort,
                                 sort_key, span_start)
from repro.backend.wal import frame_record, recover_log

#: Supported shard keys (``TracerConfig.shard_key``).
SHARD_KEYS = ("file_tag", "pid", "time_window")

#: Default time-window width for ``shard_key="time_window"`` (1 s).
DEFAULT_TIME_WINDOW_NS = 1_000_000_000

#: Shard recovery image (``shard-NN/router.bin``): magic, then one
#: ``[index, id, rank, source]`` record frame per document.
SHARD_IMAGE_MAGIC = b"DIOSHD01"
SHARD_IMAGE_NAME = "router.bin"


def _image_record(entry) -> tuple[str, str, int, dict]:
    """One shard-image payload; ``ValueError`` if it is not one."""
    name, doc_id, rank, source = entry
    if not (isinstance(name, str) and isinstance(doc_id, str)
            and isinstance(rank, int) and isinstance(source, dict)):
        raise ValueError("not a shard image record")
    return name, doc_id, rank, source


def _route_token(value: Any) -> str:
    """Equality-stable token for hash routing.

    ``3 == 3.0 == True`` under document matching, so they must route
    identically; integral numerics collapse to ``repr(int(value))``.
    """
    if isinstance(value, (bool, int, float)):
        try:
            integral = int(value)
            if value == integral:
                return repr(integral)
        except (OverflowError, ValueError):      # inf / nan
            pass
        return repr(float(value))
    return repr(value)


class _RevKey:
    """Reflected comparison wrapper: descending merge over sorted runs."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __lt__(self, other) -> bool:
        return other.value < self.value

    def __eq__(self, other) -> bool:
        return other.value == self.value


class _IndexState:
    """Coordinator-side bookkeeping for one logical index."""

    __slots__ = ("next_id", "next_rank", "rank", "owner")

    def __init__(self) -> None:
        self.next_id = 1
        self.next_rank = 0
        #: doc id -> global insertion rank (the merge key).
        self.rank: dict[str, int] = {}
        #: doc id -> shard number that holds it.
        self.owner: dict[str, int] = {}


class ShardedDocumentStore:
    """N document-store shards behind a scatter-gather coordinator.

    API-compatible with :class:`DocumentStore` for every surface the
    pipeline uses (tracer bulks, correlator lane reads and updates,
    persistence exports, diagnosis queries, telemetry binding), with
    byte-identical results for any shard count.
    """

    def __init__(self, shard_count: int = 2, shard_key: str = "pid",
                 time_window_ns: int = DEFAULT_TIME_WINDOW_NS) -> None:
        if not isinstance(shard_count, int) or shard_count < 1:
            raise StoreError(f"shard_count must be a positive int: "
                             f"{shard_count!r}")
        if shard_key not in SHARD_KEYS:
            raise StoreError(f"unknown shard key {shard_key!r} "
                             f"(expected one of {SHARD_KEYS})")
        if time_window_ns <= 0:
            raise StoreError(f"time_window_ns must be positive: "
                             f"{time_window_ns}")
        self.shard_count = shard_count
        self.shard_key = shard_key
        self.time_window_ns = time_window_ns
        #: The document field the shard key reads.
        self.route_field = {"file_tag": "file_tag", "pid": "pid",
                            "time_window": "time"}[shard_key]
        self.shards = [DocumentStore() for _ in range(shard_count)]
        self._states: dict[str, _IndexState] = {}
        self._indexed_fields: dict[str, Optional[tuple]] = {}
        #: Per index: can queries on the shard key still be routed to a
        #: shard subset?  Cleared when an update may have changed the
        #: shard-key field of an existing document (the doc stays on
        #: its owner shard, so key-based routing would miss it).
        self._routing_exact: dict[str, bool] = {}
        # Coordinator-level counters (same names as DocumentStore where
        # the concept matches).
        self.bulk_requests = 0
        self.documents_indexed = 0
        self.columnar_bulks = 0
        self.queries = 0
        #: Per-shard partial lookups in the shards' epoch-keyed caches.
        self.agg_cache_hits = 0
        self.agg_cache_misses = 0
        self.agg_kernel_ns = 0
        #: Scatter-gather specifics.
        self.routed_queries = 0       # served by a shard subset
        self.fanout_queries = 0       # had to consult every shard
        self.agg_merges = 0           # partial merges a kernel ran for
        self.agg_gathers = 0          # gathered in the single store's order
        self.bulk_partitions = 0      # per-shard sub-bulks dispatched
        self.rebalances = 0
        self.shard_kills = 0
        #: Scan report of the last :meth:`restore_shard` (``header_ok``,
        #: ``records_recovered``, ``torn_bytes_dropped``).
        self.shard_restore_report: Optional[dict] = None
        self._telemetry: Optional[dict] = None

    # ------------------------------------------------------------------
    # Routing

    def _route_value(self, value: Any) -> int:
        """Shard number for one shard-key value (deterministic)."""
        n = self.shard_count
        if value is None:
            return 0
        if self.shard_key == "time_window":
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                try:
                    return int(value // self.time_window_ns) % n
                except (OverflowError, ValueError):   # inf / nan
                    return 0
            return 0
        if self.shard_key == "pid" and isinstance(value, (bool, int, float)):
            try:
                integral = int(value)
                if value == integral:
                    return integral % n
            except (OverflowError, ValueError):
                pass
        token = _route_token(value)
        return zlib.crc32(token.encode("utf-8", "backslashreplace")) % n

    def _route_source(self, source: dict) -> int:
        return self._route_value(get_field(source, self.route_field))

    def _narrow(self, query: Any) -> Optional[set[int]]:
        """Shard subset that must hold every match, or ``None``.

        Sound, not complete: any doubt answers ``None`` (fan out).
        Only ``term``/``terms`` on the shard-key field and — for
        time-window sharding — ``range`` on ``time`` narrow; ``bool``
        queries narrow through any one ``must``/``filter`` clause.
        """
        if not isinstance(query, dict) or len(query) != 1:
            return None
        kind, body = next(iter(query.items()))
        if kind == "bool" and isinstance(body, dict):
            clauses = []
            for section in ("must", "filter"):
                part = body.get(section)
                if isinstance(part, list):
                    clauses.extend(part)
                elif isinstance(part, dict):
                    clauses.append(part)
            for clause in clauses:
                narrowed = self._narrow(clause)
                if narrowed is not None:
                    return narrowed
            return None
        if not isinstance(body, dict):
            return None
        if kind == "term" and len(body) == 1:
            field, value = next(iter(body.items()))
            if field == self.route_field and self.shard_key != "time_window":
                return {self._route_value(value)}
            return None
        if kind == "terms" and len(body) == 1:
            field, values = next(iter(body.items()))
            if (field == self.route_field and isinstance(values, (list, tuple))
                    and self.shard_key != "time_window"):
                return {self._route_value(v) for v in values}
            return None
        if (kind == "range" and self.shard_key == "time_window"
                and len(body) == 1):
            field, bounds = next(iter(body.items()))
            if field != "time" or not isinstance(bounds, dict):
                return None
            lo = bounds.get("gte", bounds.get("gt"))
            hi = bounds.get("lte", bounds.get("lt"))
            if not all(isinstance(b, (int, float)) and not isinstance(b, bool)
                       for b in (lo, hi)):
                return None
            window = self.time_window_ns
            lo_w, hi_w = int(lo // window), int(hi // window)
            if hi_w - lo_w + 1 >= self.shard_count:
                return None
            shards = {w % self.shard_count for w in range(lo_w, hi_w + 1)}
            shards.add(0)      # non-numeric time values live on shard 0
            return shards
        return None

    def _query_shards(self, index: str, query: Any) -> list[int]:
        """Shards a read must consult, ascending."""
        if self._routing_exact.get(index, True) and query is not None:
            try:
                narrowed = self._narrow(query)
            except Exception:
                narrowed = None
            if narrowed is not None and len(narrowed) < self.shard_count:
                self.routed_queries += 1
                return sorted(narrowed)
        self.fanout_queries += 1
        return list(range(self.shard_count))

    def _map_shards(self, shard_ids: list[int],
                    fn: Callable[[DocumentStore], Any]) -> list[Any]:
        """``fn`` per shard, results in shard-id order.

        One shard after the other on the caller's thread: a thread
        pool over pure-Python shards under the GIL measured no faster
        than this loop (docs/ARCHITECTURE.md), so what the router buys
        is smaller, cache-local shards, not concurrency.
        """
        return [fn(self.shards[i]) for i in shard_ids]

    # ------------------------------------------------------------------
    # Index management

    def _state(self, index: str) -> _IndexState:
        state = self._states.get(index)
        if state is None:
            raise StoreError(f"no such index {index!r}")
        return state

    def ensure_index(self, name: str,
                     indexed_fields: Optional[Iterable[str]] = None) -> None:
        """Create-or-get on every shard (returns nothing: there is no
        single :class:`Index` to hand out — see :meth:`oracle_index`)."""
        if name not in self._states:
            self._states[name] = _IndexState()
            self._indexed_fields[name] = (tuple(indexed_fields)
                                          if indexed_fields else None)
            self._routing_exact[name] = True
        for shard in self.shards:
            shard.ensure_index(name, indexed_fields)

    def delete_index(self, name: str) -> None:
        self._state(name)
        del self._states[name]
        self._indexed_fields.pop(name, None)
        self._routing_exact.pop(name, None)
        for shard in self.shards:
            if name in shard._indices:
                shard.delete_index(name)

    def index_names(self) -> list[str]:
        return sorted(self._states)

    def oracle_index(self, name: str) -> Index:
        """A merged, read-only single :class:`Index` view.

        Documents are re-put in global rank order, so naive oracles
        (``naive_scan``/``naive_aggregate``) see exactly the document
        sequence a single store would hold.  Mutating the view does
        not write back; sources are shared by reference.
        """
        self._state(name)
        view = Index(name)
        for doc_id, source in self.scan(name, None):
            view.put(source, doc_id)
        return view

    # ------------------------------------------------------------------
    # Write path

    def _assign(self, state: _IndexState, n: int) -> list[str]:
        """Fresh global ids for ``n`` new documents, ranked in order."""
        start = state.next_id
        state.next_id = start + n
        doc_ids = list(map(str, range(start, start + n)))
        state.rank.update(zip(doc_ids, range(state.next_rank,
                                             state.next_rank + n)))
        state.next_rank += n
        return doc_ids

    def bulk(self, index: str, sources: Iterable[dict]) -> int:
        """:meth:`bulk_columnar` of the documents as one
        :class:`DocBatch`; a source that is not a dict stores nothing."""
        return self.bulk_columnar(index, DocBatch(check_sources(sources)))

    def bulk_columnar(self, index: str, batch) -> int:
        """Partition one lane batch by shard key, lane-wise.

        The common case (time-window sharding, in-order event streams;
        or a single-pid batch under pid sharding) lands every row on
        one shard, which skips ``batch.take`` entirely.
        """
        start = span_start(self._telemetry)
        self.ensure_index(index)
        state = self._states[index]
        n = len(batch)
        if n == 0:
            self.bulk_requests += 1
            self.columnar_bulks += 1
            observe_span(self._telemetry, "store.bulk", start)
            return 0
        doc_ids = self._assign(state, n)
        route = self._route_value
        codes = list(map(route, batch.values_for(self.route_field)))
        state.owner.update(zip(doc_ids, codes))
        first = codes[0]
        partitions = 1
        if all(code == first for code in codes):
            self.shards[first].bulk_columnar(index, batch, doc_ids)
        else:
            rows_by_shard: dict[int, list[int]] = {}
            for row, code in enumerate(codes):
                rows = rows_by_shard.get(code)
                if rows is None:
                    rows_by_shard[code] = [row]
                else:
                    rows.append(row)
            for code, rows in sorted(rows_by_shard.items()):
                self.shards[code].bulk_columnar(
                    index, batch.take(rows),
                    [doc_ids[row] for row in rows])
            partitions = len(rows_by_shard)
        self.bulk_requests += 1
        self.columnar_bulks += 1
        self.documents_indexed += n
        self.bulk_partitions += partitions
        observe_span(self._telemetry, "store.bulk", start)
        return n

    # ------------------------------------------------------------------
    # Read path

    def count(self, index: str, query: Optional[dict] = None) -> int:
        self.queries += 1
        self._state(index)
        shards = self._query_shards(index, query)
        return sum(self._map_shards(
            shards, lambda shard: shard.count(index, query)))

    def scan(self, index: str,
             query: Optional[dict] = None) -> list[tuple[str, dict]]:
        """All matching (id, source) pairs in *global* insertion order."""
        self.queries += 1
        state = self._state(index)
        shards = self._query_shards(index, query)
        parts = self._map_shards(shards,
                                 lambda shard: shard.scan(index, query))
        return self._merge_by_rank(parts, state)

    def lanes(self, index: str, query: Optional[dict] = None):
        """:meth:`DocumentStore.lanes` over the shards: their batches
        joined, then taken into *global* insertion order."""
        self.queries += 1
        state = self._state(index)
        shards = self._query_shards(index, query)
        parts = self._map_shards(shards,
                                 lambda shard: shard.lanes(index, query))
        if len(parts) == 1:
            return parts[0]
        doc_ids = [doc_id for part_ids, _ in parts for doc_id in part_ids]
        # Unassigned ids sort last, as in _merge_by_rank.
        ranks = list(map(state.rank.get, doc_ids, repeat(float("inf"))))
        order = sorted(range(len(doc_ids)), key=ranks.__getitem__)
        return ([doc_ids[row] for row in order],
                JoinedBatch([batch for _, batch in parts]).take(order))

    def _merge_by_rank(self, parts: list[list], state: _IndexState) -> list:
        if len(parts) == 1:
            return parts[0]
        rank = state.rank
        # A doc id the coordinator never assigned (a buggy shard
        # invented it) sorts last instead of crashing the merge, so
        # the invariant layer gets to see and flag it.
        last = float("inf")
        return list(heap_merge(*parts,
                               key=lambda pair: rank.get(pair[0], last)))

    def search(self, index: str, query: Optional[dict] = None,
               aggs: Optional[dict] = None,
               sort: Optional[list] = None,
               size: Optional[int] = 10,
               from_: int = 0) -> dict:
        """Scatter-gather search; byte-identical to the single store.

        One plan.  Hits are the window alone: :meth:`_window` (matching
        ids merged by global rank) or, under ``sort``,
        :meth:`_sorted_window` (each shard's sorted ``from_ + size``
        prefix merged on the sort key with a rank tie-break, which
        reproduces the single store's stable multi-pass sort exactly);
        an unsorted ``size=0`` request builds no id list.  Aggregations
        come from :meth:`_aggregate`.
        """
        if from_ < 0:
            raise StoreError(f"from_ must be non-negative: {from_}")
        if size is not None and size < 0:
            raise StoreError(f"size must be non-negative or None: {size}")
        start = span_start(self._telemetry)
        self.queries += 1
        state = self._state(index)
        shards = self._query_shards(index, query)
        total: Optional[int] = None
        window: list[tuple[str, dict]] = []
        if sort:
            total, window = self._sorted_window(index, query, shards, state,
                                                sort, size, from_)
        elif size != 0:
            total, window = self._window(index, query, shards, state,
                                         size, from_)
        aggregations = None
        if aggs is not None:
            total, aggregations = self._aggregate(index, query, aggs, shards,
                                                  state, sort)
        elif total is None:
            total = sum(self._map_shards(
                shards, lambda shard: shard.count(index, query)))
        observe_span(self._telemetry, "store.query", start)
        return _response(index, total, window, aggregations)

    def _window(self, index: str, query, shards: list[int],
                state: _IndexState, size: Optional[int],
                from_: int) -> tuple[int, list[tuple[str, dict]]]:
        """``(total, hits[from_:from_ + size])`` of an unsorted search:
        every shard's matching ids merged by global rank, and a
        document built for the window's rows alone, shard by shard."""
        matched = self._map_shards(
            shards, lambda shard: shard.lanes(index, query)[0])
        merged = self._merge_by_rank(
            [[(doc_id, code) for doc_id in doc_ids]
             for code, doc_ids in zip(shards, matched)], state)
        window = merged[from_:None if size is None else from_ + size]
        sources: dict[str, dict] = {}
        for code in shards:
            target = self.shards[code]._index(index)
            doc_ids = [doc_id for doc_id, owner in window if owner == code]
            sources.update(zip(doc_ids, target.sources(
                list(map(target.columns.row_of.__getitem__, doc_ids)))))
        return len(merged), [(doc_id, sources[doc_id])
                             for doc_id, _ in window]

    def _sorted_window(self, index: str, query, shards: list[int],
                       state: _IndexState, sort, size: Optional[int],
                       from_: int) -> tuple[int, list[tuple[str, dict]]]:
        """``(total, hits[from_:from_ + size])`` of a sorted search.

        Each shard sorts its own rows and builds only its first
        ``from_ + size`` hits — no hit past that prefix can reach the
        merged window — and the prefixes merge on the sort key, global
        rank breaking ties as the single store's stable sort does.
        """
        limit = None if size is None else from_ + size
        responses = self._map_shards(shards, lambda shard: shard.search(
            index, query, sort=sort, size=limit)["hits"])
        entries = parse_sort(sort)       # after the query, as a shard does
        total = sum(hits["total"]["value"] for hits in responses)
        parts = [[(hit["_id"], hit["_source"]) for hit in hits["hits"]]
                 for hits in responses]
        if len(parts) == 1:
            return total, parts[0][from_:]
        rank = state.rank

        def merge_key(pair):
            _, source = pair
            key = []
            for field, descending in entries:
                part_key = sort_key(get_field(source, field))
                key.append(_RevKey(part_key) if descending else part_key)
            # Unassigned ids (buggy-shard inventions) break ties last
            # rather than crashing; see _merge_by_rank.
            key.append(rank.get(pair[0], float("inf")))
            return tuple(key)

        merged = heap_merge(*parts, key=merge_key)
        return total, list(islice(merged, from_, limit))

    def _aggregate(self, index: str, query, aggs, shards: list[int],
                   state: _IndexState, sort) -> tuple[int, dict]:
        """``(total, aggregations)``: the partial merge, or else every
        match gathered through :func:`run_aggregations` in the order the
        single store's fallback reads — global rank, or the sort order
        under ``sort`` (where the single store never pushes down)."""
        if not sort:
            merged = self._try_partial_merge(index, query, aggs, shards)
            if merged is not None:
                return merged
            matches = self._merge_by_rank(self._map_shards(
                shards, lambda shard: shard.scan(index, query)), state)
        else:
            matches = self._sorted_window(index, query, shards, state, sort,
                                          None, 0)[1]
        self.agg_gathers += 1
        return len(matches), run_aggregations(
            aggs, [source for _, source in matches])

    def _try_partial_merge(self, index: str, query, aggs,
                           shards: list[int]) -> Optional[tuple[int, dict]]:
        """``(total, aggregations)`` via per-shard partials, or ``None``.

        ``None`` means "cannot be proven byte-identical": a shard's
        columns declined the request (as the single store's would) or
        :meth:`ColumnSet.merge` met an answer that depends on
        cross-shard document order; the caller gathers instead.
        """
        hits = self.agg_cache_hits
        kernel_start = time.perf_counter_ns()
        entries = self._map_shards(
            shards, lambda shard: self._shard_partial(shard, index, query,
                                                      aggs))
        if not entries or None in entries:   # no shard, or one declined
            return None
        try:
            merged = ColumnSet.merge(aggs, [partial for _, partial in entries])
        except Exception:
            return None
        if merged is None:
            return None
        if self.agg_cache_hits - hits < len(entries):
            # A shard ran its kernels: a pushdown.  With every partial
            # cached the request is a cache hit, as a single store's
            # repeat is.
            self.agg_merges += 1
            elapsed = time.perf_counter_ns() - kernel_start
            self.agg_kernel_ns += elapsed
            if self._telemetry is not None:
                self._telemetry["agg_kernel"].observe(elapsed)
        return sum(total for total, _ in entries), merged

    def _shard_partial(self, shard: DocumentStore, index: str, query,
                       aggs) -> Optional[tuple[int, dict]]:
        """One shard's ``(total, partial)``, looked up in — or computed
        into — the shard's epoch-keyed cache, where it is shared by
        reference (:meth:`ColumnSet.merge` does not mutate it).

        ``None`` when the shard's columns decline the request or the
        kernels raise: the coordinator then gathers, exactly as the
        single store falls back to :func:`run_aggregations`.
        """
        target = shard._indices.get(index)
        if target is None:
            return None
        key = target.agg_cache_key(query, aggs)
        if key is not None:
            key += ("__shard_partial__",)
            cached = target.agg_cache_get(key)
            if cached is not None:
                self.agg_cache_hits += 1
                return cached
            self.agg_cache_misses += 1
        try:
            if not ColumnSet.supports(aggs, target.column):
                return None
            rows, total = target.matching_rows(query,
                                               shard._plan(target, query))
            entry = (total, target.columns.partial(aggs, rows))
        except Exception:
            return None
        if key is not None:
            target.agg_cache_put(key, entry)
        return entry

    # ------------------------------------------------------------------
    # Mutation

    def update_docs(self, index: str, doc_ids: Iterable[str],
                    fields: dict) -> int:
        state = self._state(index)
        owner = state.owner
        by_shard: dict[int, list[str]] = {}
        for doc_id in doc_ids:
            shard = owner.get(doc_id)
            if shard is None:
                continue                  # missing ids are skipped
            by_shard.setdefault(shard, []).append(doc_id)
        updated = sum(self.shards[i].update_docs(index, ids, fields)
                      for i, ids in sorted(by_shard.items()))
        if updated and self.route_field in fields:
            self._routing_exact[index] = False
        return updated

    # ------------------------------------------------------------------
    # Shard lifecycle (DST kill/rebalance stages)

    def rebalance(self, shard_count: Optional[int] = None) -> int:
        """Re-route every document by its current shard-key value.

        Optionally changes the shard count.  Ids, ranks, and sources
        are preserved (sources move by reference, re-put in rank order
        so every new shard's rows are in rank order), so reads before
        and after are byte-identical; key-based routing becomes exact
        again.  Returns the number of documents moved to a new shard.
        """
        new_count = self.shard_count if shard_count is None else shard_count
        if not isinstance(new_count, int) or new_count < 1:
            raise StoreError(f"shard_count must be a positive int: "
                             f"{shard_count!r}")
        snapshots = {name: self.scan(name, None) for name in self._states}
        old_owner = {name: dict(state.owner)
                     for name, state in self._states.items()}
        self.shard_count = new_count
        self.shards = [DocumentStore() for _ in range(new_count)]
        moved = 0
        for name, docs in snapshots.items():
            state = self._states[name]
            self._routing_exact[name] = True
            fields = self._indexed_fields.get(name)
            for shard in self.shards:
                shard.ensure_index(name, fields)
            previous = old_owner[name]
            for doc_id, source in docs:
                code = self._route_source(source)
                state.owner[doc_id] = code
                if previous.get(doc_id) != code:
                    moved += 1
                if doc_id not in state.rank:
                    # A shard held a doc the coordinator never assigned
                    # (buggy caller grew a batch).  Adopt it: it scans
                    # last, so adoption order is deterministic.
                    state.rank[doc_id] = state.next_rank
                    state.next_rank += 1
                    try:
                        state.next_id = max(state.next_id,
                                            int(doc_id) + 1)
                    except ValueError:
                        pass
                self.shards[code].index_doc(name, source, doc_id)
        self.rebalances += 1
        return moved

    def save_shards(self, root) -> None:
        """Write a per-shard recovery image under ``root``.

        ``shard-NN/router.bin`` holds one ``[index, id, rank,
        source]`` record frame per document in shard scan order (the
        codec of :mod:`repro.backend.wal`, layout in docs/STORAGE.md) —
        the session export format cannot be used here because it drops
        doc ids, which the coordinator's rank/owner maps are keyed by.
        """
        from pathlib import Path
        root = Path(root)
        meta = {"format": "dio-shard-set-v1",
                "shard_count": self.shard_count,
                "shard_key": self.shard_key,
                "time_window_ns": self.time_window_ns}
        root.mkdir(parents=True, exist_ok=True)
        (root / "meta.json").write_text(
            json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")
        for i, shard in enumerate(self.shards):
            shard_dir = root / f"shard-{i:02d}"
            shard_dir.mkdir(parents=True, exist_ok=True)
            frames = [SHARD_IMAGE_MAGIC]
            for name in sorted(shard._indices):
                state = self._states[name]
                for doc_id, source in shard._indices[name].documents():
                    # An id the coordinator never assigned scans last.
                    rank = state.rank.get(doc_id, state.next_rank)
                    frames.append(frame_record(
                        [name, doc_id, rank, source], default=repr))
            (shard_dir / SHARD_IMAGE_NAME).write_bytes(b"".join(frames))

    def kill_shard(self, shard: int) -> None:
        """Drop one shard's in-memory state (a simulated node loss).

        Coordinator maps are kept, so a subsequent
        :meth:`restore_shard` from a :meth:`save_shards` image brings
        the store back byte-identically; until then the shard's
        documents are simply absent from reads.
        """
        if not 0 <= shard < self.shard_count:
            raise StoreError(f"no such shard {shard}")
        replacement = DocumentStore()
        for name, fields in self._indexed_fields.items():
            replacement.ensure_index(name, fields)
        self.shards[shard] = replacement
        self.shard_kills += 1

    def restore_shard(self, shard: int, root) -> int:
        """Reload one shard from a :meth:`save_shards` image.

        A truncated or damaged image restores exactly its intact frame
        prefix and never raises a parser error: the whole image is
        scanned before the first document is applied, and the scan's
        report is left in :attr:`shard_restore_report`.  Returns the
        number of documents restored.
        """
        from pathlib import Path
        if not 0 <= shard < self.shard_count:
            raise StoreError(f"no such shard {shard}")
        path = Path(root) / f"shard-{shard:02d}" / SHARD_IMAGE_NAME
        blob = path.read_bytes() if path.exists() else b""
        records, self.shard_restore_report = recover_log(
            blob, SHARD_IMAGE_MAGIC, _image_record)
        target_store = self.shards[shard]
        restored = 0
        for name, doc_id, rank, source in records:
            state = self._states.get(name)
            if state is None:
                continue
            target_store.index_doc(name, source, doc_id)
            state.rank.setdefault(doc_id, rank)
            state.owner[doc_id] = shard
            restored += 1
        return restored

    # ------------------------------------------------------------------
    # Telemetry

    def _shard_docs(self, shard: int) -> int:
        if shard >= len(self.shards):
            return 0
        return sum(len(index)
                   for index in self.shards[shard]._indices.values())

    def pruning_ratio(self) -> float:
        available = sum(s.docs_available for s in self.shards)
        if available == 0:
            return 0.0
        examined = sum(s.docs_examined for s in self.shards)
        return 1.0 - examined / available

    def agg_cache_hit_rate(self) -> float:
        cacheable = self.agg_cache_hits + self.agg_cache_misses
        if cacheable == 0:
            return 0.0
        return self.agg_cache_hits / cacheable

    def agg_stats(self) -> dict:
        """Same shape as :meth:`DocumentStore.agg_stats`, coordinator
        merges/gathers folded into pushdowns/fallbacks; the cache fields
        count per-shard partial lookups."""
        return {
            "pushdowns": self.agg_merges + sum(
                s.agg_pushdowns for s in self.shards),
            "fallbacks": self.agg_gathers + sum(
                s.agg_fallbacks for s in self.shards),
            "cache_hits": self.agg_cache_hits,
            "cache_misses": self.agg_cache_misses,
            "cache_hit_rate": self.agg_cache_hit_rate(),
            "kernel_ms": (self.agg_kernel_ns + sum(
                s.agg_kernel_ns for s in self.shards)) / 1e6,
        }

    def bind_telemetry(self, registry, clock=None) -> None:
        """Register the ``dio_store_*``/``dio_ingest_*`` families the
        single store exposes (coordinator counters, shard sums) plus
        the ``dio_shard_*`` scatter-gather section."""
        def indices() -> Iterator[Index]:
            return (index for shard in self.shards
                    for index in shard._indices.values())

        def plan_count(mode: str) -> Callable[[], int]:
            return lambda: sum(s.plan_counts[mode] for s in self.shards)

        self._telemetry = bind_store_telemetry(registry, clock, {
            "bulk_requests": lambda: self.bulk_requests,
            "documents_indexed": lambda: self.documents_indexed,
            "queries": lambda: self.queries,
            "columnar_bulks": lambda: self.columnar_bulks,
            "docs_hydrated": lambda: sum(
                index.hydrated_docs_total for index in indices()),
            "pending_docs": lambda: sum(
                index.pending_docs for index in indices()),
            "plan_exact": plan_count("exact"),
            "plan_pruned": plan_count("pruned"),
            "plan_fullscan": plan_count("fullscan"),
            "pruning_ratio": self.pruning_ratio,
            "agg_pushdowns": lambda: self.agg_stats()["pushdowns"],
            "agg_fallbacks": lambda: self.agg_stats()["fallbacks"],
            "agg_cache_hits": lambda: self.agg_cache_hits,
            "agg_cache_misses": lambda: self.agg_cache_misses,
        })
        # Scatter-gather section.
        registry.gauge(
            "dio_shard_count",
            "Document-store shards behind the coordinator.",
        ).set_function(lambda: self.shard_count)
        docs_family = registry.gauge(
            "dio_shard_docs",
            "Documents held per shard.", labelnames=("shard",))
        for i in range(len(self.shards)):
            docs_family.labels(shard=str(i)).set_function(
                lambda i=i: self._shard_docs(i))
        registry.counter(
            "dio_shard_routed_queries_total",
            "Read requests the coordinator routed to a shard subset "
            "via the shard key.",
        ).set_function(lambda: self.routed_queries)
        registry.counter(
            "dio_shard_fanout_queries_total",
            "Read requests fanned out to every shard.",
        ).set_function(lambda: self.fanout_queries)


# ----------------------------------------------------------------------
# Factory


def create_store(config=None, *, shard_count: Optional[int] = None,
                 shard_key: Optional[str] = None,
                 time_window_ns: Optional[int] = None):
    """Build the backend a ``TracerConfig [sharding]`` block asks for.

    ``shard_count=1`` returns a plain :class:`DocumentStore` — not a
    one-shard router — so the default configuration is *literally*
    today's store: the differential oracle for every sharded run.
    """
    if config is not None:
        if shard_count is None:
            shard_count = getattr(config, "shard_count", 1)
        if shard_key is None:
            shard_key = getattr(config, "shard_key", "pid")
        if time_window_ns is None:
            time_window_ns = getattr(config, "shard_time_window_ns",
                                     DEFAULT_TIME_WINDOW_NS)
    shard_count = 1 if shard_count is None else shard_count
    if not isinstance(shard_count, int) or shard_count < 1:
        raise StoreError(f"shard_count must be a positive int: "
                         f"{shard_count!r}")
    if shard_count == 1:
        return DocumentStore()
    return ShardedDocumentStore(
        shard_count=shard_count,
        shard_key=shard_key or "pid",
        time_window_ns=time_window_ns or DEFAULT_TIME_WINDOW_NS)
