"""Sharded document-store coordinator: scatter-gather over N shards.

The paper's production backend is a sharded Elasticsearch cluster;
this module puts the same shape in front of the in-process store.  A
:class:`ShardedDocumentStore` owns N plain :class:`DocumentStore`
shards — each with its own indexes, columns, and (when persisted) its
own segment directory — and a thin coordinator that:

- **routes writes** deterministically by a configurable shard key
  (``pid`` or ``time`` window; :func:`create_store`), assigning
  *global* doc ids — a document's id is its global rank — and handing
  each shard its documents in id order, so shard-local row order —
  every shard-local scan — is already the global order;
- **partitions bulks** lane-wise: a decoded
  :class:`~repro.tracer.batch.RecordBatch` — or a list of documents,
  as a :class:`~repro.backend.lanes.DocBatch` — is split by shard key
  with ``take`` before each shard's ``bulk_columnar``;
- **fans out reads** shard by shard (serially: the speed-up is the
  smaller per-shard working set, not threads) and merges at the
  coordinator, one plan per search: hits are a k-way heap merge by
  numeric id (an unsorted search merges the matching ids and builds
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

The coordinator keeps no per-document map: a document's rank is its
id and its owner is the shard whose rows hold it.  Both shard keys
route by one rule — a field and a width (``pid`` 1, ``time_window``
``time_window_ns``): a number goes to ``int(value // width) % n``,
anything else to shard 0 — so equal-comparing values (``3``, ``3.0``,
``True`` as ``1``) land together and a ``term``, ``terms`` or ``range``
query on the key can be routed to the shards that may match.
"""

from __future__ import annotations

import json
import time
from heapq import merge as heap_merge
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.backend.aggregations import run_aggregations
from repro.backend.columns import ColumnSet
from repro.backend.lanes import DocBatch, JoinedBatch, Lookup
from repro.backend.query import get_field
from repro.backend.store import (DocumentStore, Index, StoreError,
                                 _response, bind_store_telemetry,
                                 check_sources, observe_span,
                                 parse_sort, sort_key, span_start)
from repro.backend.wal import frame_record, recover_log

#: Supported shard keys (``create_store(shard_key=...)``).
SHARD_KEYS = ("pid", "time_window")

#: Default time-window width for ``shard_key="time_window"`` (1 s).
DEFAULT_TIME_WINDOW_NS = 1_000_000_000

#: Shard recovery image (``shard-NN/router.bin``): magic, then one
#: ``[index, id, rank, source]`` record frame per document (``rank`` is
#: written as ``id - 1`` and not read back).
SHARD_IMAGE_MAGIC = b"DIOSHD01"
SHARD_IMAGE_NAME = "router.bin"


def _image_record(entry) -> tuple[str, str, int, dict]:
    """One shard-image payload; ``ValueError`` if it is not one."""
    name, doc_id, rank, source = entry
    if not (isinstance(name, str) and isinstance(doc_id, str)
            and doc_id.isdecimal() and isinstance(rank, int)
            and isinstance(source, dict)):
        raise ValueError("not a shard image record")
    return name, doc_id, rank, source


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
    """Coordinator-side record of one logical index: no per-document
    structure — a document's rank is its id, its owner the shard whose
    rows hold it."""

    __slots__ = ("next_id", "fields")

    def __init__(self, fields: Optional[tuple]) -> None:
        self.next_id = 1
        #: The fields declared at :meth:`ShardedDocumentStore.ensure_index`.
        self.fields = fields


class ShardedDocumentStore:
    """N document-store shards behind a scatter-gather coordinator.

    API-compatible with :class:`DocumentStore` for every surface the
    pipeline uses (tracer bulks, correlator lane reads and path tables,
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
        #: The document field the shard key reads, and the width of the
        #: value windows it routes by.
        self.route_field, self.route_width = (
            ("pid", 1) if shard_key == "pid" else ("time", time_window_ns))
        self.shards = [DocumentStore() for _ in range(shard_count)]
        self._states: dict[str, _IndexState] = {}
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
        """Shard number for one shard-key value: a number's window
        ``int(value // width)`` modulo the shard count (a bool is an
        int); anything else — None, a string, inf, nan — shard 0."""
        if isinstance(value, (int, float)):
            try:
                return int(value // self.route_width) % self.shard_count
            except (OverflowError, ValueError):      # inf / nan
                pass
        return 0

    def _route_source(self, source: dict) -> int:
        return self._route_value(get_field(source, self.route_field))

    def _narrow(self, query: Any) -> Optional[set[int]]:
        """Shard subset that must hold every match, or ``None``.

        Sound, not complete: any doubt answers ``None`` (fan out).
        ``term``, ``terms`` and a bounded ``range`` on the shard-key
        field narrow by the routing rule; ``bool`` queries narrow
        through any one ``must``/``filter`` clause.
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
        if not isinstance(body, dict) or len(body) != 1:
            return None
        field, value = next(iter(body.items()))
        if field != self.route_field:
            return None
        if kind == "term":
            if isinstance(value, dict) and "value" in value:
                value = value["value"]          # ES's {"value": v} form
            return {self._route_value(value)}
        if kind == "terms" and isinstance(value, (list, tuple)):
            return set(map(self._route_value, value))
        if kind != "range" or not isinstance(value, dict):
            return None
        lo = value.get("gte", value.get("gt"))
        hi = value.get("lte", value.get("lt"))
        if not all(isinstance(b, (int, float)) for b in (lo, hi)):
            return None
        width, n = self.route_width, self.shard_count
        lo_w, hi_w = int(lo // width), int(hi // width)
        if hi_w - lo_w + 1 >= n:
            return None
        return {w % n for w in range(lo_w, hi_w + 1)}

    def _query_shards(self, index: str, query: Any) -> list[int]:
        """Shards a read must consult, ascending."""
        if query is not None:
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
            self._states[name] = _IndexState(
                tuple(indexed_fields) if indexed_fields else None)
        for shard in self.shards:
            shard.ensure_index(name, indexed_fields)

    def delete_index(self, name: str) -> None:
        self._state(name)
        del self._states[name]
        for shard in self.shards:
            if name in shard._indices:
                shard.delete_index(name)

    def index_names(self) -> list[str]:
        return sorted(self._states)

    def oracle_index(self, name: str) -> Index:
        """A merged, read-only single :class:`Index` view.

        The documents are one part in global id order, so naive
        oracles (``naive_scan``/``naive_aggregate``) see exactly the
        document sequence a single store would hold.  Mutating the view
        does not write back; sources are shared by reference.
        """
        self._state(name)
        view = Index(name)
        _append(view, self.scan(name, None))
        return view

    # ------------------------------------------------------------------
    # Write path

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
        start_id = state.next_id
        state.next_id = start_id + n
        doc_ids = list(map(str, range(start_id, start_id + n)))
        codes = list(map(self._route_value,
                         batch.values_for(self.route_field)))
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
        self._state(index)
        shards = self._query_shards(index, query)
        return _merge_by_id(self._map_shards(
            shards, lambda shard: shard.scan(index, query)))

    def lanes(self, index: str, query: Optional[dict] = None):
        """:meth:`DocumentStore.lanes` over the shards: their batches
        joined, then taken into *global* insertion order."""
        self.queries += 1
        self._state(index)
        shards = self._query_shards(index, query)
        parts = self._map_shards(shards,
                                 lambda shard: shard.lanes(index, query))
        if len(parts) == 1:
            return parts[0]
        doc_ids = [doc_id for part_ids, _ in parts for doc_id in part_ids]
        ranks = list(map(int, doc_ids))
        order = sorted(range(len(doc_ids)), key=ranks.__getitem__)
        return ([doc_ids[row] for row in order],
                JoinedBatch([batch for _, batch in parts]).take(order))

    def search(self, index: str, query: Optional[dict] = None,
               aggs: Optional[dict] = None,
               sort: Optional[list] = None,
               size: Optional[int] = 10,
               from_: int = 0) -> dict:
        """Scatter-gather search; byte-identical to the single store.

        One plan.  Hits are the window alone: :meth:`_window` (matching
        ids merged by numeric id) or, under ``sort``,
        :meth:`_sorted_window` (each shard's sorted ``from_ + size``
        prefix merged on the sort key with an id tie-break, which
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
        self._state(index)
        shards = self._query_shards(index, query)
        total: Optional[int] = None
        window: list[tuple[str, dict]] = []
        if sort:
            total, window = self._sorted_window(index, query, shards, sort,
                                                size, from_)
        elif size != 0:
            total, window = self._window(index, query, shards, size, from_)
        aggregations = None
        if aggs is not None:
            total, aggregations = self._aggregate(index, query, aggs, shards,
                                                  sort)
        elif total is None:
            total = sum(self._map_shards(
                shards, lambda shard: shard.count(index, query)))
        observe_span(self._telemetry, "store.query", start)
        return _response(index, total, window, aggregations)

    def _window(self, index: str, query, shards: list[int],
                size: Optional[int],
                from_: int) -> tuple[int, list[tuple[str, dict]]]:
        """``(total, hits[from_:from_ + size])`` of an unsorted search:
        every shard's matching ids merged by numeric id, and a
        document built for the window's rows alone, shard by shard."""
        matched = self._map_shards(
            shards, lambda shard: shard.lanes(index, query)[0])
        merged = _merge_by_id(
            [[(doc_id, code) for doc_id in doc_ids]
             for code, doc_ids in zip(shards, matched)])
        window = merged[from_:None if size is None else from_ + size]
        sources: dict[str, dict] = {}
        for code in shards:
            target = self.shards[code]._index(index)
            doc_ids = [doc_id for doc_id, owner in window if owner == code]
            sources.update(zip(doc_ids, target.sources(
                list(map(target.columns.row_of.__getitem__, doc_ids)))))
        return len(merged), [(doc_id, sources[doc_id])
                             for doc_id, _ in window]

    def _sorted_window(self, index: str, query, shards: list[int], sort,
                       size: Optional[int],
                       from_: int) -> tuple[int, list[tuple[str, dict]]]:
        """``(total, hits[from_:from_ + size])`` of a sorted search.

        Each shard sorts its own rows and builds only its first
        ``from_ + size`` hits — no hit past that prefix can reach the
        merged window — and the prefixes merge on the sort key, the
        numeric id breaking ties as the single store's stable sort does.
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

        def merge_key(pair):
            doc_id, source = pair
            key = []
            for field, descending in entries:
                part_key = sort_key(get_field(source, field))
                key.append(_RevKey(part_key) if descending else part_key)
            key.append(int(doc_id))
            return tuple(key)

        merged = heap_merge(*parts, key=merge_key)
        return total, list(islice(merged, from_, limit))

    def _aggregate(self, index: str, query, aggs, shards: list[int],
                   sort) -> tuple[int, dict]:
        """``(total, aggregations)``: the partial merge, or else every
        match gathered through :func:`run_aggregations` in the order the
        single store's fallback reads — id order, or the sort order
        under ``sort`` (where the single store never pushes down)."""
        if not sort:
            merged = self._try_partial_merge(index, query, aggs, shards)
            if merged is not None:
                return merged
            matches = _merge_by_id(self._map_shards(
                shards, lambda shard: shard.scan(index, query)))
        else:
            matches = self._sorted_window(index, query, shards, sort, None,
                                          0)[1]
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
    # Path table

    def set_paths(self, index: str, table: dict,
                  session: Optional[str] = None) -> None:
        """:meth:`DocumentStore.set_paths` on every shard: each names
        its own rows through one :class:`Lookup`, so the shards' takes
        of one loaded session share one derived join."""
        self._state(index)
        lookup = Lookup(dict(table))
        for shard in self.shards:
            shard._index(index).set_paths(lookup, session)

    # ------------------------------------------------------------------
    # Shard lifecycle (DST kill/rebalance stages)

    def rebalance(self, shard_count: Optional[int] = None) -> int:
        """Re-route every document by its current shard-key value.

        Optionally changes the shard count.  Ids and sources are
        preserved (sources move by reference, one part per new shard and
        index, in id order, so every new shard's rows are in id order),
        so reads before and after are byte-identical.  Returns the
        number of documents moved to a new shard.
        """
        new_count = self.shard_count if shard_count is None else shard_count
        if not isinstance(new_count, int) or new_count < 1:
            raise StoreError(f"shard_count must be a positive int: "
                             f"{shard_count!r}")
        snapshots = {name: self.scan(name, None) for name in self._states}
        old_shards = self.shards
        self.shard_count = new_count
        self.shards = [DocumentStore() for _ in range(new_count)]
        moved = 0
        for name, docs in snapshots.items():
            state = self._states[name]
            for shard in self.shards:
                shard.ensure_index(name, state.fields)
            by_shard: dict[int, list[tuple[str, dict]]] = {}
            for doc_id, source in docs:
                by_shard.setdefault(self._route_source(source), []).append(
                    (doc_id, source))
            for code, pairs in by_shard.items():
                _append(self.shards[code].ensure_index(name), pairs)
                held = (old_shards[code]._index(name).columns.row_of
                        if code < len(old_shards) else {})
                moved += sum(doc_id not in held for doc_id, _ in pairs)
        self.rebalances += 1
        return moved

    def save_shards(self, root) -> None:
        """Write a per-shard recovery image under ``root``.

        ``shard-NN/router.bin`` holds one ``[index, id, rank,
        source]`` record frame per document in shard scan order (the
        codec of :mod:`repro.backend.wal`, layout in docs/STORAGE.md;
        ``rank`` is written as ``id - 1``) — the session export format
        cannot be used here because it drops doc ids, which order the
        merged reads.
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
                for doc_id, source in shard._indices[name].documents():
                    frames.append(frame_record(
                        [name, doc_id, int(doc_id) - 1, source],
                        default=repr))
            (shard_dir / SHARD_IMAGE_NAME).write_bytes(b"".join(frames))

    def kill_shard(self, shard: int) -> None:
        """Drop one shard's in-memory state (a simulated node loss).

        The coordinator's per-index records are kept, so a subsequent
        :meth:`restore_shard` from a :meth:`save_shards` image brings
        the store back byte-identically; until then the shard's
        documents are simply absent from reads.
        """
        if not 0 <= shard < self.shard_count:
            raise StoreError(f"no such shard {shard}")
        replacement = DocumentStore()
        for name, state in self._states.items():
            replacement.ensure_index(name, state.fields)
        self.shards[shard] = replacement
        self.shard_kills += 1

    def restore_shard(self, shard: int, root) -> int:
        """Reload one shard from a :meth:`save_shards` image.

        A truncated or damaged image restores exactly its intact frame
        prefix and never raises a parser error: the whole image is
        scanned before the first document is applied, and the scan's
        report is left in :attr:`shard_restore_report`.  An index is
        append-only, so the first record of an id is applied and any
        later one — or one of an id the shard holds already — is
        skipped.  The documents land as one part per index, and the
        index's next id moves past the largest applied; returns how
        many.
        """
        from pathlib import Path
        if not 0 <= shard < self.shard_count:
            raise StoreError(f"no such shard {shard}")
        path = Path(root) / f"shard-{shard:02d}" / SHARD_IMAGE_NAME
        blob = path.read_bytes() if path.exists() else b""
        records, self.shard_restore_report = recover_log(
            blob, SHARD_IMAGE_MAGIC, _image_record)
        target_store = self.shards[shard]
        by_index: dict[str, dict[str, dict]] = {}
        for name, doc_id, _, source in records:
            if name not in self._states:
                continue
            pairs = by_index.setdefault(name, {})
            if (doc_id in pairs or doc_id
                    in target_store.ensure_index(name).columns.row_of):
                continue
            pairs[doc_id] = source
        for name, pairs in by_index.items():
            _append(target_store.ensure_index(name), list(pairs.items()))
            state = self._states[name]
            state.next_id = max(state.next_id,
                                max(map(int, pairs), default=0) + 1)
        return sum(map(len, by_index.values()))

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


def _merge_by_id(parts: list[list]) -> list:
    """``(id, ...)`` runs, each in id order, merged into one: a
    document's numeric id is its global rank."""
    if len(parts) == 1:
        return parts[0]
    return list(heap_merge(*parts, key=lambda pair: int(pair[0])))


def _append(index: Index, pairs: list[tuple[str, dict]]) -> None:
    """``(id, source)`` pairs onto ``index`` as one part."""
    index.bulk_append(DocBatch([source for _, source in pairs]),
                      [doc_id for doc_id, _ in pairs])


def create_store(*, shard_count: Optional[int] = None,
                 shard_key: Optional[str] = None,
                 time_window_ns: Optional[int] = None):
    """Build the backend: ``shard_count`` shards routed by
    ``shard_key`` (default ``"pid"``).

    ``shard_count=1`` returns a plain :class:`DocumentStore` — not a
    one-shard router — so the default configuration is *literally*
    today's store: the differential oracle for every sharded run.
    """
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
