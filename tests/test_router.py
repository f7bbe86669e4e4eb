"""Unit tests for the shard router and the tenancy layer.

The differential suite (``test_sharding_differential.py``) proves the
router is observably identical to the plain store; these tests pin the
*mechanisms* — deterministic routing, subset narrowing, partial-merge
vs gather accounting, kill/restore/rebalance lifecycle, and the
``dio_shard_*``/``dio_tenant_*`` telemetry.
"""

import json

import pytest

from repro.backend import (DocumentStore, ShardedDocumentStore,
                           TenantBackend, TenantQuotaExceeded, TenantStore,
                           create_store, naive_aggregate)
from repro.backend.lanes import DocBatch
from repro.backend.store import StoreError
from repro.telemetry import MetricsRegistry
from repro.telemetry.health import PipelineHealth

INDEX = "idx"
INDEXED = ("syscall", "pid", "file_tag", "session", "time")


def make_docs(n, session="s"):
    return [{"syscall": ("read", "write", "open")[i % 3],
             "pid": i % 5 + 1, "tid": i % 2 + 1,
             "time": i * 250, "duration_ns": i,
             "file_tag": f"/f{i % 4}", "session": session,
             "proc_name": "app", "ret": 0}
            for i in range(n)]


def sharded(count=3, key="pid", **kwargs):
    store = ShardedDocumentStore(shard_count=count, shard_key=key,
                                 time_window_ns=1_000, **kwargs)
    store.ensure_index(INDEX, indexed_fields=INDEXED)
    return store


def single(docs):
    store = DocumentStore()
    store.ensure_index(INDEX, indexed_fields=INDEXED)
    store.bulk(INDEX, [dict(doc) for doc in docs])
    return store


def fig4(window_ns, field="syscall"):
    """The paper's Fig. 4 panel: ``date_histogram`` ▸ ``terms``."""
    return {"over_time": {
        "date_histogram": {"field": "time", "fixed_interval": window_ns},
        "aggs": {"by_thread": {"terms": {"field": field, "size": 50}}}}}


def aggregations(store, aggs, **kwargs):
    response = store.search(INDEX, size=0, aggs=aggs, **kwargs)
    return json.dumps(response["aggregations"], sort_keys=True)


class TestRouting:
    def test_routing_is_deterministic_across_instances(self):
        a, b = sharded(), sharded()
        for pid in range(1, 30):
            assert a._route_value(pid) == b._route_value(pid)

    def test_cross_type_equal_keys_share_a_shard(self):
        store = sharded(count=5)
        assert (store._route_value(3) == store._route_value(3.0)
                == store._route_value(True) * 0 + store._route_value(3))
        assert store._route_value(True) == store._route_value(1)

    def test_absent_shard_key_still_routes(self):
        store = sharded(key="file_tag")
        store.bulk(INDEX, [{"syscall": "read", "pid": 1, "time": 0}])
        assert store.count(INDEX) == 1

    def test_time_window_groups_neighbouring_events(self):
        store = sharded(key="time_window")
        # Same 1000ns window -> same shard; the window id routes, not
        # the raw timestamp.
        assert store._route_source({"time": 10}) == store._route_source(
            {"time": 990})

    def test_bulk_partitions_by_route_code(self):
        store = sharded()
        store.bulk(INDEX, make_docs(50))
        assert store.count(INDEX) == 50
        assert store.bulk_partitions >= 2
        per_shard = [store._shard_docs(i) for i in range(3)]
        assert sum(per_shard) == 50
        assert sum(1 for n in per_shard if n) >= 2

    @pytest.mark.parametrize("shard_count", [1, 3])
    def test_a_bulk_with_a_non_dict_source_stores_nothing(self, shard_count):
        """Every source is checked before an id, a rank or a row is
        assigned: no document, no counter, and the next id is 1."""
        store = create_store(shard_count=shard_count)
        with pytest.raises(StoreError):
            store.bulk(INDEX, [{"pid": 1}, {"pid": 2}, 5])
        assert (store.documents_indexed, store.bulk_requests) == (0, 0)
        assert store.index_names() == []
        assert store.bulk(INDEX, [{"pid": 3}]) == 1
        assert list(store.scan(INDEX)) == [("1", {"pid": 3})]
        if shard_count > 1:
            assert store._states[INDEX].rank == {"1": 0}

    def test_shard_key_term_query_routes_to_subset(self):
        store = sharded()
        store.bulk(INDEX, make_docs(30))
        before = store.routed_queries
        store.count(INDEX, {"term": {"pid": 2}})
        assert store.routed_queries == before + 1

    def test_non_key_query_fans_out(self):
        store = sharded()
        store.bulk(INDEX, make_docs(30))
        before = store.fanout_queries
        store.count(INDEX, {"term": {"syscall": "read"}})
        assert store.fanout_queries == before + 1

    def test_route_field_mutation_disables_exact_routing(self):
        store = sharded()
        store.bulk(INDEX, make_docs(30))
        ids = [doc_id for doc_id, _ in store.scan(INDEX, {"term": {"pid": 1}})]
        store.update_docs(INDEX, ids, {"pid": 2})
        # Every pid-1 doc now claims pid 2 but lives on pid-1's shard:
        # routed reads would miss them, so the coordinator must fan out.
        before = store.fanout_queries
        assert store.count(INDEX, {"term": {"pid": 2}}) == store.count(
            INDEX, {"term": {"pid": 2}})
        assert store.fanout_queries > before

    def test_invalid_construction_rejected(self):
        with pytest.raises(StoreError):
            ShardedDocumentStore(shard_count=0)
        with pytest.raises(StoreError):
            ShardedDocumentStore(shard_key="hostname")
        with pytest.raises(StoreError):
            ShardedDocumentStore(time_window_ns=0)


class TestMerges:
    def test_scan_preserves_global_ingest_order(self):
        store = sharded()
        docs = make_docs(40)
        store.bulk(INDEX, docs)
        got = [doc["duration_ns"] for _, doc in store.scan(INDEX)]
        assert got == list(range(40))

    def test_sortfree_aggs_use_partial_merge(self):
        store = sharded()
        store.bulk(INDEX, make_docs(60))
        before = store.agg_merges
        store.search(INDEX, size=0, aggs={
            "per": {"terms": {"field": "syscall", "size": 5}},
            "lat": {"stats": {"field": "duration_ns"}}})
        assert store.agg_merges == before + 1

    def test_fig4_shape_is_served_by_partial_merge(self):
        """The ``live_tail_sharded`` refresh sequence: a batch, then the
        nested Fig. 4 request — merged every time, never gathered."""
        docs = make_docs(120)
        store = sharded(count=4, key="time_window")
        query = {"term": {"session": "s"}}
        for start in range(0, 120, 30):
            store.bulk(INDEX, docs[start:start + 30])
            merges, gathers = store.agg_merges, store.agg_gathers
            got = aggregations(store, fig4(2_000), query=query)
            assert (store.agg_merges, store.agg_gathers) == (merges + 1,
                                                             gathers)
            assert got == aggregations(single(docs[:start + 30]),
                                       fig4(2_000), query=query)

    @pytest.mark.parametrize("docs, aggs", [
        # "1" then 1 tie on (count, str(key)) inside one Fig. 4 bucket.
        ([{"pid": 1, "time": 5, "g": "1"}, {"pid": 2, "time": 7, "g": 1}],
         fig4(1_000, field="g")),
        # 1.0 then 1: a dict over the values keeps the first-seen key.
        ([{"pid": 1, "g": 1.0}, {"pid": 2, "g": 1}],
         {"t": {"terms": {"field": "g"}}}),
        # Float addition does not associate.
        ([{"pid": 1, "g": 1e16}, {"pid": 2, "g": 1.0}, {"pid": 1, "g": -1e16}],
         {"s": {"sum": {"field": "g"}}}),
        # sorted() over NaN depends on the input order.
        ([{"pid": 1, "g": 2.0}, {"pid": 2, "g": float("nan")},
          {"pid": 1, "g": 1.0}],
         {"p": {"percentiles": {"field": "g", "percents": [0, 50, 100]}}}),
    ], ids=["nested-terms-tie", "equal-keys", "float-sum", "nan-percentiles"])
    def test_document_order_dependent_merges_gather(self, docs, aggs):
        """Shard order (pid 2, then pid 1) is not document order, and
        each answer depends on document order — a merge of the two
        partials would say ``1``-first, ``1``, ``1.0`` and a leading
        NaN: the merge must decline and the gather must equal the
        single store byte for byte."""
        store = sharded(count=2)
        store.bulk(INDEX, [dict(doc) for doc in docs])
        gathers = store.agg_gathers
        got = aggregations(store, aggs)
        assert store.agg_gathers == gathers + 1
        assert got == aggregations(single(docs), aggs)
        assert got == json.dumps(naive_aggregate(
            single(docs)._index(INDEX), None, aggs), sort_keys=True)

    def test_merge_does_not_mutate_a_cached_shard_partial(self):
        docs = make_docs(60)
        store = sharded(count=2)
        store.bulk(INDEX, docs)
        first = aggregations(store, fig4(2_000))
        assert first == aggregations(single(docs), fig4(2_000))
        # A write to pid 2's shard only: pid 1's shard keeps its epoch,
        # so its partial comes from the cache and is merged a second time.
        extra = {**docs[1], "time": 0}
        assert extra["pid"] == 2
        store.bulk(INDEX, [extra])
        hits = store.agg_cache_hits
        second = aggregations(store, fig4(2_000))
        assert store.agg_cache_hits == hits + 1
        assert second == aggregations(single(docs + [extra]), fig4(2_000))
        assert second != first

    def test_cardinality_agrees_when_a_shard_holds_both_zeros(self):
        """``0.0`` and ``-0.0`` share a dictionary code but not a
        ``repr``: the shard's columns must decline, as the single
        store's do, instead of counting codes."""
        docs = [{"pid": 1, "g": 0.0}, {"pid": 1, "g": -0.0},
                {"pid": 2, "g": 5}]
        aggs = {"c": {"cardinality": {"field": "g"}}}
        store = create_store(shard_count=2, shard_key="pid")
        store.ensure_index(INDEX)
        store.bulk(INDEX, [dict(doc) for doc in docs])
        plain = single(docs)
        expected = naive_aggregate(plain._index(INDEX), None, aggs)
        assert expected == {"c": {"value": 3}}
        assert plain.search(INDEX, size=0,
                            aggs=aggs)["aggregations"] == expected
        assert store.search(INDEX, size=0,
                            aggs=aggs)["aggregations"] == expected

    def test_sorted_agg_requests_fall_back_to_gather(self):
        store = sharded()
        store.bulk(INDEX, make_docs(60))
        before = store.agg_gathers
        store.search(INDEX, sort=[{"time": {"order": "desc"}}], size=5,
                     aggs={"lat": {"stats": {"field": "duration_ns"}}})
        assert store.agg_gathers == before + 1

    def test_repeat_is_answered_from_every_shard_partial_cache(self):
        """The router keeps no result cache of its own: a repeated
        request on an unchanged store is one partial-cache hit per
        shard — a cache hit, not a pushdown, as on one store — and the
        same bytes."""
        store = sharded()
        store.bulk(INDEX, make_docs(60))
        request = dict(size=0, aggs={"lat": {"stats":
                                             {"field": "duration_ns"}}})
        first = store.search(INDEX, **request)
        hits, misses = store.agg_cache_hits, store.agg_cache_misses
        pushdowns = store.agg_stats()["pushdowns"]
        second = store.search(INDEX, **request)
        assert store.agg_cache_hits == hits + store.shard_count
        assert store.agg_cache_misses == misses
        assert store.agg_stats()["pushdowns"] == pushdowns
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True)

    def test_cache_invalidated_by_writes(self):
        store = sharded()
        store.bulk(INDEX, make_docs(10))
        request = dict(size=0,
                       aggs={"n": {"value_count": {"field": "pid"}}})
        assert store.search(INDEX, **request)[
            "aggregations"]["n"]["value"] == 10
        store.bulk(INDEX, make_docs(5))
        assert store.search(INDEX, **request)[
            "aggregations"]["n"]["value"] == 15


def assert_rows_in_rank_order(store):
    """On every shard, row order is global rank order — what lets a
    shard answer in ascending rows (scan order, the order the kernels
    aggregate in) with no rank to sort by."""
    rank = store._states[INDEX].rank
    for shard in store.shards:
        columns = shard._indices[INDEX].columns
        ranks = [rank[columns.doc_ids[row]] for row in columns.all_rows()]
        assert ranks == sorted(ranks)
        assert [doc_id for doc_id, _ in shard.scan(INDEX)] == [
            columns.doc_ids[row] for row in columns.all_rows()]


class TestLifecycle:
    def test_kill_then_restore_round_trips(self, tmp_path):
        store = sharded()
        store.bulk(INDEX, make_docs(45))
        store.bulk_columnar(INDEX, DocBatch(make_docs(12, session="late")))
        snapshot = list(store.scan(INDEX))
        newest = store.search(INDEX, sort=[{"time": {"order": "desc"}}],
                              size=7)["hits"]
        assert_rows_in_rank_order(store)
        store.save_shards(tmp_path)
        victim = max(range(3), key=store._shard_docs)
        held = store._shard_docs(victim)
        store.kill_shard(victim)
        assert store.shard_kills == 1
        assert store.count(INDEX) == len(snapshot) - held
        assert store.restore_shard(victim, tmp_path) == held
        assert list(store.scan(INDEX)) == snapshot
        assert_rows_in_rank_order(store)
        assert store.search(INDEX, sort=[{"time": {"order": "desc"}}],
                            size=7)["hits"] == newest

    def test_kill_bad_shard_rejected(self):
        store = sharded()
        with pytest.raises(StoreError):
            store.kill_shard(7)
        with pytest.raises(StoreError):
            store.restore_shard(-1, "/nowhere")

    def test_restore_missing_image_is_a_noop(self, tmp_path):
        store = sharded()
        store.bulk(INDEX, make_docs(9))
        before = store.count(INDEX)
        assert store.restore_shard(0, tmp_path / "empty") == 0
        assert store.count(INDEX) == before

    @pytest.mark.parametrize("damage", ["cut-15-short", "flipped-byte"])
    def test_restore_from_damaged_image_keeps_the_intact_prefix(
            self, tmp_path, damage):
        store = sharded()
        store.bulk(INDEX, make_docs(45))
        store.save_shards(tmp_path)
        victim = max(range(3), key=store._shard_docs)
        held = list(store.shards[victim].scan(INDEX))
        image_path = tmp_path / f"shard-{victim:02d}" / "router.bin"
        image = image_path.read_bytes()
        if damage == "cut-15-short":
            image_path.write_bytes(image[:-15])     # tears the last record
        else:
            middle = len(image) // 2                # inside some record
            image_path.write_bytes(image[:middle]
                                   + bytes([image[middle] ^ 0x01])
                                   + image[middle + 1:])
        store.kill_shard(victim)
        # Never a parser error, never part of a record: the frames
        # before the damage come back byte-exact, nothing after them.
        restored = store.restore_shard(victim, tmp_path)
        assert list(store.shards[victim].scan(INDEX)) == held[:restored]
        if damage == "cut-15-short":
            assert restored == len(held) - 1
        else:
            assert 0 < restored < len(held) - 1
        report = store.shard_restore_report
        assert report["header_ok"]
        assert report["records_recovered"] == restored
        assert report["torn_bytes_dropped"] > 0

    def test_rebalance_changes_count_and_keeps_answers(self):
        store = sharded(count=2)
        store.bulk(INDEX, make_docs(48))
        snapshot = list(store.scan(INDEX))
        aggs = {"per": {"terms": {"field": "pid", "size": 10}}}
        agg_before = store.search(INDEX, size=0, aggs=aggs)["aggregations"]
        moved = store.rebalance(4)
        assert store.shard_count == 4
        assert len(store.shards) == 4
        assert store.rebalances == 1
        assert moved > 0
        assert list(store.scan(INDEX)) == snapshot
        assert store.search(INDEX, size=0,
                            aggs=aggs)["aggregations"] == agg_before
        assert_rows_in_rank_order(store)
        # ... and after more documents came: rows of the new shard set
        # are numbered afresh, in rank order.
        store.bulk(INDEX, [{"syscall": "open", "pid": 3, "time": 5}])
        snapshot = list(store.scan(INDEX))
        store.rebalance(3)
        assert list(store.scan(INDEX)) == snapshot
        assert_rows_in_rank_order(store)


class TestTelemetry:
    def test_shard_gauges_reflect_layout(self):
        store = sharded()
        registry = MetricsRegistry()
        store.bind_telemetry(registry)
        store.bulk(INDEX, make_docs(33))
        store.count(INDEX, {"term": {"pid": 1}})
        assert registry.value("dio_shard_count") == 3
        family = registry.get("dio_shard_docs")
        total = sum(family.labels(shard=str(i)).value for i in range(3))
        assert total == 33
        assert registry.value("dio_shard_routed_queries_total") == 1
        assert registry.value("dio_store_documents_indexed_total") == 33

    def test_store_families_sum_over_shards(self):
        store = sharded()
        registry = MetricsRegistry()
        store.bind_telemetry(registry)
        store.bulk(INDEX, make_docs(20))
        store.search(INDEX, size=0,
                     aggs={"lat": {"stats": {"field": "duration_ns"}}})
        names = {family.name for family in registry.collect()}
        assert {"dio_shard_count", "dio_shard_docs",
                "dio_shard_fanout_queries_total",
                "dio_store_agg_pushdown_total"} <= names

    def test_health_cache_rate_is_the_partial_cache_rate(self):
        """A write to one shard leaves the others' partials cached:
        ``dio health`` reads that reuse, not a coordinator's 0."""
        store = sharded()
        registry = MetricsRegistry()
        store.bind_telemetry(registry)
        store.bulk(INDEX, make_docs(60))
        aggregations(store, fig4(2_000))             # 3 misses
        late = {**make_docs(2)[1], "time": 0}
        assert store._route_source(late) == 2
        store.bulk(INDEX, [late])
        aggregations(store, fig4(2_000))             # 2 hits, 1 miss
        rate = PipelineHealth(registry).agg_cache_hit_rate()
        assert rate == store.agg_stats()["cache_hit_rate"] == 2 / 6


class TestTenancy:
    def test_quota_rejects_and_counts(self):
        backend = TenantBackend(shards_per_tenant=2)
        tenant = backend.register("acme", quota_docs=10)
        tenant.ensure_index(INDEX, indexed_fields=INDEXED)
        tenant.bulk(INDEX, make_docs(8))
        with pytest.raises(TenantQuotaExceeded):
            tenant.bulk(INDEX, make_docs(5))
        assert tenant.docs_held() == 8
        assert tenant.quota_rejections == 1
        report = backend.fleet_report()
        assert report["tenants"]["acme"]["status"] == "rejecting"

    def test_quota_checks_a_single_document_write(self):
        # One document goes in as a bulk of one, through the quota
        # check; the single-document index_doc is refused rather than
        # delegated — on a plain inner store (one shard) it would
        # index past the quota.
        for shards in (1, 2):
            backend = TenantBackend(shards_per_tenant=shards)
            tenant = backend.register("acme", quota_docs=2)
            tenant.bulk(INDEX, make_docs(1))
            tenant.bulk(INDEX, make_docs(1))
            with pytest.raises(TenantQuotaExceeded):
                tenant.bulk(INDEX, make_docs(1))
            with pytest.raises(AttributeError, match="index_doc"):
                tenant.index_doc(INDEX, make_docs(1)[0])
            assert (tenant.docs_held(), tenant.quota_rejections) == (2, 1)

    def test_tenants_are_isolated(self):
        backend = TenantBackend(shards_per_tenant=2)
        a = backend.register("a")
        b = backend.register("b")
        for tenant in (a, b):
            tenant.ensure_index(INDEX, indexed_fields=INDEXED)
        a.bulk(INDEX, make_docs(12))
        assert a.docs_held() == 12
        assert b.docs_held() == 0
        # Disjoint shard sets: no DocumentStore object is shared.
        a_shards = {id(s) for s in a.inner.shards}
        b_shards = {id(s) for s in b.inner.shards}
        assert not (a_shards & b_shards)

    def test_fleet_report_totals(self):
        backend = TenantBackend(shards_per_tenant=2, default_quota_docs=100)
        for name in ("x", "y"):
            tenant = backend.register(name)
            tenant.ensure_index(INDEX, indexed_fields=INDEXED)
            tenant.bulk(INDEX, make_docs(10))
        report = backend.fleet_report()
        assert report["total_docs"] == 20
        assert report["tenant_count"] == 2
        assert all(t["status"] == "ok"
                   for t in report["tenants"].values())

    def test_tenant_telemetry_gauges(self):
        backend = TenantBackend(shards_per_tenant=2)
        tenant = backend.register("acme", quota_docs=50)
        tenant.ensure_index(INDEX, indexed_fields=INDEXED)
        tenant.bulk(INDEX, make_docs(5))
        registry = MetricsRegistry()
        backend.bind_telemetry(registry)
        assert registry.value("dio_tenant_count") == 1
        assert registry.get("dio_tenant_docs").labels(
            tenant="acme").value == 5
        assert registry.get("dio_tenant_shards").labels(
            tenant="acme").value == 2

    def test_tenant_store_delegates_reads(self):
        backend = TenantBackend(shards_per_tenant=2)
        tenant = backend.register("acme")
        tenant.ensure_index(INDEX, indexed_fields=INDEXED)
        tenant.bulk(INDEX, make_docs(6))
        assert isinstance(tenant, TenantStore)
        assert tenant.count(INDEX, {"term": {"syscall": "read"}}) == 2
        assert len(list(tenant.scan(INDEX))) == 6

    def test_duplicate_registration_rejected(self):
        backend = TenantBackend()
        backend.register("acme")
        with pytest.raises(StoreError):
            backend.register("acme")


class TestFactory:
    def test_create_store_single_is_plain(self):
        assert type(create_store(shard_count=1)) is DocumentStore

    def test_create_store_sharded_is_router(self):
        store = create_store(shard_count=2, shard_key="file_tag")
        assert isinstance(store, ShardedDocumentStore)
        assert (store.shard_count, store.shard_key) == (2, "file_tag")
        assert all(type(s) is DocumentStore for s in store.shards)
