"""Unit tests for the document store, aggregations, and correlation."""

import math

import pytest

from repro.backend import (DocumentStore, FilePathCorrelator,
                           run_aggregations)
from repro.backend.aggregations import AggregationError, percentile
from repro.backend.store import StoreError


@pytest.fixture()
def store():
    return DocumentStore()


def get_doc(store, index, doc_id):
    """One document's source by id, read through a scan."""
    return dict(store.scan(index)).get(doc_id)


def seed_events(store, index="events"):
    docs = [
        {"syscall": "openat", "proc_name": "app", "ret": 3, "time": 100,
         "file_tag": "7 12 50", "args": {"path": "/tmp/app.log"}},
        {"syscall": "write", "proc_name": "app", "ret": 26, "time": 200,
         "file_tag": "7 12 50", "args": {"fd": 3}},
        {"syscall": "close", "proc_name": "app", "ret": 0, "time": 300,
         "file_tag": "7 12 50", "args": {"fd": 3}},
        {"syscall": "openat", "proc_name": "fluent-bit", "ret": 23, "time": 400,
         "file_tag": "7 12 50", "args": {"path": "/tmp/app.log"}},
        {"syscall": "read", "proc_name": "fluent-bit", "ret": 26, "time": 500,
         "file_tag": "7 12 50", "args": {"fd": 23}},
        {"syscall": "unlink", "proc_name": "app", "ret": 0, "time": 600,
         "args": {"path": "/tmp/app.log"}},
    ]
    store.bulk(index, docs)
    return docs


class TestIndexLifecycle:
    def test_create_and_list(self, store):
        store.create_index("a")
        store.create_index("b")
        assert store.index_names() == ["a", "b"]

    def test_duplicate_create_rejected(self, store):
        store.create_index("a")
        with pytest.raises(StoreError):
            store.create_index("a")

    def test_ensure_index_idempotent(self, store):
        first = store.ensure_index("a")
        assert store.ensure_index("a") is first

    def test_delete_index(self, store):
        store.create_index("a")
        store.delete_index("a")
        assert store.index_names() == []
        with pytest.raises(StoreError):
            store.delete_index("a")

    def test_search_missing_index_rejected(self, store):
        with pytest.raises(StoreError):
            store.search("nope")


class TestDocumentAPIs:
    def test_index_and_get(self, store):
        doc_id = store.index_doc("idx", {"k": "v"})
        assert get_doc(store, "idx", doc_id) == {"k": "v"}

    def test_explicit_id_overwrites(self, store):
        store.index_doc("idx", {"v": 1}, doc_id="x")
        store.index_doc("idx", {"v": 2}, doc_id="x")
        assert get_doc(store, "idx", "x") == {"v": 2}
        assert store.count("idx") == 1

    def test_bulk_counts(self, store):
        n = store.bulk("idx", [{"i": i} for i in range(5)])
        assert n == 5
        assert store.bulk_requests == 1
        assert store.count("idx") == 5


class TestIdAllocation:
    def test_explicit_numeric_id_advances_auto_ids(self, store):
        # Regression: an explicit numeric id used to leave ``_next_id``
        # behind, so the next auto-id silently overwrote the document.
        store.index_doc("idx", {"who": "explicit"}, doc_id="7")
        auto_id = store.index_doc("idx", {"who": "auto"})
        assert auto_id != "7"
        assert get_doc(store, "idx", "7") == {"who": "explicit"}
        assert get_doc(store, "idx", auto_id) == {"who": "auto"}

    def test_explicit_int_id_advances_auto_ids(self, store):
        store.index_doc("idx", {"who": "explicit"}, doc_id=3)
        assert store.index_doc("idx", {"who": "auto"}) == "4"

    def test_non_numeric_ids_leave_sequence_alone(self, store):
        store.index_doc("idx", {"k": 1}, doc_id="alpha")
        assert store.index_doc("idx", {"k": 2}) == "1"
        assert store.count("idx") == 2


class TestSearchValidation:
    def test_negative_from_rejected(self, store):
        seed_events(store)
        with pytest.raises(StoreError):
            store.search("events", from_=-1)

    def test_negative_size_rejected(self, store):
        seed_events(store)
        with pytest.raises(StoreError):
            store.search("events", size=-5)

    def test_zero_size_still_counts(self, store):
        seed_events(store)
        response = store.search("events", size=0)
        assert response["hits"]["hits"] == []
        assert response["hits"]["total"]["value"] == 6


class TestCount:
    def test_count_matches_search_total(self, store):
        seed_events(store)
        query = {"term": {"proc_name": "app"}}
        total = store.search("events", query=query)["hits"]["total"]["value"]
        assert store.count("events", query) == total

    def test_count_without_query_is_index_size(self, store):
        seed_events(store)
        assert store.count("events") == 6

    def test_count_skips_materialization_on_exact_plans(self, store):
        seed_events(store)
        scanned = []
        original = store._index("events").scan
        store._index("events").scan = (
            lambda *a, **k: scanned.append(1) or original(*a, **k))
        assert store.count("events", {"term": {"syscall": "openat"}}) == 2
        assert not scanned


class TestSearch:
    def test_query_filters_hits(self, store):
        seed_events(store)
        response = store.search(
            "events", query={"term": {"proc_name": "fluent-bit"}}, size=None)
        assert response["hits"]["total"]["value"] == 2

    def test_sort_ascending_and_descending(self, store):
        seed_events(store)
        response = store.search("events", sort=["time"], size=None)
        times = [h["_source"]["time"] for h in response["hits"]["hits"]]
        assert times == sorted(times)
        response = store.search(
            "events", sort=[{"time": {"order": "desc"}}], size=None)
        times = [h["_source"]["time"] for h in response["hits"]["hits"]]
        assert times == sorted(times, reverse=True)

    def test_pagination(self, store):
        seed_events(store)
        response = store.search("events", sort=["time"], size=2, from_=2)
        times = [h["_source"]["time"] for h in response["hits"]["hits"]]
        assert times == [300, 400]
        assert response["hits"]["total"]["value"] == 6

    def test_inverted_index_pruning_matches_linear_scan(self, store):
        seed_events(store)
        query = {"bool": {"must": [
            {"term": {"syscall": "openat"}},
            {"range": {"time": {"gte": 0}}},
        ]}}
        response = store.search("events", query=query, size=None)
        assert response["hits"]["total"]["value"] == 2

    def test_update_by_query_dict(self, store):
        seed_events(store)
        updated = store.update_by_query(
            "events", {"term": {"file_tag": "7 12 50"}},
            {"file_path": "/tmp/app.log"})
        assert updated == 5
        response = store.search(
            "events", query={"term": {"file_path": "/tmp/app.log"}}, size=None)
        assert response["hits"]["total"]["value"] == 5

    def test_update_by_query_callable(self, store):
        seed_events(store)
        store.update_by_query(
            "events", {"term": {"syscall": "write"}},
            lambda src: src.update(double_ret=src["ret"] * 2))
        doc = store.search("events",
                           query={"term": {"syscall": "write"}})["hits"]["hits"][0]
        assert doc["_source"]["double_ret"] == 52

    def test_update_refreshes_inverted_index(self, store):
        store.index_doc("idx", {"state": "old"}, doc_id="1")
        # Force the inverted index to exist before the update.
        store.search("idx", query={"term": {"state": "old"}})
        store.update_by_query("idx", {"term": {"state": "old"}},
                              {"state": "new"})
        assert store.count("idx", {"term": {"state": "new"}}) == 1
        assert store.count("idx", {"term": {"state": "old"}}) == 0


class TestAggregations:
    def test_terms_agg(self, store):
        seed_events(store)
        response = store.search("events", aggs={
            "by_proc": {"terms": {"field": "proc_name"}}})
        buckets = response["aggregations"]["by_proc"]["buckets"]
        assert buckets[0]["key"] == "app"
        assert buckets[0]["doc_count"] == 4
        assert buckets[1]["key"] == "fluent-bit"

    def test_terms_agg_size_limits_buckets(self, store):
        seed_events(store)
        response = store.search("events", aggs={
            "by_syscall": {"terms": {"field": "syscall", "size": 2}}})
        assert len(response["aggregations"]["by_syscall"]["buckets"]) == 2

    def test_date_histogram_with_nested_terms(self, store):
        seed_events(store)
        response = store.search("events", aggs={
            "over_time": {
                "date_histogram": {"field": "time", "fixed_interval": 300},
                "aggs": {"by_proc": {"terms": {"field": "proc_name"}}},
            }})
        buckets = response["aggregations"]["over_time"]["buckets"]
        assert [b["key"] for b in buckets] == [0, 300, 600]
        assert buckets[0]["doc_count"] == 2
        nested = buckets[1]["by_proc"]["buckets"]
        assert {b["key"] for b in nested} == {"app", "fluent-bit"}

    def test_metric_aggs(self, store):
        seed_events(store)
        response = store.search("events", aggs={
            "ret_stats": {"stats": {"field": "ret"}},
            "ret_avg": {"avg": {"field": "ret"}},
            "n_procs": {"cardinality": {"field": "proc_name"}},
            "n_rets": {"value_count": {"field": "ret"}},
        })
        aggs = response["aggregations"]
        assert aggs["ret_stats"]["count"] == 6
        assert aggs["ret_stats"]["max"] == 26
        assert aggs["n_procs"]["value"] == 2
        assert aggs["n_rets"]["value"] == 6
        assert aggs["ret_avg"]["value"] == pytest.approx(78 / 6)

    def test_percentiles_agg(self):
        sources = [{"lat": v} for v in range(1, 101)]
        result = run_aggregations(
            {"p": {"percentiles": {"field": "lat", "percents": [50, 99]}}},
            sources)
        assert result["p"]["values"]["50"] == pytest.approx(50.5)
        assert result["p"]["values"]["99"] == pytest.approx(99.01)

    def test_histogram_buckets(self):
        sources = [{"size": v} for v in (1, 5, 9, 10, 19, 25)]
        result = run_aggregations(
            {"h": {"histogram": {"field": "size", "interval": 10}}}, sources)
        buckets = result["h"]["buckets"]
        assert [(b["key"], b["doc_count"]) for b in buckets] == [
            (0, 3), (10, 2), (20, 1)]

    def test_stats_on_empty(self):
        result = run_aggregations({"s": {"stats": {"field": "x"}}}, [])
        assert result["s"]["count"] == 0
        assert result["s"]["avg"] is None

    def test_errors(self):
        with pytest.raises(AggregationError):
            run_aggregations({"bad": {"terms": {}}}, [])
        with pytest.raises(AggregationError):
            run_aggregations({"bad": {"nonsense": {"field": "x"}}}, [])
        with pytest.raises(AggregationError):
            run_aggregations({"bad": {"histogram": {"field": "x"}}}, [])
        with pytest.raises(AggregationError):
            run_aggregations(
                {"bad": {"avg": {"field": "x"},
                         "aggs": {"n": {"avg": {"field": "y"}}}}}, [])


class TestPercentileFunction:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_single_value(self):
        assert percentile([7], 99) == 7.0

    def test_interpolation(self):
        assert percentile([0, 10], 50) == 5.0

    def test_extremes(self):
        values = list(range(10))
        assert percentile(values, 0) == 0
        assert percentile(values, 100) == 9


class TestFilePathCorrelation:
    def test_tags_translate_to_paths(self, store):
        seed_events(store)
        correlator = FilePathCorrelator(store)
        report = correlator.correlate("events")
        assert report.tags_resolved == 1
        assert report.documents_updated == 5
        assert report.documents_unresolved == 0
        response = store.search(
            "events", query={"term": {"syscall": "read"}})
        assert response["hits"]["hits"][0]["_source"]["file_path"] == "/tmp/app.log"

    def test_unresolved_when_open_missing(self, store):
        store.bulk("events", [
            {"syscall": "read", "ret": 10, "time": 1,
             "file_tag": "7 99 1", "args": {"fd": 4}},
            {"syscall": "close", "ret": 0, "time": 2,
             "file_tag": "7 99 1", "args": {"fd": 4}},
        ])
        report = FilePathCorrelator(store).correlate("events")
        assert report.tags_resolved == 0
        assert report.documents_unresolved == 2
        assert report.unresolved_ratio == 1.0

    def test_latest_open_wins_after_rename(self, store):
        store.bulk("events", [
            {"syscall": "openat", "ret": 3, "time": 1, "file_tag": "7 5 1",
             "args": {"path": "/a"}},
            {"syscall": "openat", "ret": 3, "time": 9, "file_tag": "7 5 1",
             "args": {"path": "/b"}},
            {"syscall": "read", "ret": 1, "time": 10, "file_tag": "7 5 1",
             "args": {"fd": 3}},
        ])
        FilePathCorrelator(store).correlate("events")
        doc = store.search(
            "events", query={"term": {"syscall": "read"}})["hits"]["hits"][0]
        assert doc["_source"]["file_path"] == "/b"

    def test_session_scoping(self, store):
        store.bulk("events", [
            {"syscall": "openat", "ret": 3, "time": 1, "file_tag": "7 5 1",
             "session": "s1", "args": {"path": "/a"}},
            {"syscall": "read", "ret": 1, "time": 2, "file_tag": "7 5 1",
             "session": "s1", "args": {"fd": 3}},
            {"syscall": "read", "ret": 1, "time": 3, "file_tag": "7 5 1",
             "session": "s2", "args": {"fd": 3}},
        ])
        report = FilePathCorrelator(store).correlate("events", session="s1")
        assert report.documents_updated == 2
        s2_doc = store.search(
            "events", query={"term": {"session": "s2"}})["hits"]["hits"][0]
        assert "file_path" not in s2_doc["_source"]
