"""Unit tests: per-field secondary indexes and the query planner."""

import math

import pytest

from repro.backend import DocumentStore, FieldIndex, QueryPlan


class TestFieldIndex:
    def test_postings_and_presence(self):
        fi = FieldIndex("f")
        fi.update("1", "a")
        fi.update("2", "a")
        fi.update("3", None)
        assert fi.term_ids(["a"]) == {"1", "2"}
        assert fi.present == {"1", "2"}

    def test_delta_update_moves_postings(self):
        fi = FieldIndex("f")
        fi.update("1", "old")
        fi.update("1", "new")
        assert fi.term_ids(["old"]) == set()
        assert fi.term_ids(["new"]) == {"1"}

    def test_non_indexable_value_still_present(self):
        fi = FieldIndex("f")
        fi.update("1", {"nested": True})
        assert fi.present == {"1"}
        assert fi.term_ids([("nested",)]) == set()

    def test_remove_clears_everything(self):
        fi = FieldIndex("f")
        fi.update("1", 5)
        fi.remove("1")
        assert fi.present == set()
        assert fi.term_ids([5]) == set()
        assert fi.range_ids({"gte": 0}) == set()

    def test_range_numeric(self):
        fi = FieldIndex("f")
        for doc_id, value in enumerate([10, 20, 30, 40]):
            fi.update(str(doc_id), value)
        assert fi.range_ids({"gte": 20, "lt": 40}) == {"1", "2"}
        assert fi.range_ids({"gt": 20, "lte": 40}) == {"2", "3"}
        assert fi.range_ids({"gt": 100}) == set()

    def test_range_reflects_updates(self):
        fi = FieldIndex("f")
        fi.update("1", 10)
        assert fi.range_ids({"gte": 0}) == {"1"}
        fi.update("1", 99)
        assert fi.range_ids({"lt": 50}) == set()
        assert fi.range_ids({"gte": 50}) == {"1"}

    def test_range_string_partition(self):
        fi = FieldIndex("f")
        fi.update("s", "beta")
        fi.update("n", 7)
        assert fi.range_ids({"gte": "alpha"}) == {"s"}
        assert fi.range_ids({"gte": 0}) == {"n"}
        # Mixed bound types can never compare true against anything.
        assert fi.range_ids({"gte": 0, "lt": "zz"}) == set()

    def test_range_nan_bound_matches_nothing(self):
        fi = FieldIndex("f")
        fi.update("1", 1.5)
        assert fi.range_ids({"gte": math.nan}) == set()

    def test_nan_value_never_indexed(self):
        fi = FieldIndex("f")
        fi.update("1", math.nan)
        assert fi.range_ids({"gte": -math.inf}) == set()
        assert fi.present == {"1"}

    def test_unplannable_bound_returns_none(self):
        fi = FieldIndex("f")
        fi.update("1", (1, 2))
        assert fi.range_ids({"gte": [0]}) is None

    def test_prefix(self):
        fi = FieldIndex("f")
        fi.update("a", "/tmp/app.log")
        fi.update("b", "/tmp/db/wal")
        fi.update("c", "/var/log/x")
        fi.update("n", 3)
        assert fi.prefix_ids("/tmp/") == {"a", "b"}
        assert fi.prefix_ids("/var") == {"c"}
        assert fi.prefix_ids("") == {"a", "b", "c"}
        assert fi.prefix_ids(3) is None


@pytest.fixture()
def store():
    return DocumentStore()


def _plan(store, index, query):
    return store._index(index).plan(query)


class TestPlanModes:
    def seed(self, store):
        store.bulk("idx", [
            {"syscall": "read", "time": 10, "path": "/tmp/a"},
            {"syscall": "write", "time": 20, "path": "/tmp/b"},
            {"syscall": "read", "time": 30, "path": "/var/x"},
            {"syscall": "close", "time": 40},
        ])

    def test_term_is_exact(self, store):
        self.seed(store)
        plan = _plan(store, "idx", {"term": {"syscall": "read"}})
        assert plan.exact and plan.mode == "exact"
        assert plan.ids == {"1", "3"}

    def test_match_all_is_exact_universe(self, store):
        self.seed(store)
        plan = _plan(store, "idx", {"match_all": {}})
        assert plan.exact and plan.ids is None

    def test_range_is_exact(self, store):
        self.seed(store)
        plan = _plan(store, "idx", {"range": {"time": {"gte": 15, "lte": 30}}})
        assert plan.exact
        assert plan.ids == {"2", "3"}

    def test_prefix_is_exact(self, store):
        self.seed(store)
        plan = _plan(store, "idx", {"prefix": {"path": "/tmp/"}})
        assert plan.exact
        assert plan.ids == {"1", "2"}

    def test_exists_is_exact(self, store):
        self.seed(store)
        plan = _plan(store, "idx", {"exists": {"field": "path"}})
        assert plan.exact
        assert plan.ids == {"1", "2", "3"}

    def test_bool_must_intersects(self, store):
        self.seed(store)
        plan = _plan(store, "idx", {"bool": {"must": [
            {"term": {"syscall": "read"}},
            {"range": {"time": {"gte": 20}}},
        ]}})
        assert plan.exact
        assert plan.ids == {"3"}

    def test_must_not_prunes_but_rechecks(self, store):
        self.seed(store)
        plan = _plan(store, "idx", {"bool": {
            "must": [{"term": {"syscall": "read"}}],
            "must_not": [{"range": {"time": {"gte": 25}}}],
        }})
        assert not plan.exact and plan.mode == "pruned"
        assert plan.ids == {"1", "3"}

    def test_should_union_is_exact(self, store):
        self.seed(store)
        plan = _plan(store, "idx", {"bool": {"should": [
            {"term": {"syscall": "write"}},
            {"term": {"syscall": "close"}},
        ]}})
        assert plan.exact
        assert plan.ids == {"2", "4"}

    def test_minimum_should_match_two_rechecks(self, store):
        self.seed(store)
        plan = _plan(store, "idx", {"bool": {
            "should": [{"term": {"syscall": "read"}},
                       {"range": {"time": {"lt": 25}}}],
            "minimum_should_match": 2,
        }})
        assert not plan.exact
        assert plan.ids == {"1", "2", "3"}

    def test_wildcard_falls_back_to_fullscan(self, store):
        self.seed(store)
        plan = _plan(store, "idx", {"wildcard": {"path": "/tmp/*"}})
        assert plan.mode == "fullscan"
        assert plan.ids is None

    def test_term_none_falls_back(self, store):
        self.seed(store)
        # ``None`` matches docs missing the field; postings can't see those.
        plan = _plan(store, "idx", {"term": {"path": None}})
        assert plan.mode == "fullscan"

    def test_nested_bool_is_exact(self, store):
        self.seed(store)
        plan = _plan(store, "idx", {"bool": {"must": [
            {"bool": {"should": [{"term": {"syscall": "read"}},
                                 {"term": {"syscall": "write"}}]}},
            {"exists": {"field": "path"}},
        ]}})
        assert plan.exact
        assert plan.ids == {"1", "2", "3"}

    def test_plan_repr_modes(self):
        assert "exact" in repr(QueryPlan({"1"}, True))
        assert "fullscan" in repr(QueryPlan(None, False))


class TestStorePlanTelemetry:
    def test_plan_counts_accumulate(self, store):
        store.bulk("idx", [{"k": i, "t": i * 10} for i in range(20)])
        store.search("idx", query={"term": {"k": 3}})
        store.search("idx", query={"range": {"t": {"gte": 100}}})
        store.search("idx", query={"wildcard": {"k": "x*"}})
        store.search("idx", query={"bool": {
            "must": [{"term": {"k": 5}}],
            "must_not": [{"term": {"t": 50}}]}})
        assert store.plan_counts["exact"] == 2
        assert store.plan_counts["fullscan"] == 1
        assert store.plan_counts["pruned"] == 1
        assert 0.0 < store.pruning_ratio() < 1.0

    def test_plan_metrics_exported(self, store):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        store.bind_telemetry(registry)
        store.bulk("idx", [{"k": i} for i in range(10)])
        store.search("idx", query={"term": {"k": 1}})
        assert registry.value("dio_store_plan_exact_total") == 1
        assert registry.value("dio_store_plan_pruning_ratio") == pytest.approx(0.9)


class TestScanSemantics:
    def test_pruned_scan_preserves_insertion_order(self, store):
        store.bulk("idx", [{"k": "x", "i": i} for i in range(50)])
        pairs = store.scan("idx", {"term": {"k": "x"}})
        assert [source["i"] for _, source in pairs] == list(range(50))

    def test_exact_plan_results_survive_in_place_updates(self, store):
        # The pre-planner store left stale postings behind on in-place
        # re-puts and relied on predicate re-checks to hide them; exact
        # plans skip the predicate, so the indexes must be truly clean.
        store.index_doc("idx", {"state": "old"}, doc_id="1")
        store.search("idx", query={"term": {"state": "old"}})
        store.update_by_query("idx", {"term": {"state": "old"}},
                              {"state": "new"})
        assert store.count("idx", {"term": {"state": "old"}}) == 0
        assert store.count("idx", {"term": {"state": "new"}}) == 1
        assert store.count("idx", {"exists": {"field": "state"}}) == 1

    def test_stream_matches_scan(self, store):
        # A pruned scan is the stream of all documents, filtered.
        store.bulk("idx", [{"k": i % 3} for i in range(30)])
        assert store.scan("idx", {"term": {"k": 1}}) == [
            pair for pair in store.scan("idx") if pair[1]["k"] == 1]

    def test_update_docs_refreshes_named_fields(self, store):
        store.bulk("idx", [{"k": 1}, {"k": 2}])
        assert store.update_docs("idx", ["1", "missing"], {"tag": "hot"}) == 1
        assert store.count("idx", {"term": {"tag": "hot"}}) == 1

    def test_deletes_keep_planner_consistent(self, store):
        store.bulk("idx", [{"t": i} for i in range(10)])
        store.delete_by_query("idx", {"range": {"t": {"lt": 5}}})
        assert store.count("idx", {"range": {"t": {"gte": 0}}}) == 5
        assert store.count("idx", {"exists": {"field": "t"}}) == 5
