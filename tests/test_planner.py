"""Unit tests: what a column answers the query planner, and the plans.

Rows are the address: a plan is ascending row numbers (a ``range``, a
sorted sequence or ``None`` for every live row), read off the field's
:class:`~repro.backend.columns.Column`.  ``TestFieldIndex`` pins, in
row form, the facts the retired ``FieldIndex`` (now the oracle in
``tests/field_index.py``) was pinned to.
"""

import math

import pytest

from repro.backend import Column, DocumentStore, QueryPlan


def column_of(*values) -> Column:
    column = Column("f")
    for value in values:
        column.append(value)
    return column


class TestFieldIndex:
    def test_postings_and_presence(self):
        column = column_of("a", "a", None)
        assert list(column.rows_equal(["a"])) == [0, 1]
        assert list(column.rows_present()) == [0, 1]

    def test_delta_update_moves_postings(self):
        column = column_of("old", "keep")
        assert list(column.rows_equal(["old"])) == [0]   # postings built
        kept = column.rows_equal(["keep"])
        column.set(0, "new")
        assert list(column.rows_equal(["old"])) == []
        assert list(column.rows_equal(["new"])) == [0]
        # Moved, not rebuilt: the other value's rows are the same object.
        assert column.rows_equal(["keep"]) is kept

    def test_non_indexable_value_still_present(self):
        column = column_of({"nested": True})
        assert list(column.rows_present()) == [0]
        assert list(column.rows_equal([("nested",)])) == []

    def test_range_numeric(self):
        column = column_of(10, 20, 30, 40)
        # A lane that never decreases answers with a range: no structure.
        assert column.rows_in_range({"gte": 20, "lt": 40}) == range(1, 3)
        assert column.rows_in_range({"gt": 20, "lte": 40}) == range(2, 4)
        assert list(column.rows_in_range({"gt": 100})) == []
        shuffled = column_of(30, 10, 40, 20)
        assert shuffled.rows_in_range({"gte": 20, "lt": 40}) == [0, 3]
        assert shuffled.rows_in_range({"gt": 20, "lte": 40}) == [0, 2]

    def test_range_reflects_updates(self):
        column = column_of(10, 50)
        assert list(column.rows_in_range({"gte": 0})) == [0, 1]
        column.set(0, 99)
        assert list(column.rows_in_range({"lt": 50})) == []
        assert list(column.rows_in_range({"gte": 50})) == [0, 1]

    def test_range_string_partition(self):
        column = column_of("beta", 7)
        assert list(column.rows_in_range({"gte": "alpha"})) == [0]
        assert list(column.rows_in_range({"gte": 0})) == [1]
        # Mixed bound types can never compare true against anything.
        assert list(column.rows_in_range({"gte": 0, "lt": "zz"})) == []

    def test_range_nan_bound_matches_nothing(self):
        column = column_of(1.5)
        assert list(column.rows_in_range({"gte": math.nan})) == []

    def test_nan_value_never_indexed(self):
        column = column_of(math.nan)
        assert list(column.rows_in_range({"gte": -math.inf})) == []
        assert list(column.rows_equal([math.nan])) == []
        assert list(column.rows_present()) == [0]

    def test_unplannable_bound_returns_none(self):
        column = column_of((1, 2))
        assert column.rows_in_range({"gte": [0]}) is None
        assert column.rows_in_range({"above": 0}) is None
        # A bool compares as a number but sits in no numeric lane.
        assert column_of(True, 2).rows_in_range({"gte": 0}) is None

    def test_prefix(self, store):
        column = column_of("/tmp/app.log", "/tmp/db/wal", "/var/log/x", 3)
        assert list(column.rows_with_prefix("/tmp/")) == [0, 1]
        assert list(column.rows_with_prefix("/var")) == [2]
        assert list(column.rows_with_prefix("")) == [0, 1, 2]
        store.bulk("idx", [{"f": "/tmp/a"}, {"f": 3}])
        plan = _plan(store, "idx", {"prefix": {"f": 3}})
        assert plan.mode == "fullscan"        # the predicate decides

    def test_value_equal_classes_match_each_other(self):
        column = column_of(1, 1.0, True, "1", 2)
        for value in (1, 1.0, True):
            assert list(column.rows_equal([value])) == [0, 1, 2]
        assert list(column.rows_equal(["1", 2.0])) == [3, 4]


@pytest.fixture()
def store():
    return DocumentStore()


def _plan(store, index, query):
    return store._index(index).plan(query)


def _ids(store, index, plan):
    """The plan's rows as the doc ids they address."""
    doc_ids = store._index(index).columns.doc_ids
    return {doc_ids[row] for row in plan.rows}


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
        assert _ids(store, "idx", plan) == {"1", "3"}

    def test_match_all_is_exact_universe(self, store):
        self.seed(store)
        plan = _plan(store, "idx", {"match_all": {}})
        assert plan.exact and plan.rows is None

    def test_range_is_exact(self, store):
        self.seed(store)
        plan = _plan(store, "idx", {"range": {"time": {"gte": 15, "lte": 30}}})
        assert plan.exact
        assert plan.rows == range(1, 3)      # bisect on the sorted lane
        assert _ids(store, "idx", plan) == {"2", "3"}

    def test_prefix_is_exact(self, store):
        self.seed(store)
        plan = _plan(store, "idx", {"prefix": {"path": "/tmp/"}})
        assert plan.exact
        assert _ids(store, "idx", plan) == {"1", "2"}

    def test_exists_is_exact(self, store):
        self.seed(store)
        plan = _plan(store, "idx", {"exists": {"field": "path"}})
        assert plan.exact
        assert _ids(store, "idx", plan) == {"1", "2", "3"}

    def test_bool_must_intersects(self, store):
        self.seed(store)
        plan = _plan(store, "idx", {"bool": {"must": [
            {"term": {"syscall": "read"}},
            {"range": {"time": {"gte": 20}}},
        ]}})
        assert plan.exact
        assert _ids(store, "idx", plan) == {"3"}
        assert list(plan.rows) == [2]         # range ∩ postings: a slice

    def test_must_not_prunes_but_rechecks(self, store):
        self.seed(store)
        plan = _plan(store, "idx", {"bool": {
            "must": [{"term": {"syscall": "read"}}],
            "must_not": [{"range": {"time": {"gte": 25}}}],
        }})
        assert not plan.exact and plan.mode == "pruned"
        assert _ids(store, "idx", plan) == {"1", "3"}

    def test_should_union_is_exact(self, store):
        self.seed(store)
        plan = _plan(store, "idx", {"bool": {"should": [
            {"term": {"syscall": "write"}},
            {"term": {"syscall": "close"}},
        ]}})
        assert plan.exact
        assert _ids(store, "idx", plan) == {"2", "4"}

    def test_minimum_should_match_two_rechecks(self, store):
        self.seed(store)
        plan = _plan(store, "idx", {"bool": {
            "should": [{"term": {"syscall": "read"}},
                       {"range": {"time": {"lt": 25}}}],
            "minimum_should_match": 2,
        }})
        assert not plan.exact
        assert _ids(store, "idx", plan) == {"1", "2", "3"}

    def test_wildcard_is_exact(self, store):
        self.seed(store)
        plan = _plan(store, "idx", {"wildcard": {"path": "/tmp/*"}})
        assert plan.exact
        assert _ids(store, "idx", plan) == {"1", "2"}
        plan = _plan(store, "idx", {"wildcard": {"path": {"value": "*.?og"}}})
        assert plan.exact
        assert _ids(store, "idx", plan) == set()

    def test_wildcard_falls_back_to_fullscan(self, store):
        # Only a string pattern is read off the dictionary; anything
        # else is the predicate's to judge (or to reject).
        self.seed(store)
        plan = _plan(store, "idx", {"wildcard": {"path": 7}})
        assert plan.mode == "fullscan"
        assert plan.rows is None

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
        assert _ids(store, "idx", plan) == {"1", "2", "3"}

    def test_plan_repr_modes(self):
        assert QueryPlan([0], True).mode == "exact"
        assert QueryPlan(range(2), False).mode == "pruned"
        assert QueryPlan(None, False).mode == "fullscan"


class TestStorePlanTelemetry:
    def test_plan_counts_accumulate(self, store):
        store.bulk("idx", [{"k": i, "t": i * 10} for i in range(20)])
        store.search("idx", query={"term": {"k": 3}})
        store.search("idx", query={"range": {"t": {"gte": 100}}})
        store.search("idx", query={"term": {"k": None}})
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
        store.bulk("idx", [{"file_tag": "t", "file_path": "old"}])
        store.search("idx", query={"term": {"file_path": "old"}})
        store.set_paths("idx", {"t": "new"})
        assert store.count("idx", {"term": {"file_path": "old"}}) == 0
        assert store.count("idx", {"term": {"file_path": "new"}}) == 1
        assert store.count("idx", {"exists": {"field": "file_path"}}) == 1

    def test_stream_matches_scan(self, store):
        # A pruned scan is the stream of all documents, filtered.
        store.bulk("idx", [{"k": i % 3} for i in range(30)])
        assert store.scan("idx", {"term": {"k": 1}}) == [
            pair for pair in store.scan("idx") if pair[1]["k"] == 1]
