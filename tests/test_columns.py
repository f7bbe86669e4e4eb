"""Unit tests for the columnar aggregation engine.

Covers the typed-column storage (dictionary codes, numeric kinds,
fidelity flags), the pushdown decision, kernel-vs-legacy equivalence on
hand-picked tricky shapes, the aggregation result cache, and the
``size=0`` no-materialisation guarantee.  The broad randomised
equivalence sweep lives in ``tests/test_property_aggregations.py``.
"""

import json

import pytest

from repro.backend import DocumentStore, naive_aggregate, run_aggregations
from repro.backend.columns import Column, ColumnSet
from repro.backend.store import StoreError


@pytest.fixture()
def store():
    return DocumentStore()


def canon(payload):
    return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# Column storage


class TestColumn:
    def test_dictionary_codes_round_trip(self):
        col = Column("f")
        for value in ("a", "b", "a", None, "c", "b"):
            col.append(value)
        assert [col.table[c] if c >= 0 else None for c in col.codes] == \
            ["a", "b", "a", None, "c", "b"]
        assert len(col.table) == 3

    def test_value_equal_types_get_distinct_codes(self):
        col = Column("f")
        col.append(1)
        col.append(1.0)
        col.append(True)
        assert len(col.table) == 3
        assert col.collisions  # a raw-value dict would merge these

    def test_unhashable_values_flagged(self):
        col = Column("f")
        col.append(["a", "b"])
        assert col.unencodable == 1
        assert col.codes == [-2]

    def test_numeric_kind_promotions(self):
        col = Column("f")
        col.append(1)
        assert col.num_kind == "q"
        col.append(2.5)                     # int column sees a float
        assert col.num_kind == "obj"
        assert col.gather_numeric(range(2)) == [1, 2.5]

    def test_int_beyond_int64_stays_an_exact_int(self):
        col = Column("f")
        col.append(3)
        col.append(1 << 70)
        assert col.num_kind == "q"
        assert col.gather_numeric(range(2)) == [3, 1 << 70]
        col.append(-(1 << 70))
        col.append(2.5)                     # only a float mixes the kinds
        assert col.num_kind == "obj"

    def test_float_column_stays_typed(self):
        col = Column("f")
        col.append(1.5)
        col.append(-2.25)
        assert col.num_kind == "d"
        assert col.gather_numeric(range(2)) == [1.5, -2.25]

    def test_bools_are_not_numeric(self):
        col = Column("f")
        col.append(True)
        assert col.num_kind is None
        assert col.gather_numeric(range(1)) == []

    def test_simple_flag(self):
        col = Column("f")
        col.append("x")
        col.append(3)
        col.append(False)
        assert col.simple
        col.append(1.5)
        assert not col.simple

    def test_sorted_flag_tracks_row_order(self):
        col = Column("t")
        for value in (10, 20, 20, 35):
            col.append(value)
        assert col.num_sorted
        col.append(5)
        assert not col.num_sorted

    def test_rewrite_below_frontier_drops_sorted_flag(self):
        col = Column("t")
        col.append(10)
        col.append(20)
        col.set(0, 15)
        assert not col.num_sorted

    def test_nan_drops_sorted_flag(self):
        col = Column("t")
        col.append(1.0)
        col.append(float("nan"))
        assert not col.num_sorted


class TestColumnSet:
    def test_lazy_build_then_incremental(self):
        docs = {"1": {"f": "a"}, "2": {"f": "b"}}
        cols = ColumnSet()
        for doc_id, source in docs.items():
            cols.note_put(doc_id, source)
        col = cols.ensure_column("f", docs)
        assert [col.table[c] for c in col.codes] == ["a", "b"]
        cols.note_put("3", {"f": "a"})
        assert len(col.codes) == 3

    def test_delete_and_overwrite(self):
        cols = ColumnSet()
        cols.note_put("1", {"f": "a"})
        cols.note_put("2", {"f": "b"})
        cols.ensure_column("f", {"1": {"f": "a"}, "2": {"f": "b"}})
        cols.note_put("2", {"f": "c"})
        # Append-only: an overwrite keeps the row, every row is live.
        assert cols.all_rows() == range(2)
        col = cols.ensure_column("f", {})
        assert col.table[col.codes[1]] == "c"

    def test_refresh_respects_field_filter(self):
        cols = ColumnSet()
        cols.note_put("1", {"f": "a", "g": 1})
        docs = {"1": {"f": "a", "g": 1}}
        f_col = cols.ensure_column("f", docs)
        g_col = cols.ensure_column("g", docs)
        source = {"f": "changed", "g": 2}
        cols.note_refresh("1", source, fields=("g",))
        assert f_col.table[f_col.codes[0]] == "a"      # untouched
        assert g_col.gather_numeric([0]) == [2]

    def test_dotted_field_prefix_refresh(self):
        cols = ColumnSet()
        cols.note_put("1", {"args": {"fd": 3}})
        col = cols.ensure_column("args.fd", {"1": {"args": {"fd": 3}}})
        cols.note_refresh("1", {"args": {"fd": 9}}, fields=("args",))
        assert col.gather_numeric([0]) == [9]


# ---------------------------------------------------------------------------
# Pushdown decision


class TestSupports:
    def docs(self, sources):
        """``(columns, lookup)``: the lookup builds a column from the
        documents, as ``Index.column`` does."""
        cols = ColumnSet()
        docs = {}
        for i, source in enumerate(sources):
            doc_id = str(i)
            docs[doc_id] = source
            cols.note_put(doc_id, source)
        return cols, lambda field: cols.ensure_column(field, docs)

    def test_simple_terms_supported(self):
        cols, lookup = self.docs([{"f": "a"}, {"f": "b"}])
        assert cols.supports({"t": {"terms": {"field": "f"}}}, lookup)

    def test_malformed_shapes_refused(self):
        cols, lookup = self.docs([{"f": "a"}])
        for aggs in (None, {}, {"t": "nope"}, {"t": {}},
                     {"t": {"terms": {"field": "f"}, "histogram": {}}},
                     {"t": {"mystery": {"field": "f"}}},
                     {"t": {"terms": {"field": ""}}},
                     {"t": {"terms": {}}}):
            assert not cols.supports(aggs, lookup)

    def test_terms_with_collisions_refused(self):
        cols, lookup = self.docs([{"f": 1}, {"f": 1.0}])
        assert not cols.supports({"t": {"terms": {"field": "f"}}}, lookup)

    def test_terms_with_unencodable_refused(self):
        cols, lookup = self.docs([{"f": ["x"]}])
        assert not cols.supports({"t": {"terms": {"field": "f"}}}, lookup)

    def test_histogram_needs_positive_numeric_interval(self):
        cols, lookup = self.docs([{"n": 5}])
        for interval in (0, -3, "10", True, None):
            assert not cols.supports(
                {"h": {"histogram": {"field": "n", "interval": interval}}},
                lookup)
        assert cols.supports(
            {"h": {"histogram": {"field": "n", "interval": 2}}}, lookup)

    def test_histogram_over_mixed_column_refused(self):
        cols, lookup = self.docs([{"n": 5}, {"n": 2.5}])
        assert not cols.supports(
            {"h": {"histogram": {"field": "n", "interval": 2}}}, lookup)

    def test_cardinality_needs_repr_safe_values(self):
        cols, lookup = self.docs([{"f": 1.5}])
        assert not cols.supports(
            {"c": {"cardinality": {"field": "f"}}}, lookup)
        cols2, lookup2 = self.docs([{"f": "a"}, {"f": 2}])
        assert cols2.supports({"c": {"cardinality": {"field": "f"}}}, lookup2)

    def test_metric_cannot_nest(self):
        cols, lookup = self.docs([{"n": 1}])
        assert not cols.supports(
            {"m": {"sum": {"field": "n"},
                   "aggs": {"x": {"sum": {"field": "n"}}}}}, lookup)

    def test_nested_decision_recurses(self):
        cols, lookup = self.docs([{"f": "a", "n": ["bad"]}])
        assert not cols.supports(
            {"t": {"terms": {"field": "f"},
                   "aggs": {"u": {"terms": {"field": "n"}}}}}, lookup)


# ---------------------------------------------------------------------------
# Kernels vs legacy on hand-picked shapes


class TestKernelEquivalence:
    CASES = [
        # negative values: floor-division bucket keys
        ([{"n": -7}, {"n": -1}, {"n": 0}, {"n": 3}, {"n": 9}],
         {"h": {"histogram": {"field": "n", "interval": 4}}}),
        # terms tie-breaking: equal counts order by str(key)
        ([{"f": "b"}, {"f": "a"}, {"f": "c"}, {"f": "a"},
          {"f": "c"}, {"f": "b"}],
         {"t": {"terms": {"field": "f", "size": 2}}}),
        # missing and null values skipped everywhere
        ([{"f": "a", "n": 1}, {"f": None}, {}, {"f": "a"}, {"n": 2}],
         {"t": {"terms": {"field": "f"},
                "aggs": {"s": {"stats": {"field": "n"}}}}}),
        # int terms keys, cardinality and percentiles leaves
        ([{"tid": t % 3, "lat": t * 7 % 13} for t in range(40)],
         {"t": {"terms": {"field": "tid"},
                "aggs": {"card": {"cardinality": {"field": "lat"}},
                         "pct": {"percentiles": {"field": "lat",
                                                 "percents": [50, 99]}}}}}),
        # date_histogram over unsorted times (scalar kernel path)
        ([{"time": t, "p": f"p{t % 2}"} for t in (5, 1, 9, 3, 7, 2)],
         {"h": {"date_histogram": {"field": "time", "fixed_interval": 3},
                "aggs": {"by": {"terms": {"field": "p"}}}}}),
        # empty metric results
        ([{"f": "a"}],
         {"s": {"sum": {"field": "zzz"}}, "a": {"avg": {"field": "zzz"}},
          "p": {"percentiles": {"field": "zzz"}},
          "st": {"stats": {"field": "zzz"}}}),
    ]

    @pytest.mark.parametrize("docs,aggs", CASES)
    def test_pushdown_matches_legacy(self, store, docs, aggs):
        store.bulk("ev", [dict(d) for d in docs])
        response = store.search("ev", size=0, aggs=aggs)
        expected = run_aggregations(aggs, [dict(d) for d in docs])
        assert canon(response["aggregations"]) == canon(expected)
        stats = store.agg_stats()
        assert stats["pushdowns"] == 1 and stats["fallbacks"] == 0

    def test_sorted_bisect_path_matches_scalar(self, store):
        # monotone times take the bisect bucketiser ...
        docs = [{"time": t * t, "p": f"p{t % 3}"} for t in range(50)]
        store.bulk("ev", docs)
        aggs = {"h": {"date_histogram": {"field": "time",
                                         "fixed_interval": 100},
                      "aggs": {"by": {"terms": {"field": "p"}}}}}
        response = store.search("ev", size=0, aggs=aggs)
        assert store._index("ev").columns._columns["time"].num_sorted
        expected = naive_aggregate(store._index("ev"), None, aggs)
        assert canon(response["aggregations"]) == canon(expected)

    def test_filtered_query_pushdown(self, store):
        docs = [{"time": t, "p": f"p{t % 4}", "n": t % 5}
                for t in range(60)]
        store.bulk("ev", docs)
        query = {"range": {"time": {"gte": 10, "lt": 45}}}
        aggs = {"t": {"terms": {"field": "p"},
                      "aggs": {"s": {"sum": {"field": "n"}}}}}
        response = store.search("ev", query=query, size=0, aggs=aggs)
        expected = naive_aggregate(store._index("ev"), query, aggs)
        assert canon(response["aggregations"]) == canon(expected)
        assert store.agg_stats()["pushdowns"] == 1

    def test_unsupported_shape_falls_back_identically(self, store):
        store.bulk("ev", [{"f": 1}, {"f": 1.0}, {"f": True}, {"f": 1}])
        aggs = {"t": {"terms": {"field": "f"}}}
        response = store.search("ev", size=0, aggs=aggs)
        expected = run_aggregations(
            aggs, [{"f": 1}, {"f": 1.0}, {"f": True}, {"f": 1}])
        assert canon(response["aggregations"]) == canon(expected)
        stats = store.agg_stats()
        assert stats["fallbacks"] == 1 and stats["pushdowns"] == 0

    def test_pushdown_after_update_and_delete(self, store):
        for i in range(10):
            store.index_doc("ev", {"p": "a", "n": i}, doc_id=f"d{i}")
        aggs = {"t": {"terms": {"field": "p"},
                      "aggs": {"s": {"sum": {"field": "n"}}}}}
        store.search("ev", size=0, aggs=aggs)     # builds columns
        store.index_doc("ev", {"p": "b", "n": 100}, doc_id="d5")
        response = store.search("ev", size=0, aggs=aggs)
        expected = naive_aggregate(store._index("ev"), None, aggs)
        assert canon(response["aggregations"]) == canon(expected)


# ---------------------------------------------------------------------------
# Aggregation result cache


class TestAggCache:
    AGGS = {"t": {"terms": {"field": "p"}}}

    def test_repeat_refresh_hits_cache(self, store):
        store.bulk("ev", [{"p": "a"}, {"p": "b"}])
        first = store.search("ev", size=0, aggs=self.AGGS)
        second = store.search("ev", size=0, aggs=self.AGGS)
        assert canon(first) == canon(second)
        stats = store.agg_stats()
        assert stats["cache_hits"] == 1 and stats["cache_misses"] == 1
        assert stats["pushdowns"] == 1    # kernels ran once

    def test_mutation_invalidates(self, store):
        store.bulk("ev", [{"p": "a"}])
        store.search("ev", size=0, aggs=self.AGGS)
        store.index_doc("ev", {"p": "b"})
        response = store.search("ev", size=0, aggs=self.AGGS)
        keys = [b["key"]
                for b in response["aggregations"]["t"]["buckets"]]
        assert keys == ["a", "b"]
        assert store.agg_stats()["cache_hits"] == 0

    def test_cached_response_is_isolated(self, store):
        store.bulk("ev", [{"p": "a"}])
        first = store.search("ev", size=0, aggs=self.AGGS)
        first["aggregations"]["t"]["buckets"][0]["key"] = "tampered"
        second = store.search("ev", size=0, aggs=self.AGGS)
        assert second["aggregations"]["t"]["buckets"][0]["key"] == "a"

    def test_non_json_aggs_key_via_repr(self, store):
        # ``default=repr`` keys cover spec dicts holding arbitrary
        # objects: identical objects hit, distinct objects cannot
        # collide (their reprs carry identity).
        store.bulk("ev", [{"p": "a"}])
        aggs = {"t": {"terms": {"field": "p", "size": 10,
                                "_marker": object()}}}
        first = store.search("ev", size=0, aggs=aggs)
        second = store.search("ev", size=0, aggs=aggs)
        assert canon(first) == canon(second)
        assert store.agg_stats()["cache_hits"] == 1

    def test_unserialisable_key_skips_cache(self, store):
        store.bulk("ev", [{"p": "a"}])
        aggs = {"t": {"terms": {"field": "p", "size": 10,
                                "_marker": {("tu", "ple"): 1}}}}
        store.search("ev", size=0, aggs=aggs)
        store.search("ev", size=0, aggs=aggs)
        stats = store.agg_stats()
        assert stats["cache_hits"] == 0 and stats["cache_misses"] == 0


# ---------------------------------------------------------------------------
# size=0 never materialises hits


class TestNoMaterialization:
    AGGS = {"t": {"terms": {"field": "p"},
                  "aggs": {"s": {"sum": {"field": "n"}}}}}

    def _spy_scan(self, store, index):
        """Calls of ``Index.sources`` — the one place a search reads
        documents (``pairs`` builds its hits through it)."""
        calls = []
        target = store._index(index)
        original = target.sources
        target.sources = lambda *a, **k: calls.append(1) or original(*a, **k)
        return calls

    def test_agg_only_search_never_scans(self, store):
        store.bulk("ev", [{"p": "a", "n": 1}, {"p": "b", "n": 2}])
        calls = self._spy_scan(store, "ev")
        response = store.search("ev", size=0, aggs=self.AGGS)
        assert response["hits"]["hits"] == []
        assert response["hits"]["total"]["value"] == 2
        assert not calls                  # no hit tuples, no _source list
        assert store.agg_stats()["pushdowns"] == 1

    def test_count_only_size0_never_scans(self, store):
        store.bulk("ev", [{"p": "a"}, {"p": "b"}])
        calls = self._spy_scan(store, "ev")
        response = store.search("ev", size=0,
                                query={"term": {"p": "a"}})
        assert response["hits"]["total"]["value"] == 1
        assert not calls

    def test_cached_repeat_never_scans(self, store):
        store.bulk("ev", [{"p": "a", "n": 1}])
        store.search("ev", size=0, aggs=self.AGGS)
        calls = self._spy_scan(store, "ev")
        store.search("ev", size=0, aggs=self.AGGS)
        assert not calls

    def test_fallback_still_scans_and_counts(self, store):
        store.bulk("ev", [{"p": 1}, {"p": 1.0}])
        calls = self._spy_scan(store, "ev")
        store.search("ev", size=0, aggs={"t": {"terms": {"field": "p"}}})
        assert calls                      # legacy path needs sources

    def test_size0_with_sort_keeps_legacy_validation(self, store):
        store.bulk("ev", [{"p": "a"}])
        with pytest.raises(StoreError):
            store.search("ev", size=0, sort=[42],
                         aggs={"t": {"terms": {"field": "p"}}})
