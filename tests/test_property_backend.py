"""Property-based tests: query DSL, aggregations, store invariants."""

import json
import math

from hypothesis import given, settings, strategies as st

from repro.backend import DocumentStore, compile_query
from repro.backend.aggregations import percentile, run_aggregations
from tests.event_oracle import Event

# --- document strategies ----------------------------------------------------

field_values = st.one_of(
    st.integers(min_value=-1_000, max_value=1_000),
    st.sampled_from(["read", "write", "open", "close"]),
    st.booleans(),
)
documents = st.fixed_dictionaries({
    "syscall": st.sampled_from(["read", "write", "open", "close"]),
    "ret": st.integers(min_value=-40, max_value=4096),
    "tid": st.integers(min_value=1, max_value=8),
    "time": st.integers(min_value=0, max_value=10_000),
})


class TestQueryProperties:
    @given(docs=st.lists(documents, max_size=40),
           value=st.sampled_from(["read", "write", "open", "close"]))
    @settings(max_examples=100, deadline=None)
    def test_term_query_equals_python_filter(self, docs, value):
        predicate = compile_query({"term": {"syscall": value}})
        assert [predicate(d) for d in docs] == [
            d["syscall"] == value for d in docs]

    @given(docs=st.lists(documents, max_size=40),
           lo=st.integers(min_value=-50, max_value=50),
           span=st.integers(min_value=0, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_range_query_equals_python_filter(self, docs, lo, span):
        hi = lo + span
        predicate = compile_query({"range": {"ret": {"gte": lo, "lt": hi}}})
        assert [predicate(d) for d in docs] == [
            lo <= d["ret"] < hi for d in docs]

    @given(docs=st.lists(documents, max_size=40), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_bool_must_is_conjunction(self, docs, data):
        value = data.draw(st.sampled_from(["read", "write"]))
        bound = data.draw(st.integers(min_value=-10, max_value=100))
        combined = compile_query({"bool": {"must": [
            {"term": {"syscall": value}},
            {"range": {"ret": {"gte": bound}}},
        ]}})
        left = compile_query({"term": {"syscall": value}})
        right = compile_query({"range": {"ret": {"gte": bound}}})
        for doc in docs:
            assert combined(doc) == (left(doc) and right(doc))

    @given(docs=st.lists(documents, max_size=40),
           value=st.sampled_from(["read", "write", "open", "close"]))
    @settings(max_examples=60, deadline=None)
    def test_must_not_is_complement(self, docs, value):
        positive = compile_query({"term": {"syscall": value}})
        negative = compile_query({"bool": {"must_not": [
            {"term": {"syscall": value}}]}})
        for doc in docs:
            assert positive(doc) != negative(doc)


class TestStoreProperties:
    @given(docs=st.lists(documents, max_size=40),
           value=st.sampled_from(["read", "write", "open", "close"]))
    @settings(max_examples=60, deadline=None)
    def test_inverted_index_matches_linear_scan(self, docs, value):
        """Term search (index-accelerated) == full-scan filtering."""
        store = DocumentStore()
        store.bulk("idx", [dict(d) for d in docs])
        hits = store.search("idx", query={"term": {"syscall": value}},
                            size=None)["hits"]["hits"]
        expected = [d for d in docs if d["syscall"] == value]
        assert sorted((h["_source"]["time"], h["_source"]["ret"])
                      for h in hits) == sorted(
            (d["time"], d["ret"]) for d in expected)

    @given(docs=st.lists(documents, min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_sort_and_pagination_partition_results(self, docs):
        store = DocumentStore()
        store.bulk("idx", [dict(d) for d in docs])
        page_size = 7
        collected = []
        offset = 0
        while True:
            hits = store.search("idx", sort=["time"], size=page_size,
                                from_=offset)["hits"]["hits"]
            if not hits:
                break
            collected.extend(h["_source"]["time"] for h in hits)
            offset += page_size
        assert collected == sorted(d["time"] for d in docs)


class TestAggregationProperties:
    @given(values=st.lists(st.integers(min_value=-10_000, max_value=10_000),
                           min_size=1, max_size=100),
           percent=st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=100, deadline=None)
    def test_percentile_within_bounds_and_monotone(self, values, percent):
        ordered = sorted(values)
        result = percentile(ordered, percent)
        assert min(values) <= result <= max(values)
        if percent >= 50:
            assert result >= percentile(ordered, percent / 2) - 1e-9

    @given(docs=st.lists(documents, min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_terms_buckets_partition_documents(self, docs):
        result = run_aggregations(
            {"by": {"terms": {"field": "syscall", "size": 10}}}, docs)
        buckets = result["by"]["buckets"]
        assert sum(b["doc_count"] for b in buckets) == len(docs)
        assert len({b["key"] for b in buckets}) == len(buckets)

    @given(docs=st.lists(documents, min_size=1, max_size=60),
           interval=st.integers(min_value=1, max_value=5_000))
    @settings(max_examples=60, deadline=None)
    def test_histogram_buckets_partition_and_align(self, docs, interval):
        result = run_aggregations(
            {"h": {"histogram": {"field": "time", "interval": interval}}},
            docs)
        buckets = result["h"]["buckets"]
        assert sum(b["doc_count"] for b in buckets) == len(docs)
        for bucket in buckets:
            assert bucket["key"] % interval == 0
        keys = [b["key"] for b in buckets]
        assert keys == sorted(keys)

    @given(docs=st.lists(documents, min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_stats_consistency(self, docs):
        result = run_aggregations({"s": {"stats": {"field": "ret"}}}, docs)
        stats = result["s"]
        values = [d["ret"] for d in docs]
        assert stats["count"] == len(values)
        assert stats["min"] == min(values)
        assert stats["max"] == max(values)
        assert math.isclose(stats["avg"], sum(values) / len(values))


class TestEventProperties:
    @given(syscall=st.sampled_from(["read", "write", "openat"]),
           args=st.dictionaries(
               st.sampled_from(["fd", "path", "flags", "data"]),
               st.one_of(st.integers(min_value=0, max_value=10_000),
                         st.text(max_size=20),
                         st.binary(max_size=50)),
               max_size=4),
           ret=st.integers(min_value=-40, max_value=100_000),
           times=st.tuples(st.integers(min_value=0, max_value=10**15),
                           st.integers(min_value=0, max_value=10**6)))
    @settings(max_examples=100, deadline=None)
    def test_doc_roundtrip_is_stable(self, syscall, args, ret, times):
        start, duration = times
        event = Event(syscall=syscall, args=args, ret=ret, pid=1, tid=2,
                      proc_name="p", time=start, time_exit=start + duration)
        doc = event.to_doc()
        assert Event.from_doc(doc).to_doc() == doc
        # Compact wire format round-trips to the exact same document
        # (no bytes leak in, no key reordering changes anything).
        assert Event.from_doc(json.loads(event.to_json())).to_doc() == doc
