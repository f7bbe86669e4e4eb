"""Property tests: columnar kernels vs the legacy dict-walking oracle.

Every generated request is executed twice — once through
``store.search(size=0, aggs=...)`` (columnar pushdown, or fallback if
the engine declines) and once through :func:`naive_aggregate` (full
scan + ``run_aggregations``, no planner / columns / cache anywhere).
The responses must be byte-identical after a canonical JSON dump: the
columnar engine is not allowed to differ in bucket order, tie-breaking,
float arithmetic, or missing-value handling.

Documents deliberately mix types per field (ints, floats, strings,
bools, None, absent, lists), values go negative (histogram keys floor
toward -inf), and nested aggregations stack buckets inside buckets.

The same strategies then run against :class:`ShardedDocumentStore` at
2-3 shards under every shard key: the coordinator merges per-shard
partials through the same ``ColumnSet.merge`` the single store uses
(or gathers when the merge declines), and must equal the oracle too.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import (DocumentStore, ShardedDocumentStore,
                           naive_aggregate)
from repro.backend.router import SHARD_KEYS

# --- document strategies ----------------------------------------------------

#: Few distinct values per field → plenty of count ties, so terms
#: tie-breaking (stable sort by -count then str(key)) is exercised.
_terms_values = st.one_of(
    st.sampled_from(["read", "write", "open", "wal.log"]),
    st.integers(min_value=-3, max_value=3),
    st.booleans(),
    st.none(),
)
_numeric_values = st.one_of(
    st.integers(min_value=-500, max_value=500),
    st.floats(min_value=-500, max_value=500,
              allow_nan=False, allow_infinity=False),
    st.none(),
)
_messy_values = st.one_of(
    _terms_values,
    _numeric_values,
    st.lists(st.integers(min_value=0, max_value=3), max_size=2),
)

documents = st.fixed_dictionaries(
    {},
    optional={
        "group": _terms_values,
        "n": _numeric_values,
        "time": st.integers(min_value=-10_000, max_value=10_000),
        "messy": _messy_values,
    })

# --- aggregation strategies -------------------------------------------------

_fields = st.sampled_from(["group", "n", "time", "messy", "absent",
                           "file_path"])

_metric = st.one_of(
    st.fixed_dictionaries({
        "kind": st.sampled_from(["sum", "avg", "min", "max", "stats",
                                 "value_count", "cardinality"]),
        "field": _fields}),
    st.fixed_dictionaries({
        "kind": st.just("percentiles"),
        "field": _fields,
        "percents": st.lists(
            st.integers(min_value=0, max_value=100), min_size=1,
            max_size=3)}),
)

_bucket = st.one_of(
    st.fixed_dictionaries({
        "kind": st.just("terms"),
        "field": _fields,
        "size": st.integers(min_value=1, max_value=5)}),
    st.fixed_dictionaries({
        "kind": st.sampled_from(["histogram", "date_histogram"]),
        "field": st.sampled_from(["n", "time", "messy"]),
        "interval": st.sampled_from([1, 3, 7, 100, 2.5])}),
)


def _spec(shape: dict, nested=None) -> dict:
    kind = shape["kind"]
    body = {"field": shape["field"]}
    if kind == "terms":
        body["size"] = shape["size"]
    elif kind in ("histogram", "date_histogram"):
        key = "fixed_interval" if kind == "date_histogram" else "interval"
        body[key] = shape["interval"]
    elif kind == "percentiles":
        body["percents"] = shape["percents"]
    spec = {kind: body}
    if nested:
        spec["aggs"] = nested
    return spec


#: One or two top-level aggregations; buckets may nest a bucket that
#: nests metrics, so partitions of partitions get exercised.
aggs_requests = st.builds(
    lambda outer, inner, leaf: {
        "a0": _spec(outer, {"a1": _spec(inner, {"a2": _spec(leaf)})}),
        "m0": _spec(leaf),
    },
    outer=_bucket, inner=_bucket, leaf=_metric)

simple_requests = st.builds(
    lambda shape, leaf: {"a0": _spec(shape, {"m": _spec(leaf)})},
    shape=_bucket, leaf=_metric)


def canon(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _assert_equivalent(store, query, aggs):
    """The search path mirrors the oracle — result or exception.

    Some generated requests legitimately raise (a terms aggregation
    over unhashable list values raises ``TypeError`` on the legacy
    path); the columnar store must then raise the same exception type,
    which it does by declining pushdown and falling back.  Returns the
    response (or ``None`` when both raised).
    """
    oracle = (store.oracle_index("ev")
              if isinstance(store, ShardedDocumentStore)
              else store._index("ev"))
    try:
        expected = naive_aggregate(oracle, query, aggs)
    except Exception as exc:
        with pytest.raises(type(exc)):
            store.search("ev", query=query, size=0, aggs=aggs)
        return None
    response = store.search("ev", query=query, size=0, aggs=aggs)
    assert canon(response["aggregations"]) == canon(expected)
    return response


def _seeded(docs):
    store = DocumentStore()
    store.create_index("ev")
    store.bulk("ev", [dict(d) for d in docs])
    return store


class TestColumnarEquivalence:
    @given(docs=st.lists(documents, max_size=60), aggs=simple_requests)
    @settings(max_examples=120, deadline=None)
    def test_single_level_matches_oracle(self, docs, aggs):
        _assert_equivalent(_seeded(docs), None, aggs)

    @given(docs=st.lists(documents, max_size=40), aggs=aggs_requests)
    @settings(max_examples=120, deadline=None)
    def test_nested_matches_oracle(self, docs, aggs):
        _assert_equivalent(_seeded(docs), None, aggs)

    @given(docs=st.lists(documents, min_size=1, max_size=40),
           aggs=simple_requests, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equivalence_survives_mutation(self, docs, aggs, data):
        """Columns built before a path table agree with a fresh oracle
        scan after it."""
        store = DocumentStore()
        for at, doc in enumerate(docs):
            store.bulk("ev", [dict(doc, file_tag=f"t{at % 3}")])
        try:
            store.search("ev", size=0, aggs=aggs)  # build columns
        except Exception:
            pass                                   # oracle-shaped error
        store.set_paths("ev", data.draw(st.dictionaries(
            st.sampled_from(["t0", "t1"]), _messy_values)))
        _assert_equivalent(store, None, aggs)

    @given(docs=st.lists(documents, max_size=60),
           aggs=simple_requests,
           lo=st.integers(min_value=-5_000, max_value=5_000),
           span=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_filtered_requests_match_oracle(self, docs, aggs, lo, span):
        query = {"range": {"time": {"gte": lo, "lt": lo + span}}}
        _assert_equivalent(_seeded(docs), query, aggs)

    @given(docs=st.lists(documents, max_size=40), aggs=simple_requests)
    @settings(max_examples=40, deadline=None)
    def test_repeat_is_cache_stable(self, docs, aggs):
        store = _seeded(docs)
        response = _assert_equivalent(store, None, aggs)
        if response is not None:
            again = store.search("ev", size=0, aggs=aggs)
            assert canon(response) == canon(again)


# --- the same requests through the shard coordinator ------------------------

#: Routing fields on top of the messy documents, so every shard key
#: spreads them: ``pid`` and ``file_tag`` may be absent (shard 0) and
#: ``time`` already ranges over twenty 1000-wide windows.
routed_documents = st.builds(
    lambda doc, routing: {**doc, **routing},
    documents,
    st.fixed_dictionaries({}, optional={
        "pid": st.integers(min_value=1, max_value=6),
        "file_tag": st.sampled_from(["/a", "/b", "/c", "/d"]),
    }))

layouts = st.tuples(st.sampled_from([2, 3]), st.sampled_from(SHARD_KEYS))


def _sharded(docs, layout):
    shard_count, shard_key = layout
    store = ShardedDocumentStore(shard_count=shard_count,
                                 shard_key=shard_key, time_window_ns=1_000)
    store.ensure_index("ev")
    store.bulk("ev", [dict(d) for d in docs])
    return store


class TestShardedEquivalence:
    @given(docs=st.lists(routed_documents, max_size=60),
           aggs=simple_requests, layout=layouts)
    @settings(max_examples=120, deadline=None)
    def test_single_level_matches_oracle(self, docs, aggs, layout):
        _assert_equivalent(_sharded(docs, layout), None, aggs)

    @given(docs=st.lists(routed_documents, max_size=40),
           aggs=aggs_requests, layout=layouts)
    @settings(max_examples=120, deadline=None)
    def test_nested_matches_oracle(self, docs, aggs, layout):
        _assert_equivalent(_sharded(docs, layout), None, aggs)

    @given(docs=st.lists(routed_documents, max_size=60),
           aggs=simple_requests, layout=layouts,
           lo=st.integers(min_value=-5_000, max_value=5_000),
           span=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_filtered_requests_match_oracle(self, docs, aggs, layout,
                                            lo, span):
        query = {"range": {"time": {"gte": lo, "lt": lo + span}}}
        _assert_equivalent(_sharded(docs, layout), query, aggs)

    @given(docs=st.lists(routed_documents, min_size=1, max_size=40),
           aggs=aggs_requests, layout=layouts, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equivalence_survives_a_write_between_repeats(
            self, docs, aggs, layout, data):
        """Per-shard partials cached by the first request serve the
        second for every shard the write did not touch."""
        store = _sharded(docs, layout)
        _assert_equivalent(store, None, aggs)
        store.bulk("ev", [dict(data.draw(routed_documents))])
        _assert_equivalent(store, None, aggs)
