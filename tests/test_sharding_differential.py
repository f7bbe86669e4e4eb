"""Hypothesis differential suite: sharded router vs the plain store.

The property under test is the router's whole contract: for *any*
document stream — mixed routing-key types, absent shard keys, unicode
tags, duplicate ids — a ``ShardedDocumentStore`` with *any* shard
count and shard key must be observably byte-identical to a single
``DocumentStore`` fed the same calls: same documents in the same
global order, same ids, same query answers, same aggregation
responses, and the same behaviour under mutations and a mid-stream
``rebalance``.  ``create_store(shard_count=1)`` *is* the
plain store, so shard count 1 is the anchored end of the axis.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import DocumentStore
from repro.backend.router import SHARD_KEYS, ShardedDocumentStore, create_store

SESSION = "shard-diff"

INDEXED = ("syscall", "proc_name", "pid", "tid", "file_tag", "session",
           "time")

SHARD_COUNTS = (1, 2, 3)

# --- document strategies ----------------------------------------------------

syscalls = st.sampled_from(["read", "write", "open", "close", "fsync"])

#: Routing-key values deliberately cross type boundaries: 3, 3.0 and
#: True must land on the same shard (the store treats them as equal
#: terms, so the router must too); 2.5 floors to 2's shard and the
#: string "3" lives on shard 0.
pids = st.one_of(st.integers(min_value=1, max_value=5),
                 st.sampled_from([3.0, True, 2.5, "3"]))

file_tags = st.one_of(st.none(),
                      st.sampled_from(["/a", "/b", "/c/д", "/dev/null"]))

docs = st.builds(
    dict,
    syscall=syscalls,
    pid=pids,
    tid=st.integers(min_value=1, max_value=4),
    proc_name=st.sampled_from(["app", "worker", "журнал"]),
    time=st.integers(min_value=0, max_value=10 ** 10),
    duration_ns=st.integers(min_value=0, max_value=10 ** 6),
    ret=st.integers(min_value=-40, max_value=100),
    file_tag=file_tags,
    session=st.just(SESSION),
)


def drop_absent(doc):
    """Docs without a file_tag lack the key entirely — the router must
    route those through its absent-key bucket, not crash."""
    if doc["file_tag"] is None:
        del doc["file_tag"]
    return doc


batches = st.lists(docs.map(drop_absent), max_size=25)

shard_counts = st.sampled_from(SHARD_COUNTS)
shard_keys = st.sampled_from(SHARD_KEYS)


def build_pair(batch_list, shard_count, shard_key):
    """A plain store and a sharded store fed identical bulk streams."""
    single = DocumentStore()
    sharded = create_store(shard_count=shard_count, shard_key=shard_key,
                           time_window_ns=1_000)
    for store in (single, sharded):
        store.ensure_index("idx", indexed_fields=INDEXED)
        for batch in batch_list:
            store.bulk("idx", [dict(d) for d in batch])
    return single, sharded


def assert_observably_identical(single, sharded, queries=(None,)):
    for query in queries:
        assert single.count("idx", query) == sharded.count("idx", query), query
        lhs = list(single.scan("idx", query))
        rhs = list(sharded.scan("idx", query))
        assert (json.dumps(lhs, sort_keys=False, default=str)
                == json.dumps(rhs, sort_keys=False, default=str)), query


class TestShardedEquivalence:
    @given(batch_list=st.lists(batches, max_size=3),
           shard_count=shard_counts, shard_key=shard_keys)
    @settings(max_examples=50, deadline=None)
    def test_scan_is_byte_identical(self, batch_list, shard_count,
                                    shard_key):
        single, sharded = build_pair(batch_list, shard_count, shard_key)
        assert_observably_identical(single, sharded)

    @given(batch=batches, shard_count=shard_counts, shard_key=shard_keys,
           data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_queries_sorts_and_aggs_agree(self, batch, shard_count,
                                          shard_key, data):
        single, sharded = build_pair([batch], shard_count, shard_key)
        syscall = data.draw(syscalls)
        # Half the time a pid the batch holds, so a routed term has
        # matches to miss.
        pid = data.draw(st.one_of(
            pids, st.sampled_from([d["pid"] for d in batch] or [1])))
        lo = data.draw(st.integers(min_value=0, max_value=10 ** 10))
        pid_lo = data.draw(st.integers(min_value=0, max_value=5))
        time = data.draw(st.sampled_from([d["time"] for d in batch] or [0]))
        # Every pid the batch holds, too, in both term forms: on a
        # pid-keyed router each has matches on the shard it routes to.
        held = list(dict.fromkeys(
            (type(d["pid"]), d["pid"]) for d in batch))
        queries = [
            None,
            {"term": {"syscall": syscall}},
            # Routed on the key they name: one rule for both keys.
            {"term": {"pid": pid}},
            {"term": {"pid": {"value": pid}}},
            *({"term": {"pid": value}} for _, value in held),
            *({"term": {"pid": {"value": value}}} for _, value in held),
            {"range": {"pid": {"gte": pid_lo, "lt": pid_lo + 2}}},
            {"term": {"time": time}},
            {"range": {"time": {"gte": time - 500, "lte": time + 1_500}}},
            {"range": {"time": {"gte": lo}}},
            {"bool": {"must": [{"term": {"session": SESSION}}],
                      "must_not": [{"term": {"syscall": syscall}}]}},
        ]
        assert_observably_identical(single, sharded, queries)
        aggs = {
            "per_syscall": {"terms": {"field": "syscall", "size": 10}},
            "latency": {"stats": {"field": "duration_ns"}},
            "p95": {"percentiles": {"field": "duration_ns",
                                    "percents": [50, 95]}},
        }
        sorts = [None, ["time"],
                 [{"time": {"order": "desc"}}, {"pid": {"order": "asc"}}]]
        for query in queries:
            for sort in sorts:
                lhs = single.search("idx", query, sort=sort, size=7,
                                    aggs=aggs)
                rhs = sharded.search("idx", query, sort=sort, size=7,
                                     aggs=aggs)
                assert (json.dumps(lhs, sort_keys=True, default=str)
                        == json.dumps(rhs, sort_keys=True, default=str)), (
                            query, sort)

    @given(batch=batches, shard_count=shard_counts, shard_key=shard_keys,
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_mutations_and_deletes_agree(self, batch, shard_count,
                                         shard_key, data):
        single, sharded = build_pair([batch], shard_count, shard_key)
        tables = st.dictionaries(file_tags, st.sampled_from(
            ["/resolved", "/moved"]))
        first, second = data.draw(tables), data.draw(tables)
        extra = {"syscall": "late", "session": SESSION, "time": 1,
                 "pid": 1, "tid": 1, "proc_name": "tail",
                 "duration_ns": 5, "ret": 0, "file_tag": "/a"}
        # An index is append-only: its one annotation is the path
        # table, which every shard applies to its own rows.
        for store in (single, sharded):
            store.bulk("idx", [dict(extra)])
            store.set_paths("idx", first, SESSION)
            store.set_paths("idx", second)
        assert_observably_identical(single, sharded, [
            None, {"term": {"file_path": "/resolved"}},
            {"exists": {"field": "file_path"}}])

    @given(batch_list=st.lists(batches, min_size=2, max_size=3),
           shard_count=shard_counts, shard_key=shard_keys,
           new_count=shard_counts)
    @settings(max_examples=40, deadline=None)
    def test_midstream_rebalance_preserves_equivalence(
            self, batch_list, shard_count, shard_key, new_count):
        single = DocumentStore()
        sharded = create_store(shard_count=shard_count, shard_key=shard_key,
                               time_window_ns=1_000)
        for store in (single, sharded):
            store.ensure_index("idx", indexed_fields=INDEXED)
            store.bulk("idx", [dict(d) for d in batch_list[0]])
        # Rebalance between two ingest waves; the plain store has no
        # notion of shards, so the router must absorb it invisibly.
        if isinstance(sharded, ShardedDocumentStore):
            sharded.rebalance(new_count)
            assert sharded.shard_count == new_count
        for store in (single, sharded):
            for batch in batch_list[1:]:
                store.bulk("idx", [dict(d) for d in batch])
        assert_observably_identical(single, sharded)
        aggs = {"per_pid": {"terms": {"field": "pid", "size": 10}},
                "lat": {"stats": {"field": "duration_ns"}}}
        lhs = single.search("idx", size=0, aggs=aggs)["aggregations"]
        rhs = sharded.search("idx", size=0, aggs=aggs)["aggregations"]
        assert json.dumps(lhs, sort_keys=True) == json.dumps(
            rhs, sort_keys=True)


class TestFactoryAnchor:
    def test_shard_count_one_is_literally_the_plain_store(self):
        store = create_store(shard_count=1)
        assert type(store) is DocumentStore

    @pytest.mark.parametrize("kwargs", [
        {"shard_count": 0}, {"shard_count": -2}, {"shard_count": 2.5},
    ])
    def test_bad_shard_count_rejected(self, kwargs):
        from repro.backend.store import StoreError
        with pytest.raises(StoreError):
            create_store(**kwargs)
