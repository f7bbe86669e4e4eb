"""A sorted, sized search is "scan everything, sort, slice".

``DocumentStore.search(sort=…, size=k, from_=…)`` orders *rows* by keys
read off the columns and builds only the hits it returns; the shard
router asks each shard for its own sorted ``from_ + size`` prefix and
heap-merges those.  Neither may be told apart from the plain recipe:
every match in insertion order, one stable ``list.sort`` per sort entry
— last entry first, ``reverse=True`` for a descending one — keyed by
``sort_key`` of the field, then the slice.  Ties, missing and
mixed-class keys, several keys, ``size=None`` and ``size=0`` included,
on one store and on two and three shards under every shard key.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import SHARD_KEYS, DocumentStore, create_store
from repro.backend.lanes import DocBatch, sort_key
from repro.backend.query import get_field

INDEX = "events"

# Few distinct values per field: ties are the point.
_K = [None, True, False, 0, 1, 1.0, 2, -0.0, 2.5, "a", "b", "10", "9",
      (1, 2), (1.0, 2), [1], {"z": 1}]


def _doc(time, pid, tag, k, x):
    doc = {"pid": pid}
    if time is not None:
        doc["time"] = time
    if tag is not None:
        doc["file_tag"] = tag
    if k is not None:
        doc["k"] = k
    if x is not None:
        doc["n"] = {"x": x}
    return doc


docs_ = st.builds(
    _doc,
    st.one_of(st.none(), st.integers(0, 40)),
    st.integers(1, 4),
    st.one_of(st.none(), st.sampled_from(["/a", "/b", "/c"])),
    st.sampled_from(_K),
    st.one_of(st.none(), st.integers(0, 3), st.sampled_from(["u", "v"])))

_SORT_FIELDS = ["time", "time", "pid", "file_tag", "file_path", "k", "n.x",
                "absent"]
sort_entries = st.builds(
    lambda field, form: {"asc": field,
                         "asc-dict": {field: {"order": "asc"}},
                         "bare-dict": {field: None},
                         "desc": {field: {"order": "desc"}}}[form],
    st.sampled_from(_SORT_FIELDS),
    st.sampled_from(["asc", "asc-dict", "bare-dict", "desc", "desc"]))
sorts = st.lists(sort_entries, min_size=1, max_size=3)
queries = st.sampled_from([
    None,
    {"range": {"time": {"gte": 5, "lt": 30}}},
    {"term": {"pid": 2}},
    {"exists": {"field": "file_tag"}},
    {"bool": {"must": [{"range": {"time": {"gte": 0}}}],
              "must_not": [{"term": {"k": 1}}]}},
])

STORES = {"single": DocumentStore}
STORES.update({
    f"{count}-shards-by-{key}": (lambda count=count, key=key: create_store(
        shard_count=count, shard_key=key, time_window_ns=7))
    for count in (2, 3) for key in SHARD_KEYS})


def fill(store, docs, paths):
    """Half by ``bulk``, half parked as lanes; then a path table, when
    there is one, so that rows are named by their tags."""
    half = len(docs) // 2
    store.ensure_index(INDEX)
    store.bulk(INDEX, [dict(doc) for doc in docs[:half]])
    store.bulk_columnar(INDEX, DocBatch([dict(doc) for doc in docs[half:]]))
    if paths is not None:
        store.set_paths(INDEX, paths)


def recipe(store, query, sort, size, from_):
    matches = store.scan(INDEX, query)
    for entry in reversed(sort):
        if isinstance(entry, str):
            field, descending = entry, False
        else:
            field, opts = next(iter(entry.items()))
            descending = (opts or {}).get("order", "asc") == "desc"
        matches.sort(key=lambda pair: sort_key(get_field(pair[1], field)),
                     reverse=descending)
    window = matches[from_:] if size is None else matches[from_:from_ + size]
    return len(matches), window


@pytest.mark.parametrize("kind", STORES)
@settings(max_examples=120, deadline=None)
@given(docs=st.lists(docs_, max_size=24), sort=sorts, query=queries,
       size=st.one_of(st.none(), st.integers(0, 8)),
       from_=st.integers(0, 6), trace=st.booleans(), data=st.data())
def test_sorted_search_is_scan_sort_slice(kind, docs, sort, query, size,
                                          from_, trace, data):
    if trace:
        # What a tracer ships: every row a time, none decreasing — the
        # lane a sort pass may skip (and only while the rows still are
        # in row order).
        times = sorted(doc.get("time", 20) for doc in docs)
        docs = [dict(doc, time=time) for doc, time in zip(docs, times)]
    paths = data.draw(st.one_of(st.none(), st.dictionaries(
        st.sampled_from(["/a", "/b", "/c"]), st.sampled_from(_K))))
    store, single = STORES[kind](), DocumentStore()
    for each in (store, single):
        fill(each, docs, paths)
    total, window = recipe(single, query, sort, size, from_)
    for each in (store, single):
        for _ in range(2):              # columns built, then reused
            hits = each.search(INDEX, query=query, sort=sort, size=size,
                               from_=from_)["hits"]
            assert hits["total"]["value"] == total
            assert [(hit["_id"], hit["_source"])
                    for hit in hits["hits"]] == window


def test_ascending_time_on_a_trace_is_the_identity():
    store = DocumentStore()
    store.bulk_columnar(INDEX, DocBatch(
        [{"time": 10 * (i // 2), "i": i} for i in range(12)]))
    index = store._index(INDEX)
    calls = []
    original = index.pairs
    index.pairs = lambda rows: calls.append(list(rows)) or original(rows)
    hits = store.search(INDEX, sort=["time"], size=3, from_=2,
                        query={"range": {"time": {"gte": 10}}})["hits"]
    assert hits["total"]["value"] == 10
    assert [hit["_source"]["i"] for hit in hits["hits"]] == [4, 5, 6]
    # Only the window's three hits were ever built.
    assert calls == [[4, 5, 6]]
    assert index.columns._columns["time"]._postings is None
    # Newest first: ties keep insertion order, as ``reverse=True`` does.
    hits = store.search(INDEX, sort=[{"time": {"order": "desc"}}],
                        size=4)["hits"]
    assert [hit["_source"]["i"] for hit in hits["hits"]] == [10, 11, 8, 9]
    # ... and the pass is only skipped while the rows are in row order.
    hits = store.search(INDEX, sort=["time", {"i": {"order": "desc"}}],
                        size=4)["hits"]
    assert [hit["_source"]["i"] for hit in hits["hits"]] == [1, 0, 3, 2]
