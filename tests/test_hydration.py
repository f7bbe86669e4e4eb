"""A read builds the documents it returns, and no others.

Documents a vectorized bulk or a session load parked as lanes stay
parked through every read: diagnosis reads lanes, aggregations and
exact plans read columns, and a request that returns hits builds the
``_source`` of those rows alone — one at a time, memoised, so a row is
the same dict on every read until it changes.  What gets built is
counted by ``Index.hydrated_docs_total``
(``dio_ingest_docs_hydrated_total``); these tests hold it to that, and
hold the aggregation cache's copies to independence.
"""

import importlib
import sys
from pathlib import Path

import pytest

from repro.analysis.diagnose import diagnose_session
from repro.backend import (DocumentStore, create_store, export_session,
                           import_session, load_session, save_session)
from repro.backend.store import copy_json
from repro.experiments import run_rocksdb_case
from repro.experiments.rocksdb_case import RocksDBScale
from repro.visualizer import DIODashboards
from tests.doc_reads import get_doc

INDEX = "dio_trace"
E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def hydrated(store) -> int:
    return sum(shard._indices[INDEX].hydrated_docs_total
               for shard in getattr(store, "shards", [store])
               if INDEX in shard._indices)


@pytest.fixture(scope="module")
def rocksdb():
    return run_rocksdb_case(RocksDBScale(duration_ns=400_000_000))


@pytest.fixture(scope="module")
def saved(rocksdb, tmp_path_factory):
    root = tmp_path_factory.mktemp("saved")
    save_session(rocksdb.store, rocksdb.session, root / "session",
                 flush_events=1500)
    export_session(rocksdb.store, rocksdb.session, root / "session.jsonl")
    return root


def loaded(saved, store=None):
    store = store if store is not None else DocumentStore()
    session = load_session(store, saved / "session")
    return store, session


# ----------------------------------------------------------------------
# Diagnosis reads lanes

def test_diagnosing_a_loaded_session_builds_no_document(saved, rocksdb):
    store, session = loaded(saved)
    records = rocksdb.bench.records()
    report = diagnose_session(store, session, latency_records=records)
    assert report.findings and report.events == store.count(INDEX)
    assert hydrated(store) == 0
    assert store._indices[INDEX].pending_docs == report.events


def test_the_report_is_the_same_on_every_form_of_the_store(saved, rocksdb):
    records = rocksdb.bench.records()
    parked, session = loaded(saved)
    whole, _ = loaded(saved)
    whole._indices[INDEX]._hydrate()
    sharded, _ = loaded(saved, create_store(shard_count=3))
    imported = DocumentStore()
    import_session(imported, saved / "session.jsonl")
    reports = [diagnose_session(store, session,
                                latency_records=records).as_dict()
               for store in (parked, whole, sharded, imported)]
    assert reports[1:] == reports[:1] * 3
    assert hydrated(parked) == hydrated(sharded) == 0


# ----------------------------------------------------------------------
# A window builds its own rows

def test_a_window_builds_only_its_own_rows(saved):
    store, _ = loaded(saved)
    hits = store.search(INDEX, size=50, sort=[{"time": {"order": "desc"}}],
                        query={"range": {"time": {"gte": 0}}})["hits"]
    assert len(hits["hits"]) == 50 < hits["total"]["value"]
    assert hydrated(store) == 50
    # The same rows again: the same dicts, nothing built.
    again = store.search(INDEX, size=50, sort=[{"time": {"order": "desc"}}],
                         query={"range": {"time": {"gte": 0}}})["hits"]
    assert all(a["_source"] is b["_source"]
               for a, b in zip(hits["hits"], again["hits"]))
    assert hydrated(store) == 50
    # An unsorted window, on one store and through the router.
    assert len(store.search(INDEX, size=7, from_=3)["hits"]["hits"]) == 7
    assert hydrated(store) == 57
    sharded, _ = loaded(saved, create_store(shard_count=3))
    window = sharded.search(INDEX, size=7, from_=3)["hits"]["hits"]
    assert [hit["_id"] for hit in window] == [str(n) for n in range(4, 11)]
    assert hydrated(sharded) == 7


@pytest.mark.parametrize("shards", [1, 3])
def test_a_window_beside_aggregations_builds_only_its_own_rows(saved,
                                                               shards):
    """Aggregations read columns (per-shard partials through the
    router), so hits plus aggregations build the window and nothing
    else — the same answer at either shard count."""
    store, _ = loaded(saved, create_store(shard_count=shards))
    response = store.search(INDEX, size=5, from_=2, aggs=AGGS)
    assert len(response["hits"]["hits"]) == 5
    assert response["hits"]["total"]["value"] == store.count(INDEX) > 7
    assert hydrated(store) <= 2 + 5
    single, _ = loaded(saved)
    assert response == single.search(INDEX, size=5, from_=2, aggs=AGGS)


def test_a_row_read_twice_is_the_same_object(saved):
    store, _ = loaded(saved)
    first = get_doc(store, INDEX, "17")
    assert get_doc(store, INDEX, "17") is first
    (doc_id, source), *_ = store.scan(INDEX, {"term": {"tid": first["tid"]}})
    assert get_doc(store, INDEX, doc_id) is source
    (_, source), = [pair for pair in store.scan(INDEX) if pair[0] == "17"]
    assert source is first
    # A write hydrates the rest and keeps the dicts readers hold.
    store.index_doc(INDEX, {"syscall": "late", "session": "x"})
    assert get_doc(store, INDEX, "17") is first
    assert store._indices[INDEX].pending_docs == 0


@pytest.mark.parametrize("how", ["update_docs", "update_by_query"])
def test_an_update_after_a_row_was_read_is_what_the_next_read_sees(saved,
                                                                  how):
    store, _ = loaded(saved)
    held = get_doc(store, INDEX, "5")
    assert "note" not in held and hydrated(store) == 1
    if how == "update_docs":
        assert store.update_docs(INDEX, ["5", "6"], {"note": "x"}) == 2
        assert hydrated(store) == 1             # an overlay: still parked
    else:
        tid = held["tid"]
        count = store.count(INDEX, {"term": {"tid": tid}})
        assert store.update_by_query(
            INDEX, {"term": {"tid": tid}},
            lambda source: source.update(note="x")) == count
    for doc_id in ("5", "6") if how == "update_docs" else ("5",):
        assert get_doc(store, INDEX, doc_id)["note"] == "x"
    assert held["note"] == "x" and get_doc(store, INDEX, "5") is held
    assert store.count(INDEX, {"term": {"note": "x"}}) >= 1
    ids = [doc_id for doc_id, _ in store.scan(INDEX,
                                              {"term": {"note": "x"}})]
    assert "5" in ids


# ----------------------------------------------------------------------
# The dashboard's request plan builds no more than it returns

@pytest.fixture(scope="module")
def dashboard_serve():
    sys.path.insert(0, str(E2E))
    try:
        return importlib.import_module("dashboard_serve")
    finally:
        sys.path.remove(str(E2E))


def test_the_dashboard_plan_builds_at_most_what_it_returns(dashboard_serve,
                                                           tmp_path):
    size = dashboard_serve.SIZES["smoke"]
    staged = dashboard_serve.prepare(2304, size, tmp_path)
    store = DocumentStore()
    load_session(store, staged["path"])
    dash = DIODashboards(store, INDEX, session=dashboard_serve.SESSION)
    returned = 0
    for request in staged["plan"]:
        answer = dashboard_serve.issue(request, store, dash)
        if request[0] == "window":
            returned += len(answer[1])          # (total, hits)
        elif request[0] == "file_access":
            returned += len(answer)             # the Fig. 2 table rows
        assert hydrated(store) <= returned, request
    assert returned
    diagnose_session(store, dashboard_serve.SESSION)
    assert hydrated(store) <= returned


# ----------------------------------------------------------------------
# The aggregation cache hands out and keeps copies

AGGS = {"per": {"terms": {"field": "syscall", "size": 5},
                "aggs": {"t": {"percentiles": {"field": "duration_ns",
                                               "percents": [50]}}}}}


@pytest.mark.parametrize("shards", [1, 3])
def test_mutating_a_cached_response_never_changes_the_next(saved, shards):
    store, _ = loaded(saved, create_store(shard_count=shards))
    first = store.search(INDEX, size=0, aggs=AGGS)
    expected = copy_json(first)
    # The response that filled the cache, then one it served.
    first["aggregations"]["per"]["buckets"][0]["doc_count"] = -1
    first["aggregations"]["per"]["buckets"].append({"key": "x"})
    second = store.search(INDEX, size=0, aggs=AGGS)
    assert second == expected
    second["aggregations"]["per"]["buckets"][0]["t"]["values"]["50"] = -1.0
    second["aggregations"].clear()
    assert store.search(INDEX, size=0, aggs=AGGS) == expected
    # Two repeats, each one lookup per cache: the store's, or (sharded)
    # every shard's partial.
    assert store.agg_stats()["cache_hits"] == 2 * shards


def test_copy_json_copies_containers_and_shares_the_rest():
    key = ("a", 1)
    value = {"k": [1, {"key": key, "v": 2.5}], "n": None}
    copied = copy_json(value)
    assert copied == value and copied is not value
    assert copied["k"] is not value["k"]
    assert copied["k"][1] is not value["k"][1]
    assert copied["k"][1]["key"] is key
