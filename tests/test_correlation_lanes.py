"""Correlation on lanes is correlation.

``FilePathCorrelator`` reads a session as lanes and hands the store its
tag -> path table, which parked batches keep as a ``file_path`` lane
derived from ``file_tag``; ``legacy_correlate`` — a sorted search of
the session, the path set on every document of a resolved tag, the
tallies counted off those documents — is the dict oracle.  Twin stores
fed the same batches must come out the same: the bytes of a scan (ids,
order, key order, ``file_path`` last), the report, the epoch and, once
both are hydrated, the row numbering and every column slot, postings
included — on the sessions below and on random ones (the differential
at the end, which also asks what a reader asks of ``file_path``:
queries, an aggregation and a sort, before and after a save and a
load).
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.backend import (DocumentStore, FilePathCorrelator, create_store,
                           export_session, import_session, legacy_correlate,
                           load_session, save_session)
from repro.backend.aggregations import run_aggregations
from repro.backend.lanes import Derived, DocBatch, sort_key
from repro.backend.query import compile_query
from repro.faults import FaultPlan, FaultWindow, FaultyStore, InjectedFault
from repro.tracer import RecordBatch
from tests.test_load_differential import index_state

INDEX = "dio_trace"
SESSION = "traced"
INDEXED = ("syscall", "file_tag", "session", "time")


SHARDED = pytest.mark.parametrize("make", [
    DocumentStore, lambda: create_store(shard_count=3, shard_key="pid")],
    ids=["plain", "3-shards"])


def records(n: int = 60, start: int = 0) -> list[dict]:
    """Ring records over seven file tags: four are opened (late, and
    out of time order), three never; ``t-1`` is opened under two paths
    at the same nanosecond, the latest of the trace."""
    out = []
    for i in range(start, start + n):
        opening = i % 10 == 3
        record = {"syscall": "openat" if opening else ("read", "write")[i % 2],
                  "args": ({"path": f"/data/{i}", "flags": 2} if opening
                           else {"fd": i % 4}),
                  "ret": i, "pid": 10 + i % 2, "tid": 20 + i % 3,
                  "comm": ("app", "flusher")[i % 2],
                  "enter_ns": 1000 - 7 * i if i % 4 else 1000 + i,
                  "exit_ns": 9000 + i}
        if i % 6:
            record["file_tag"] = f"t-{i % 7}"
        if i in (13, 23):
            record["file_tag"], record["enter_ns"] = "t-1", 5555
        out.append(record)
    return out


def batches(session: str = SESSION) -> list[RecordBatch]:
    """Three batches that interleave in time."""
    return [RecordBatch.decode(records(20, start), session=session)
            for start in (0, 20, 40)]


def feed(store, how: str) -> None:
    """The same documents, parked as lanes, hydrated, or both."""
    first, second, third = batches()
    other = batches("other")[0]         # same tags, another session
    if how == "rows":
        for batch in (first, other, second, third):
            store.bulk(INDEX, batch.to_docs())
        return
    store.bulk_columnar(INDEX, first)
    store.bulk_columnar(INDEX, other)
    if how == "mixed":
        hydrate(store)
    store.bulk_columnar(INDEX, second)
    store.bulk_columnar(INDEX, third)
    if how == "hydrated":
        hydrate(store)


def hydrate(store) -> None:
    """Build every document that has arrived, as a reader of every row
    does."""
    for shard in getattr(store, "shards", [store]):
        if INDEX in shard._indices:
            shard._indices[INDEX].documents()


def hydrated(store) -> int:
    shards = getattr(store, "shards", [store])
    return sum(shard._indices[INDEX].hydrated_docs_total for shard in shards)


class Twins:
    """Three stores filled alike, correlated three ways.

    ``store`` by :class:`FilePathCorrelator` as it stands (lanes,
    derived path lanes); ``legacy`` by :func:`legacy_correlate`, which
    names the documents a scan of it returns and writes nothing to the
    store, so only those documents (:meth:`oracle`) answer for it;
    ``by_rows`` by the same correlator after every document was built,
    so that its path table lands on the dicts readers hold as well.
    The legacy twin answers for what a reader sees — scan bytes,
    report, every query; the row twin for the epoch and every slot of
    every column, dictionary orders included.
    """

    def __init__(self, fill, make=DocumentStore) -> None:
        # The oracle's store is always the plain one: a router takes
        # its writes lane-wise or by id, never by query.
        self.store, self.legacy, self.by_rows = make(), DocumentStore(), make()
        for each in self.all():
            fill(each)

    def all(self):
        return self.store, self.legacy, self.by_rows

    def oracle(self) -> list[dict]:
        """The legacy twin's documents, in row order."""
        return [source for _, source in self.legacy.scan(INDEX)]

    def correlate(self, session=SESSION, through=None):
        hydrate(self.by_rows)
        report = FilePathCorrelator(through or self.store).correlate(
            INDEX, session=session)
        assert report.as_dict() == legacy_correlate(
            self.legacy, INDEX, session=session).as_dict()
        assert report.as_dict() == FilePathCorrelator(
            self.by_rows).correlate(INDEX, session=session).as_dict()
        return report

    def assert_same(self) -> None:
        seen = json.dumps(self.store.scan(INDEX))
        assert seen == json.dumps(self.legacy.scan(INDEX))
        assert seen == json.dumps(self.by_rows.scan(INDEX))
        # One write per pass (the legacy flow writes once per tag): the
        # epoch is the row twin's, shard by shard.
        for mine, twin in zip(getattr(self.store, "shards", [self.store]),
                              getattr(self.by_rows, "shards",
                                      [self.by_rows])):
            assert (mine._indices[INDEX].epoch
                    == twin._indices[INDEX].epoch)
            assert index_state(mine) == index_state(twin)


def fed(how: str, indexed=INDEXED):
    def fill(store):
        store.ensure_index(INDEX, indexed_fields=indexed)
        feed(store, how)
    return fill


@pytest.mark.parametrize("session", [SESSION, None])
@pytest.mark.parametrize("how", ["pending", "hydrated", "mixed", "rows"])
@SHARDED
def test_lane_and_legacy_correlation_leave_the_same_store(make, how,
                                                          session):
    twins = Twins(fed(how), make)
    store = twins.store
    report = twins.correlate(session)
    assert report.tags_resolved == 4 and report.documents_unresolved > 0
    if how == "pending":
        assert hydrated(store) == 0
    if how == "pending" and make is DocumentStore:
        index = store._indices[INDEX]
        assert index.pending_docs == 80
        # The update touched no column: none has been built but the
        # one the lane read planned on.
        assert len(index._parts) == 4
        assert set(index.columns._columns) <= {"session"}
    paths = {source["file_tag"]: source.get("file_path")
             for _, source in store.scan(INDEX)
             if source["session"] == SESSION and "file_tag" in source}
    # Opened as /data/13 and as /data/23 at t=5555: the later row in
    # insertion order names it.
    assert paths["t-1"] == "/data/23"
    assert all(list(source)[-1] == "file_path"
               for _, source in store.scan(INDEX) if "file_path" in source)
    if session:
        assert not any("file_path" in source
                       for _, source in store.scan(INDEX)
                       if source["session"] == "other")
    twins.assert_same()


def test_same_time_opens_resolve_to_the_last_in_insertion_order():
    rows = [
        {"syscall": "openat", "args": {"path": "/late"}, "ret": 3, "pid": 1,
         "tid": 1, "comm": "a", "enter_ns": 9, "exit_ns": 10,
         "file_tag": "t"},
        {"syscall": "openat", "args": {"path": "/first"}, "ret": 3, "pid": 1,
         "tid": 1, "comm": "a", "enter_ns": 5, "exit_ns": 6, "file_tag": "t"},
        {"syscall": "openat", "args": {"path": "/second"}, "ret": 3,
         "pid": 1, "tid": 1, "comm": "a", "enter_ns": 9, "exit_ns": 10,
         "file_tag": "t"},
        {"syscall": "read", "args": {"fd": 3}, "ret": 1, "pid": 1, "tid": 1,
         "comm": "a", "enter_ns": 11, "exit_ns": 12, "file_tag": "t"}]

    def fill(store):
        store.ensure_index(INDEX, indexed_fields=INDEXED)
        store.bulk_columnar(INDEX, RecordBatch.decode(rows[:2], SESSION))
        store.bulk_columnar(INDEX, RecordBatch.decode(rows[2:], SESSION))

    twins = Twins(fill)
    twins.correlate()
    assert {source["file_path"]
            for _, source in twins.store.scan(INDEX)} == {"/second"}
    twins.assert_same()


@pytest.mark.parametrize("how", ["pending", "mixed"])
def test_an_index_on_file_path_made_before_correlation_is_kept(how):
    # A query on file_path before correlation builds its column from
    # the lanes (every row missing); the path table drops it, and the
    # next query builds it again from the derived lanes while the
    # documents stay parked.
    query = {"term": {"file_path": "/data/23"}}
    named = {"exists": {"field": "file_path"}}

    def fill(store):
        fed(how)(store)
        assert store.count(INDEX, query) == store.count(INDEX, named) == 0

    twins = Twins(fill)
    store = twins.store
    twins.correlate()
    index = store._indices[INDEX]
    assert "file_path" not in index.columns._columns
    docs = twins.oracle()
    for each in (store, twins.by_rows):
        assert each.count(INDEX, query) == sum(
            map(compile_query(query), docs)) > 0
        assert each.count(INDEX, named) == sum(
            "file_path" in source for source in docs)
    assert hydrated(store) == (0 if how == "pending" else 40)
    twins.assert_same()


@pytest.mark.parametrize("how", ["pending", "mixed"])
def test_a_file_path_column_built_before_correlation_is_kept(how):
    aggs = {"paths": {"terms": {"field": "file_path", "size": 20}},
            "named": {"value_count": {"field": "file_path"}}}

    def fill(store):
        fed(how)(store)
        assert store.search(INDEX, size=0, aggs=aggs)[
            "aggregations"]["named"]["value"] == 0

    twins = Twins(fill)
    store = twins.store
    twins.correlate()
    assert hydrated(store) == (0 if how == "pending" else 40)
    for each in (store, twins.by_rows):
        answer = each.search(INDEX, size=0, aggs=aggs)["aggregations"]
        assert answer == run_aggregations(aggs, twins.oracle())
        assert answer["named"]["value"] > 0
        # Both answers came off the columns.
        assert each.agg_stats()["pushdowns"] == 2
        assert each.agg_stats()["fallbacks"] == 0
    twins.assert_same()


def test_an_outage_during_correlation_half_applies_nothing():
    twins = Twins(fed("pending"))
    store = twins.store
    now = [5]
    faulty = FaultyStore(store, FaultPlan([FaultWindow(0, 10)]),
                         clock=lambda: now[0],
                         protect=("bulk", "set_paths"))
    index = store._indices[INDEX]
    epoch = index.epoch
    with pytest.raises(InjectedFault):
        FilePathCorrelator(faulty).correlate(INDEX, session=SESSION)
    assert index.epoch == epoch and hydrated(store) == 0
    assert all("file_path" not in batch._lanes for _, batch in index._parts)
    now[0] = 10                                  # the outage is over
    twins.correlate(through=faulty)
    assert hydrated(store) == 0 and index.epoch == epoch + 1
    twins.assert_same()


def saved(tmp_path, correlated: bool):
    source = DocumentStore()
    feed(source, "pending")
    if correlated:
        FilePathCorrelator(source).correlate(INDEX, session=SESSION)
    save_session(source, SESSION, tmp_path / "store", index=INDEX,
                 flush_events=25)
    return tmp_path / "store"


@SHARDED
def test_recorrelating_a_loaded_session_hydrates_and_agrees(make, tmp_path):
    path = saved(tmp_path, correlated=True)

    def fill(store):
        load_session(store, path, index=INDEX)
        # A path the first pass did not know, for every tag there is.
        store.bulk_columnar(INDEX, DocBatch([
            {"syscall": "creat", "args": {"path": f"/new-{tag}"},
             "time": 9000, "file_tag": f"t-{tag}", "session": SESSION}
            for tag in range(7)]))

    twins = Twins(fill, make)
    store = twins.store
    assert hydrated(store) == 0
    report = twins.correlate()
    assert report.tags_resolved == 7 and report.documents_unresolved == 0
    # The loaded blocks have a file_path lane: no derived lane can say
    # "last key of the row", so their 60 rows were built (the 7 new
    # documents existed already).
    assert hydrated(store) == 60
    assert {source["file_path"] for _, source in store.scan(INDEX)
            if "file_tag" in source} == {f"/new-{tag}" for tag in range(7)}
    twins.assert_same()


@SHARDED
def test_a_loaded_session_that_was_never_correlated_takes_the_overlay(
        make, tmp_path):
    # Its blocks have no file_path: each loaded part takes the derived
    # lane, and no row is built.
    path = saved(tmp_path, correlated=False)
    twins = Twins(lambda store: load_session(store, path, index=INDEX), make)
    report = twins.correlate()
    assert report.tags_resolved == 4
    assert hydrated(twins.store) == 0
    # A router's shards hold takes of one loaded join, and still do.
    parts = [batch for shard in getattr(twins.store, "shards", [])
             for _, batch in shard._indices[INDEX]._parts]
    assert len({id(batch._whole) for batch in parts}) <= 1
    twins.assert_same()


# ---------------------------------------------------------------------------
# a foreign event must not abort the pass

FOREIGN = [
    {"syscall": "openat", "args": None, "time": 1, "file_tag": "a",
     "session": SESSION},
    {"syscall": "open", "args": "O_RDONLY", "time": 2, "file_tag": "b",
     "session": SESSION},
    {"syscall": "creat", "time": 3, "file_tag": "c", "session": SESSION},
    {"syscall": "openat", "args": {"path": "/known"}, "time": 4,
     "file_tag": "d", "session": SESSION},
    {"syscall": "read", "args": ["fd", 3], "time": 5, "file_tag": "d",
     "session": SESSION},
    # A syscall name no set can hold: compared, never hashed.
    {"syscall": ["openat"], "args": {"path": "/odd"}, "time": 6,
     "file_tag": "e", "session": SESSION}]


@pytest.mark.parametrize("correlate", [
    lambda store: FilePathCorrelator(store).correlate(INDEX, SESSION),
    lambda store: legacy_correlate(store, INDEX, SESSION)],
    ids=["lanes", "legacy"])
@pytest.mark.parametrize("how", ["rows", "parked", "imported", "loaded"])
def test_an_open_without_an_args_object_stays_unresolved(correlate, how,
                                                         tmp_path):
    # Reachable through import_session/recover_session of a hand-edited
    # or third-party export; used to abort the whole pass with
    # "'NoneType' object has no attribute 'get'".  The correlator asks
    # for ``args.path``: no ``args`` object, or no path in it, reads
    # ``None`` off documents, off an import and off a loaded segment
    # store (whose ``args`` block is the dictionary fallback here).
    store = DocumentStore()
    docs = copy.deepcopy(FOREIGN)
    if how == "parked":
        store.bulk_columnar(INDEX, DocBatch(docs))
    elif how == "rows":
        store.bulk(INDEX, docs)
    else:
        source = DocumentStore()
        source.bulk(INDEX, docs)
        if how == "imported":
            export_session(source, SESSION, tmp_path / "foreign.jsonl",
                           index=INDEX)
            import_session(store, tmp_path / "foreign.jsonl", index=INDEX)
        else:
            save_session(source, SESSION, tmp_path / "foreign", index=INDEX)
            load_session(store, tmp_path / "foreign", index=INDEX)
            assert hydrated(store) == 0
    report = correlate(store)
    assert report.as_dict() == {
        "tags_resolved": 1, "documents_updated": 2, "documents_tagged": 6,
        "documents_unresolved": 4, "unresolved_ratio": 4 / 6}
    assert [source.get("file_path") for _, source in store.scan(INDEX)] == [
        None, None, None, "/known", "/known", None]


def test_correlation_reads_the_path_argument_not_every_args():
    # ``args.path`` of the open-family rows is all the pass needs: the
    # parked ring batches are never asked for ``args`` (which would
    # sanitise every row's arguments to read the path of a few).
    store = DocumentStore()
    fed("parked")(store)
    report = FilePathCorrelator(store).correlate(INDEX, SESSION)
    assert report.tags_resolved == 4
    parked = [batch for _, batch in store._indices[INDEX]._parts]
    assert len(parked) == 4
    assert all(type(batch._lanes["args"][0]) is Derived for batch in parked)


# ---------------------------------------------------------------------------
# differential: random sessions against legacy_correlate

_event = st.fixed_dictionaries({
    "syscall": st.sampled_from(["openat", "open", "creat", "read", "write",
                                "close"]),
    # Few tags and few times: reopens under a new path at equal and at
    # later times; t-4 is never opened in most sessions.
    "tag": st.one_of(st.none(), st.sampled_from(
        ["t-0", "t-1", "t-2", "t-3", "t-4"])),
    "path": st.sampled_from(["/a", "/b", "/c", ""]),
    "time": st.integers(0, 5),
    "named": st.booleans(),
})
_batch = st.fixed_dictionaries({
    "events": st.lists(_event, min_size=1, max_size=12),
    "session": st.sampled_from([SESSION, SESSION, "other"]),
    # ring: a decoded ring batch (lanes, no file_path); docs: parked
    # documents, some already naming a file; rows: hydrated by bulk.
    "form": st.sampled_from(["ring", "docs", "rows"]),
    "hydrate_after": st.booleans(),
})


def _ring_record(event: dict) -> dict:
    opening = event["syscall"] in ("openat", "open", "creat")
    record = {"syscall": event["syscall"],
              "args": {"path": event["path"]} if opening else {"fd": 3},
              "ret": 3, "pid": 1, "tid": 1, "comm": "app",
              "enter_ns": event["time"], "exit_ns": event["time"] + 1}
    if event["tag"] is not None:
        record["file_tag"] = event["tag"]
    return record


def _document(event: dict, session: str) -> dict:
    doc = {"syscall": event["syscall"], "args": _ring_record(event)["args"],
           "time": event["time"], "session": session}
    if event["tag"] is not None:
        doc["file_tag"] = event["tag"]
    if event["named"]:
        doc["file_path"] = "/named"
    return doc


def _fill(batches: list[dict], built: int):
    def fill(store):
        store.ensure_index(INDEX, indexed_fields=INDEXED)
        for batch in batches:
            session = batch["session"]
            if batch["form"] == "ring":
                store.bulk_columnar(INDEX, RecordBatch.decode(
                    list(map(_ring_record, batch["events"])), session))
            else:
                docs = [_document(event, session)
                        for event in batch["events"]]
                if batch["form"] == "docs":
                    store.bulk_columnar(INDEX, DocBatch(docs))
                else:
                    store.bulk(INDEX, docs)
            if batch["hydrate_after"]:
                hydrate(store)
        # Another session over the same tags, with an open of its own.
        store.bulk_columnar(INDEX, RecordBatch.decode(
            list(map(_ring_record, OTHER)), "other"))
        # A window read builds the first rows' documents.
        store.search(INDEX, size=built)
    return fill


OTHER = [{"syscall": syscall, "tag": f"t-{n}", "path": "/o", "time": n}
         for n, syscall in enumerate(["read", "write", "read", "close",
                                      "openat"])]

#: What a reader asks of ``file_path``.
READS = [*({"term": {"file_path": path}}
           for path in ("/a", "/b", "/c", "/o", "/named")),
         {"prefix": {"file_path": "/n"}}, {"wildcard": {"file_path": "*a*"}},
         {"wildcard": {"file_path": "/?"}}, {"exists": {"field": "file_path"}}]
READ_AGGS = {"paths": {"terms": {"field": "file_path", "size": 20}},
             "named": {"value_count": {"field": "file_path"}}}


def assert_reads_as(store, docs: list[dict]) -> None:
    """``store`` answers every read of ``file_path`` as ``docs``, the
    oracle's documents in the store's row order, do."""
    for query in READS:
        expected = list(filter(compile_query(query), docs))
        assert [source for _, source in store.scan(INDEX, query)] == (
            expected), query
        assert store.count(INDEX, query) == len(expected), query
    assert store.search(INDEX, size=0, aggs=READ_AGGS)[
        "aggregations"] == run_aggregations(READ_AGGS, docs)
    hits = store.search(INDEX, sort=["file_path"], size=None)["hits"]["hits"]
    assert [hit["_source"] for hit in hits] == sorted(
        docs, key=lambda doc: sort_key(doc.get("file_path")))


def round_trip(store, make, root) -> tuple:
    """Every session of ``store`` saved, then loaded into a new store
    in that order: ``(loaded store, sessions)``."""
    sessions = dict.fromkeys(source["session"]
                             for _, source in store.scan(INDEX))
    loaded = make()
    for number, session in enumerate(sessions):
        save_session(store, session, root / str(number), index=INDEX)
        load_session(loaded, root / str(number), index=INDEX)
    return loaded, list(sessions)


@SHARDED
@given(batches=st.lists(_batch, min_size=1, max_size=5),
       built=st.integers(0, 20), session=st.sampled_from([SESSION, None]))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_sessions_correlate_as_legacy_correlate(make, batches, built,
                                                       session,
                                                       tmp_path_factory):
    twins = Twins(_fill(batches, built), make)
    twins.correlate(session)
    docs = twins.oracle()
    # What a reader of file_path sees, on the twins that keep tables.
    for each in (twins.store, twins.by_rows):
        assert_reads_as(each, docs)
    twins.assert_same()
    # ... and once the sessions were saved and loaded back: each one's
    # rows in stable time order.
    loaded, sessions = round_trip(twins.store, make,
                                  tmp_path_factory.mktemp("trip"))
    assert_reads_as(loaded, [
        doc for name in sessions for doc in sorted(
            (doc for doc in docs if doc["session"] == name),
            key=lambda doc: sort_key(doc.get("time")))])
