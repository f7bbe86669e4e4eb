"""Correlation on lanes is correlation.

``FilePathCorrelator`` reads a session as lanes and its updates land on
parked batches as overlays; ``legacy_correlate`` — a sorted search, one
``update_by_query`` per tag, two counts — hydrates everything and
updates documents.  Twin stores fed the same batches must come out the
same: the bytes of a scan (ids, order, key order, ``file_path`` last),
the report, the epoch and, once both are hydrated, the row numbering
and every column slot, postings included — on the sessions below and
on random ones (the differential at the end).
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.backend import (DocumentStore, FilePathCorrelator, create_store,
                           export_session, import_session, legacy_correlate,
                           load_session, save_session)
from repro.backend.lanes import Derived, DocBatch
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
    overlays); ``legacy`` by :func:`legacy_correlate`; ``by_rows`` by
    the same correlator after every document was built, so that its
    one update lands on the dicts readers hold as well, in the same
    order.  The legacy twin answers for what a reader sees — scan
    bytes, report; the row twin for the epoch and every slot of every
    column, dictionary orders included (the two correlators reach
    the tags in different orders — first open in insertion order,
    first open in time order — so against the legacy twin those orders
    would differ for no fault of the lanes).
    """

    def __init__(self, fill, make=DocumentStore) -> None:
        # The oracle's store is always the plain one: a router takes
        # its writes lane-wise or by id, never by query.
        self.store, self.legacy, self.by_rows = make(), DocumentStore(), make()
        for each in self.all():
            fill(each)

    def all(self):
        return self.store, self.legacy, self.by_rows

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
    # the lanes (every row missing); the update then lands on that
    # column row by row and the documents stay parked.
    query = {"term": {"file_path": "/data/23"}}
    named = {"exists": {"field": "file_path"}}

    def fill(store):
        fed(how)(store)
        assert store.count(INDEX, query) == store.count(INDEX, named) == 0

    twins = Twins(fill)
    store, legacy = twins.store, twins.legacy
    twins.correlate()
    index = store._indices[INDEX]
    assert "file_path" in index.columns._columns
    assert hydrated(store) == (0 if how == "pending" else 40)
    matched = store.count(INDEX, query)
    assert matched == legacy.count(INDEX, query) > 0
    assert store.count(INDEX, named) == sum(
        "file_path" in source for _, source in legacy.scan(INDEX))
    # The postings exist now: a second update moves rows between them.
    rows = index.columns._columns["file_path"].rows_equal(["/data/23"])
    moved = [index.columns.doc_ids[row] for row in rows[:2]]
    for each in twins.all():
        assert each.update_docs(INDEX, moved,
                                {"file_path": ["/moved", "/moved"]}) == 2
        assert each.count(INDEX, query) == matched - 2
        assert each.count(INDEX, {"term": {"file_path": "/moved"}}) == 2
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
    store, legacy = twins.store, twins.legacy
    twins.correlate()
    assert hydrated(store) == (0 if how == "pending" else 40)
    answer = store.search(INDEX, size=0, aggs=aggs)["aggregations"]
    assert answer == legacy.search(INDEX, size=0, aggs=aggs)["aggregations"]
    assert answer["named"]["value"] > 0
    assert store.agg_stats()["pushdowns"] == legacy.agg_stats()["pushdowns"]
    twins.assert_same()


def test_an_outage_during_correlation_half_applies_nothing():
    twins = Twins(fed("pending"))
    store = twins.store
    now = [5]
    faulty = FaultyStore(store, FaultPlan([FaultWindow(0, 10)]),
                         clock=lambda: now[0],
                         protect=("bulk", "update_docs"))
    index = store._indices[INDEX]
    epoch = index.epoch
    with pytest.raises(InjectedFault):
        FilePathCorrelator(faulty).correlate(INDEX, session=SESSION)
    assert index.epoch == epoch and hydrated(store) == 0
    assert all(batch._overlay is None for _, batch in index._parts)
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
    # The loaded blocks have a file_path column: no overlay can say
    # "last key of the row", so their 60 rows were built (the 7 new
    # documents existed already).
    assert hydrated(store) == 60
    assert {source["file_path"] for _, source in store.scan(INDEX)
            if "file_tag" in source} == {f"/new-{tag}" for tag in range(7)}
    twins.assert_same()


@SHARDED
def test_a_loaded_session_that_was_never_correlated_takes_the_overlay(
        make, tmp_path):
    path = saved(tmp_path, correlated=False)
    twins = Twins(lambda store: load_session(store, path, index=INDEX), make)
    report = twins.correlate()
    assert report.tags_resolved == 4
    assert hydrated(twins.store) == 0
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
        # A window read builds the first rows' documents.
        store.search(INDEX, size=built)
    return fill


@SHARDED
@given(batches=st.lists(_batch, min_size=1, max_size=5),
       built=st.integers(0, 20), session=st.sampled_from([SESSION, None]))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_sessions_correlate_as_legacy_correlate(make, batches, built,
                                                       session):
    twins = Twins(_fill(batches, built), make)
    twins.correlate(session)
    # What a reader of the file_path column sees, on every twin.
    aggs = {"paths": {"terms": {"field": "file_path", "size": 20}},
            "named": {"value_count": {"field": "file_path"}}}
    answers = [each.search(INDEX, size=0, aggs=aggs)["aggregations"]
               for each in twins.all()]
    assert answers[0] == answers[1] == answers[2]
    for path in ("/a", "/b", "/c", "/named"):
        query = {"term": {"file_path": path}}
        assert len({each.count(INDEX, query) for each in twins.all()}) == 1
    twins.assert_same()
