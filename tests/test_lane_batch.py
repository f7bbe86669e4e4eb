"""The lane-batch protocol, run against both of its producers.

``repro.backend.store.LaneBatch`` states what ``Index.bulk_append``,
``Index._flush_lanes``, the shard router and the fault/crash wrappers
ask of a batch.  ``RecordBatch`` (a decoded ring batch) and
``SegmentBatch`` (a loaded session's blocks) both implement it; every
test here runs against each, on a plain event-shaped batch and on one
built to tempt the unsafe shortcuts (``True``/``1``/``1.0`` in one
lane, sparse and explicitly-``None`` fields, a row order that needs
the sort permutation).
"""

import json

import pytest

from repro.backend import DocumentStore, SegmentBatch, SegmentStorage
from repro.backend.query import get_field
from repro.tracer import RecordBatch

SESSION = "lane-batch"
#: A dotted path into ``args`` and a field nobody has, on top of
#: whatever the batch's own documents carry.
EXTRA_FIELDS = ("args.path", "args.statbuf.size", "session", "session.x",
                "nobody_has_this", "nobody.has.this")


def _records(n: int, tricky: bool) -> list[dict]:
    records = []
    for i in range(n):
        record = {"syscall": ("read", "write", "openat")[i % 3],
                  "args": {"fd": i % 4, "path": f"/data/{i % 3}",
                           "statbuf": {"size": i}},
                  "ret": i - 2, "pid": 10 + i % 2, "tid": 20 + i % 5,
                  "comm": ("app", "flusher")[i % 2],
                  "enter_ns": 1000 + 7 * i, "exit_ns": 1003 + 7 * i}
        if i % 3:
            record["file_tag"] = f"tag-{i % 2}"
        if i % 4 == 0:
            record["offset"] = 512 * i
        if i % 5:
            record["file_type"] = "regular"
        if tricky:
            record["pid"] = (True, 1, 1.0)[i % 3]
            record["tid"] = None if i % 4 == 0 else 20 + i % 5
            record["ret"] = (1 << 70) if i == 3 else i - 2
        records.append(record)
    return records


def _ring(tricky: bool) -> RecordBatch:
    return RecordBatch.decode(_records(40, tricky), session=SESSION)


class _Capture:
    """The one ``bulk_columnar`` call ``load_into`` makes."""

    def ensure_index(self, index, indexed_fields=None):
        pass

    def bulk_columnar(self, index, batch):
        self.batch = batch
        return len(batch)


def _segments(tricky: bool, tmp_path) -> SegmentBatch:
    """Three segments and an unflushed tail, loaded back as a batch."""
    docs = _ring(tricky).to_docs()
    if tricky:
        for i, doc in enumerate(docs):
            doc["args.path"] = f"literal-{i}"      # a key with a dot in it
            if i % 6 == 0:
                doc["file_tag"] = None              # explicit None
            if i % 7 == 0:
                del doc["time"]                     # forces the permutation
        docs[5]["time"] = 2.5
        docs.reverse()                              # segments overlap in time
    engine = SegmentStorage(tmp_path / "store", flush_events=12)
    for start in range(0, len(docs), 4):
        engine.append(docs[start:start + 4], session=SESSION)
    assert len(engine.segments()) == 3 and engine.stats()["buffer_docs"] == 4
    capture = _Capture()
    engine.load_into(capture, rename_to=SESSION)
    engine.close()
    assert type(capture.batch) is SegmentBatch
    return capture.batch


@pytest.fixture(params=["ring", "ring-tricky", "segments",
                        "segments-tricky"])
def batch(request, tmp_path):
    producer, _, tricky = request.param.partition("-")
    if producer == "ring":
        return _ring(bool(tricky))
    return _segments(bool(tricky), tmp_path)


def fields_of(batch) -> list[str]:
    seen = dict.fromkeys(field for doc in batch.to_docs() for field in doc)
    return list(seen) + list(EXTRA_FIELDS)


def tagged(values) -> list:
    """Values with their classes visible (``True == 1 == 1.0``)."""
    return [(type(value).__name__, repr(value)) for value in values]


def test_values_for_reads_what_get_field_reads(batch):
    docs = batch.to_docs()
    assert len(docs) == len(batch) == 40
    for field in fields_of(batch):
        assert tagged(batch.values_for(field)) == tagged(
            get_field(doc, field) for doc in docs), field


def test_groups_partition_the_non_none_rows_in_first_seen_order(batch):
    grouped_fields = []
    for field in fields_of(batch):
        groups = batch.groups_for(field)
        if groups is None:
            continue
        grouped_fields.append(field)
        values = batch.values_for(field)
        # Exact str/int only: a bool or float key would merge rows a
        # per-document index keeps apart.
        assert {type(value) for value, _ in groups} <= {str, int}, field
        assert {type(value) for value in values} <= {str, int,
                                                     type(None)}, field
        rows = [row for _, members in groups for row in members]
        assert sorted(rows) == [row for row, value in enumerate(values)
                                if value is not None], field
        for value, members in groups:
            members = list(members)
            assert members == sorted(members), field
            assert all(values[row] == value for row in members), field
        first_seen = list(dict.fromkeys(
            value for value in values if value is not None))
        assert [value for value, _ in groups] == first_seen, field
    assert {"syscall", "session"} <= set(grouped_fields)


def test_a_lane_of_true_one_and_one_point_zero_does_not_group(batch):
    classes = {type(value) for value in batch.values_for("pid")}
    if classes == {bool, int, float}:
        assert batch.groups_for("pid") is None
        assert not batch.dense_int("pid")
    else:
        assert classes == {int}


def test_dense_int_means_every_value_is_an_exact_int(batch):
    dense = [field for field in fields_of(batch) if batch.dense_int(field)]
    for field in dense:
        assert {type(value)
                for value in batch.values_for(field)} == {int}, field
    # The sparse, the explicitly-None and the stamped are never dense.
    assert not {"offset", "file_tag", "session", "args"} & set(dense)


@pytest.mark.parametrize("rows", [
    [3, 1, 2], list(range(39, -1, -1)), list(range(0, 40, 2)), [7], []])
def test_take_commutes_and_can_be_taken_again(batch, rows):
    docs = batch.to_docs()
    taken = batch.take(rows)
    assert len(taken) == len(rows)
    assert json.dumps(taken.to_docs()) == json.dumps(
        [docs[row] for row in rows])
    for field in fields_of(batch):
        whole = batch.values_for(field)
        assert tagged(taken.values_for(field)) == tagged(
            whole[row] for row in rows), field
        groups = taken.groups_for(field)
        if groups is not None:
            assert sorted(row for _, members in groups
                          for row in members) == [
                i for i, row in enumerate(rows) if whole[row] is not None]
        if batch.dense_int(field):
            assert taken.dense_int(field), field
    again = taken.take(list(range(len(rows)))[::-1])
    assert json.dumps(again.to_docs()) == json.dumps(
        [docs[row] for row in reversed(rows)])
    assert tagged(again.values_for("syscall")) == tagged(
        docs[row]["syscall"] for row in reversed(rows))


@pytest.mark.parametrize("tricky", [False, True])
def test_a_segment_batch_assembles_each_row_once(tricky, tmp_path):
    # The router takes per-shard sub-batches off a loaded session that
    # nobody has hydrated yet; whichever shard hydrates first, a row is
    # built once — not once per shard that holds a piece of the load.
    batch = _segments(tricky, tmp_path)
    halves = [batch.take(list(range(0, 40, 2))),
              batch.take(list(range(1, 40, 2)))]
    built = [half.to_docs() for half in halves]
    docs = batch.to_docs()
    assert [id(doc) for doc in built[0]] == [id(doc) for doc in docs[0::2]]
    assert [id(doc) for doc in built[1]] == [id(doc) for doc in docs[1::2]]


def test_to_docs_is_memoised_and_the_store_holds_those_dicts(batch):
    store = DocumentStore()
    store.bulk_columnar("idx", batch)
    index = store._indices["idx"]
    assert index.pending_docs == 40 and index.hydrated_docs_total == 0
    held = [source for _, source in store.scan("idx")]
    docs = batch.to_docs()
    assert docs is batch.to_docs()
    assert [id(doc) for doc in held] == [id(doc) for doc in docs]
    assert all(doc["session"] == SESSION for doc in docs)
