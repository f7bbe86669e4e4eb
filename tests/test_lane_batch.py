"""The lane-batch protocol, run against every one of its producers.

``repro.backend.lanes.LaneBatch`` states what ``Index.bulk_append``,
``ColumnSet.extend_new``, the shard router, the fault/crash wrappers, the
correlator and the segment writer ask of a batch.  ``Lanes`` as
``RecordBatch.decode`` builds it (a decoded ring batch) and as a
``Segment`` hands it out (one file's decoded blocks), ``SegmentBatch``
(a loaded session's blocks), ``DocBatch`` (documents that already
exist) and ``JoinedBatch`` (any of them back to back) implement it;
every test here runs against each, on
a plain event-shaped batch and on one built to tempt the unsafe
shortcuts (``True``/``1``/``1.0`` in one lane, sparse and
explicitly-``None`` fields, a row order that needs the sort
permutation) — and a join of mixed parts also after a ``take``, and
one of lanes alone (what ``derive_lane`` gives a derived lane).
"""

import copy
import json
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import DocumentStore, SegmentBatch, SegmentStorage
from repro.analysis.session import READS, WRITES, SessionEvents
from repro.backend.lanes import (DocBatch, JoinedBatch, Lanes, Lookup,
                                 StructLane, _assemble_rows, _dense_int,
                                 _groups, derive_lane, sort_key, time_ordered)
from repro.backend.query import get_field
from repro.backend.segments import Segment, write_batch
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


def _ring(tricky: bool, rows=slice(None)) -> RecordBatch:
    return RecordBatch.decode(_records(40, tricky)[rows], session=SESSION)


class _Capture:
    """The one ``bulk_columnar`` call ``load_into`` makes."""

    def ensure_index(self, index, indexed_fields=None):
        pass

    def bulk_columnar(self, index, batch):
        self.batch = batch
        return len(batch)


def _tricky_docs(docs: list[dict]) -> list[dict]:
    """Shapes no tracer emits: a literal dotted key, an explicit
    ``None``, a missing and a float ``time``, reversed row order."""
    for i, doc in enumerate(docs):
        doc["args.path"] = f"literal-{i}"      # a key with a dot in it
        if i % 6 == 0:
            doc["file_tag"] = None              # explicit None
        if i % 7 == 0:
            del doc["time"]                     # forces the permutation
    docs[5]["time"] = 2.5
    docs.reverse()                              # segments overlap in time
    return docs


def _loaded(docs: list[dict], root) -> SegmentBatch:
    """``docs`` as segments of 12 and an unflushed tail, loaded back."""
    engine = SegmentStorage(root, flush_events=12)
    for start in range(0, len(docs), 4):
        engine.append(docs[start:start + 4], session=SESSION)
    assert engine.stats()["buffer_docs"] == len(docs) % 12
    capture = _Capture()
    engine.load_into(capture, rename_to=SESSION)
    engine.close()
    assert type(capture.batch) is SegmentBatch
    return capture.batch


def _segments(tricky: bool, tmp_path) -> SegmentBatch:
    """Three segments and an unflushed tail, loaded back as a batch."""
    docs = _ring(tricky).to_docs()
    if tricky:
        docs = _tricky_docs(docs)
    batch = _loaded(docs, tmp_path / "store")
    assert len(batch) == 40
    return batch


def _segment(tricky: bool, root) -> Lanes:
    """One segment file's blocks, as the unstamped lanes it hands out."""
    docs = _ring(tricky).to_docs()
    if tricky:
        docs = _tricky_docs(docs)
    root.mkdir(parents=True)
    write_batch(root / "seg.dseg", DocBatch(docs), session=SESSION, seq=1)
    lanes = Segment(root / "seg.dseg").lanes()
    assert type(lanes) is Lanes and len(lanes) == 40
    return lanes


def _joined_lanes(root) -> JoinedBatch:
    """A ring batch, a loaded session with no tail taken in order, and
    a ring batch: lanes all the way down."""
    loaded = _loaded(_ring(False, slice(12, 36)).to_docs(), root)
    return JoinedBatch([_ring(False, slice(0, 12)),
                        loaded.take(list(range(24))),
                        _ring(False, slice(36, 40))])


def _joined(tricky: bool, root) -> JoinedBatch:
    """A ring batch, documents and a loaded session, back to back."""
    docs = _ring(tricky, slice(12, 25)).to_docs()
    loaded = _ring(tricky, slice(25, 40)).to_docs()
    if tricky:
        docs = _tricky_docs(docs)
        loaded = _tricky_docs(loaded)
    return JoinedBatch([_ring(tricky, slice(0, 12)), DocBatch(docs),
                        _loaded(loaded, root)])


@pytest.fixture(params=["ring", "ring-tricky", "segment", "segment-tricky",
                        "segments", "segments-tricky", "docs", "docs-tricky",
                        "joined", "joined-tricky", "joined-taken",
                        "joined-lanes"])
def make(request, tmp_path):
    """A builder: every call returns a new, equal batch of 40 rows."""
    producer, _, variant = request.param.partition("-")
    tricky = variant == "tricky"
    roots = (tmp_path / f"store-{n}" for n in count())

    def build():
        if producer == "ring":
            return _ring(tricky)
        if producer == "segment":
            return _segment(tricky, next(roots))
        if producer == "segments":
            return _segments(tricky, next(roots))
        if producer == "docs":
            docs = _ring(tricky).to_docs()
            return DocBatch(_tricky_docs(docs) if tricky else docs)
        root = next(roots)
        if variant == "lanes":
            return _joined_lanes(root)
        if variant != "taken":
            return _joined(tricky, root)
        # 40 of a join's 52 rows, out of order, through two takes.
        wide = JoinedBatch([_joined(True, root / "a"), _ring(False,
                                                             slice(0, 12))])
        return wide.take(list(range(51, -1, -1))).take(
            [row for row in range(52) if row % 13 != 5][::-1][:40][::-1])

    build.producer = producer
    #: Lanes all the way down, no document among them.
    build.lanes_only = producer in ("ring", "segment") or variant == "lanes"
    return build


@pytest.fixture
def batch(make):
    return make()


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
        values = batch.values_for(field)
        groups = _groups(values)
        if groups is None:
            continue
        grouped_fields.append(field)
        # Exact str/int only: a bool or float key would merge rows a
        # per-document reader keeps apart.
        assert {type(value) for value, _ in groups} <= {str, int}, field
        assert {type(value) for value in values} <= {str, int,
                                                     type(None)}, field
        rows = [row for _, members in groups for row in members]
        assert sorted(rows) == [row for row, value in enumerate(values)
                                if value is not None], field
        for value, members in groups:
            assert members == sorted(members), field
            assert all(values[row] == value for row in members), field
        first_seen = list(dict.fromkeys(
            value for value in values if value is not None))
        assert [value for value, _ in groups] == first_seen, field
    assert {"syscall", "session"} <= set(grouped_fields)


def test_a_lane_of_true_one_and_one_point_zero_does_not_group(batch):
    pids = batch.values_for("pid")
    classes = {type(value) for value in pids}
    if classes == {bool, int, float}:
        assert _groups(pids) is None
        assert not _dense_int(pids)
    else:
        assert classes == {int}


def test_dense_int_means_every_value_is_an_exact_int(batch):
    dense = [field for field in fields_of(batch)
             if _dense_int(batch.values_for(field))]
    for field in dense:
        assert {type(value)
                for value in batch.values_for(field)} == {int}, field
    # The sparse, the explicitly-None and the stamped are never dense.
    assert not {"offset", "file_tag", "session", "args"} & set(dense)


def test_rows_of_is_the_per_row_filter(batch):
    # The rows a detector visits for a set of syscalls, off the codes of
    # a view whose one read is a batch, or a take of it.
    taken = batch.take([39, 0, 17, 2, 2, 31])
    for source in (batch, taken):
        view = SessionEvents(None, "i")
        view.__dict__["_read"] = ([], source, None)
        names = source.values_for("syscall")
        for syscalls in (READS, WRITES, ("open", "openat", "creat", "close"),
                         ()):
            assert view.syscall_rows(syscalls) == [
                row for row, name in enumerate(names) if name in syscalls]


@pytest.mark.parametrize("rows", [
    [3, 1, 2], list(range(39, -1, -1)), list(range(0, 40, 2)), [7], []])
def test_take_commutes_and_can_be_taken_again(batch, rows):
    docs = batch.to_docs()
    taken = batch.take(rows)
    assert len(taken) == len(rows)
    assert json.dumps(taken.to_docs()) == json.dumps(
        [docs[row] for row in rows])
    for field in fields_of(batch):
        whole = list(batch.values_for(field))
        assert tagged(taken.values_for(field)) == tagged(
            whole[row] for row in rows), field
    again = taken.take(list(range(len(rows)))[::-1])
    assert json.dumps(again.to_docs()) == json.dumps(
        [docs[row] for row in reversed(rows)])
    assert tagged(again.values_for("syscall")) == tagged(
        docs[row]["syscall"] for row in reversed(rows))


@pytest.mark.parametrize("rows", [
    [3, 1, 2], list(range(39, -1, -1)), range(8, 30), [7], []])
def test_docs_at_builds_those_rows_alone(make, rows):
    # Before ``to_docs``: the rows' documents, new; after: its dicts.
    batch, expected = make(), make().to_docs()
    built = batch.docs_at(rows)
    assert dumps(built) == dumps([expected[row] for row in rows])
    assert dumps(batch.docs_at(rows)) == dumps(built)
    docs = batch.to_docs()
    assert [id(doc) for doc in batch.docs_at(rows)] == [
        id(docs[row]) for row in rows]


@pytest.mark.parametrize("rows", [
    [1, 2, 3], list(range(0, 40, 3)), [39, 0, 17, 2, 2], range(8, 30), [7],
    []])
def test_a_join_reads_values_at_those_rows_of_values_for(make, rows):
    # Any producer as a part of a join (a join of joins included), and
    # the joined producers themselves, taken ones too.
    whole = make()
    joins = [JoinedBatch([make()]), JoinedBatch([make(), make()])]
    if isinstance(whole, JoinedBatch):
        joins.append(make())
    for batch in joins:
        for field in fields_of(whole):
            values = list(whole.values_for(field))
            assert tagged(batch.values_at(field, rows)) == tagged(
                values[row] for row in rows), field


def test_values_at_sees_an_overlay(make):
    # The path lane derived over a part is read like any other.
    batch = JoinedBatch([with_paths(make(), TABLE)])
    expected = named(copy.deepcopy(make().to_docs()), TABLE)
    rows = [1, 2, 4, 9, 30, 38]
    paths = [expected[row].get("file_path") for row in rows]
    assert set(paths) == {None, "/zero"}
    assert batch.values_at("file_path", rows) == paths
    assert tagged(batch.values_at("syscall", rows)) == tagged(
        expected[row]["syscall"] for row in rows)


def test_docs_at_sees_an_overlay(make):
    batch = with_paths(make(), TABLE)
    expected = named(copy.deepcopy(make().to_docs()), TABLE)
    rows = [30, 1, 9, 2, 38]
    assert dumps(batch.docs_at(rows)) == dumps([expected[row]
                                                for row in rows])
    taken = batch.take(list(range(39, -1, -1)))
    assert dumps(taken.docs_at([9, 37, 1])) == dumps([expected[30],
                                                      expected[2],
                                                      expected[38]])


def test_args_travel_as_a_struct_lane_and_read_as_fresh_dicts(make):
    # Every producer but the one that *is* its documents hands ``args``
    # to a reader and to the writer as a struct lane — a ring batch
    # sanitised lane by lane, decoded kind-4 blocks, a join of either
    # with documents, a take of a take — and no two reads of a row
    # share a dict.
    batch, docs = make(), make().to_docs()
    lane = batch.values_for("args")
    column, = [values for field, values, _ in batch.columns()
               if field == "args"]
    if make.producer == "docs":
        assert type(lane) is type(column) is list
        return
    assert type(lane) is type(column) is StructLane
    for held in (lane, column, column.take(range(40))):
        assert dumps(list(held)) == dumps([doc["args"] for doc in docs])
        assert list(held)[3] is not list(held)[3]
        assert all(a is not b for a, b in zip(held, held))
    assert all(held is not doc["args"]
               for held, doc in zip(lane, batch.to_docs()))
    # ``statbuf`` is an out-parameter: sanitised away on the ring, so
    # no shape of any producer has it.
    assert {key for shape in lane.shapes for key in shape} == {"fd", "path"}


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
    # (A batch that is its documents has nothing to build.)
    parked = 0 if type(batch) is DocBatch else 40
    assert index.pending_docs == parked and index.hydrated_docs_total == 0
    held = [source for _, source in store.scan("idx")]
    docs = batch.to_docs()
    assert docs is batch.to_docs()
    assert [id(doc) for doc in held] == [id(doc) for doc in docs]
    assert all(doc["session"] == SESSION for doc in docs)


# ---------------------------------------------------------------------------
# columns(): what a writer reads

def dumps(docs) -> str:
    """Bytes that show key order, value classes, NaN and ``-0.0``."""
    return json.dumps(docs, default=repr)


def reassembled(batch) -> list[dict]:
    """The documents, rebuilt from ``columns()`` and ``row_keys()`` by
    the one row assembler — one call per distinct row key order."""
    columns = {field: (list(values), present)
               for field, values, present in batch.columns()}
    assert len(columns) == len(batch.columns())
    runs: dict[tuple, list[int]] = {}
    for row in range(len(batch)):
        runs.setdefault(tuple(batch.row_keys(row)), []).append(row)
    docs = [None] * len(batch)
    for keys, rows in runs.items():
        built = _assemble_rows(len(rows), [
            (key, [columns[key][0][row] for row in rows], None)
            for key in keys])
        for row, doc in zip(rows, built):
            docs[row] = doc
    return docs


def test_columns_reassemble_into_the_documents_key_order_included(batch):
    docs = batch.to_docs()
    assert dumps(reassembled(batch)) == dumps(docs)
    for field, values, present in batch.columns():
        values = list(values)
        assert len(values) == len(batch), field
        assert present is None or (len(present) == len(batch)
                                   and 0 in present), field
        for row, doc in enumerate(docs):
            # An explicit None is present, an absent key is not — and
            # its slot in the lane reads None.
            carried = present is None or bool(present[row])
            assert carried == (field in doc), (field, row)
            assert carried or values[row] is None, (field, row)


@pytest.mark.parametrize("rows", [
    [3, 1, 2], list(range(39, -1, -1)), range(8, 30), [7], []])
def test_take_commutes_with_columns(batch, rows):
    docs = batch.to_docs()
    taken = batch.take(rows)
    assert dumps(reassembled(taken)) == dumps([docs[row] for row in rows])


# ---------------------------------------------------------------------------
# derive_lane(): a path table laid over rows nobody hydrated
#
# An *overlay* below is that table laid over a batch: the derived
# ``file_path`` lane of a batch of lanes, the key set on the documents
# of any other.

#: A session's ``file_tag -> file_path`` tables: ``tag-1`` rows stay
#: without a path under the first, and no row holds ``tag-9``.
TABLE = {"tag-0": "/zero", "tag-9": "/nowhere"}
SECOND = {"tag-0": "/again", "tag-1": "/one"}


def with_paths(batch, table: dict, field: str = "file_path"):
    """What ``Index.set_paths`` makes of a part whose rows are all the
    session's: the part with a lane derived from ``file_tag`` — or,
    where only its rows can say where the key goes, its documents with
    the key set."""
    derived = derive_lane(batch, field, "file_tag", Lookup(table))
    if derived is not None:
        return derived
    return DocBatch(named(batch.to_docs(), table, field))


def named(docs: list[dict], table: dict,
          field: str = "file_path") -> list[dict]:
    """``docs``, each whose tag ``table`` holds given ``field``: the
    oracle, ``dict.__setitem__``."""
    for doc in docs:
        if doc.get("file_tag") in table:
            doc[field] = table[doc["file_tag"]]
    return docs


def assert_reads_as(batch, expected: list[dict]) -> None:
    """Every reader of the protocol agrees with ``expected``."""
    for field in list(dict.fromkeys(
            field for doc in expected for field in doc)) + list(
                EXTRA_FIELDS) + ["file_path.x"]:
        assert tagged(batch.values_for(field)) == tagged(
            get_field(doc, field) for doc in expected), field
    assert dumps(reassembled(batch)) == dumps(expected)
    assert dumps(batch.to_docs()) == dumps(expected)


@pytest.mark.parametrize("memoised", [False, True],
                         ids=["lanes", "docs-built"])
def test_an_overlay_is_dict_update_to_every_reader(make, memoised):
    batch, expected = make(), copy.deepcopy(make().to_docs())
    before = copy.deepcopy(expected)
    if memoised:
        batch.to_docs()                 # the tap or the journal built them
        batch.values_for("file_path")   # and a reader cached the lane
    derived = with_paths(batch, TABLE)
    assert_reads_as(derived, named(expected, TABLE))
    assert derived.to_docs() is derived.to_docs()
    if type(derived) is not DocBatch:
        # A new batch: the one it was derived from reads as before.
        assert_reads_as(batch, before)


def test_each_row_takes_its_own_value_and_a_repeated_row_its_last(make):
    # A second table over rows named already: a lane batch has the
    # field as a lane now, so its documents take the key — where the
    # first table put it — and the last path.
    batch, expected = make(), copy.deepcopy(make().to_docs())
    again = with_paths(with_paths(batch, TABLE), SECOND)
    assert type(again) is DocBatch
    assert_reads_as(again, named(named(expected, TABLE), SECOND))


@pytest.mark.parametrize("order", ["overlay-then-take",
                                   "take-then-overlay"])
def test_an_overlay_and_take(make, order):
    rows = [30, 3, 4, 21, 9]
    expected = named([copy.deepcopy(make().to_docs())[row] for row in rows],
                     TABLE)
    batch = make()
    if order == "overlay-then-take":
        taken = with_paths(batch, TABLE).take(rows)
    else:
        taken = with_paths(batch.take(rows), TABLE)
    assert_reads_as(taken, expected)
    again = taken.take(range(1, 4))
    assert_reads_as(with_paths(again, SECOND), named(expected[1:4], SECOND))


@pytest.mark.parametrize("field", ["syscall", "args", "file_tag", "late"],
                         ids=["own-column", "args-column", "half-own",
                              "second-shape"])
def test_an_overlay_the_lanes_cannot_hold_is_refused(make, field):
    # Only lanes take a derived lane, and only of a field they have no
    # lane for; a second one lands after the first.  Anything else is
    # refused and the index names the part's documents instead.
    batch, expected = make(), named(copy.deepcopy(make().to_docs()), TABLE)
    derived = derive_lane(batch, "file_path", "file_tag", Lookup(TABLE))
    assert (derived is not None) == make.lanes_only
    if derived is None:
        return
    assert_reads_as(derived, expected)
    again = derive_lane(derived, field, "file_tag", Lookup(SECOND))
    assert (again is not None) == (field == "late")
    if again is not None:
        assert_reads_as(again, named(expected, SECOND, "late"))


def test_a_path_table_on_a_part_with_a_path_lane_hydrates_it(make):
    store, oracle = DocumentStore(), DocumentStore()
    store.bulk_columnar("idx", make())
    oracle.bulk("idx", copy.deepcopy(make().to_docs()))
    index = store._indices["idx"]
    # (A batch that is its documents has nothing to hydrate.)
    parked = 0 if make.producer == "docs" else 40
    store.set_paths("idx", TABLE)
    built = 0 if make.lanes_only else parked
    assert index.hydrated_docs_total == built
    assert index.pending_docs == parked - built
    # The part has a path lane now: the next table builds its rows.
    store.set_paths("idx", SECOND)
    assert index.hydrated_docs_total == parked
    assert index.pending_docs == 0
    for table in (TABLE, SECOND):
        oracle.set_paths("idx", table)
    assert dumps(store.scan("idx")) == dumps(oracle.scan("idx"))
    assert index.epoch == oracle._indices["idx"].epoch == 40 + 2


# ---------------------------------------------------------------------------
# time_ordered(): the one row-ordering rule

_times = st.one_of(
    st.lists(st.integers(0, 50), max_size=12),              # dense
    st.lists(st.integers(0, 50), max_size=12).map(sorted),  # ... and sorted
    st.lists(st.one_of(st.integers(-5, 50), st.just(1 << 70)), max_size=12),
    st.lists(st.one_of(st.integers(0, 9), st.sampled_from(
        ["absent", None, 2.5, -0.0, True, "late", float("inf")])),
        max_size=12))                                       # mixed classes


@settings(max_examples=300, deadline=None)
@given(times=_times, as_ring=st.booleans())
def test_time_ordered_is_the_stable_sort_key_permutation(times, as_ring):
    """Dense int lanes sort the ints themselves (every key would be
    ``(1, "num", t)``); anything else sorts ``sort_key`` tuples.  Same
    permutation either way, and none at all for a sorted dense lane."""
    if as_ring and set(map(type, times)) <= {int}:
        batch = RecordBatch.decode([
            {"syscall": "read", "args": {}, "ret": row, "pid": 1, "tid": 1,
             "comm": "app", "enter_ns": t, "exit_ns": t}
            for row, t in enumerate(times)])
    else:
        batch = DocBatch([{"ret": row} if t == "absent"
                          else {"ret": row, "time": t}
                          for row, t in enumerate(times)])
    read = [None if t == "absent" else t for t in times]
    expected = sorted(range(len(read)), key=lambda row: sort_key(read[row]))
    ordered = time_ordered(batch)
    assert ordered.values_for("ret") == expected
    if _dense_int(batch.values_for("time")):
        assert set(map(type, read)) <= {int}
        assert (ordered is batch) == (read == sorted(read))
