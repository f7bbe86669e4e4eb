"""``Column.extend`` is ``append`` in a loop — slot for slot.

The lane-wise passes of :meth:`Column.extend` (exact-int and exact
str/``None`` lanes) must leave every slot of the column exactly as
per-row ``append`` leaves it: the ``supports()`` gate reads
``collisions``/``unencodable``/``simple``/``num_kind`` and the bisect
bucketiser reads ``num_sorted``, so a wrong flag is a wrong answer, not
a slow one.  The same comparison covers ``ColumnSet.ensure_column``
built from an index's parts against per-row ``append`` of its
documents.
"""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import (DocumentStore, SegmentBatch, load_session,
                           naive_aggregate, save_session)
from repro.backend.columns import Column
from repro.backend.lanes import DocBatch
from repro.backend.query import get_field
from repro.backend.segments import K_DICT, K_STRUCT, Segment, write_batch
from repro.tracer import RecordBatch
from repro.tracer.events import _sanitize_args, sanitized_lane

#: Every slot except the cache (the sorted permutation a ``range`` over
#: an unsorted lane keeps).
SLOTS = [slot for slot in Column.__slots__ if slot != "_order"]

BIG = 1 << 63                           # first int beyond int64


def state(column: Column) -> dict:
    """Every compared slot, with classes made visible.

    ``1 == 1.0 == True`` and ``0.0 == -0.0``, so values are compared
    by ``(class, repr)``; ``nums`` keeps its container class.
    """
    def tagged(value):
        return (type(value).__name__, repr(value))

    out = {}
    for slot in SLOTS:
        value = getattr(column, slot)
        if slot == "table":
            value = [tagged(v) for v in value]
        elif slot == "_code_of":
            value = [(cls.__name__, [(tagged(k), code)
                                     for k, code in codes.items()])
                     for cls, codes in value.items()]
        elif slot == "nums":
            value = (type(value).__name__,
                     None if value is None else [tagged(v) for v in value])
        elif slot == "_num_hi":
            value = tagged(value)
        elif slot in ("codes", "nonnull", "numeric"):
            value = list(value)
        out[slot] = value
    return out


def by_append(values) -> Column:
    column = Column("f")
    for value in values:
        column.append(value)
    return column


def by_extend(chunks) -> Column:
    column = Column("f")
    for chunk in chunks:
        column.extend(chunk)
    return column


ints = st.one_of(st.integers(-5, 5), st.integers(-BIG, BIG - 1))
strs = st.sampled_from(["", "a", "b", "read", "write", "1"])
anything = st.one_of(
    ints, strs, st.none(), st.booleans(),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, float("nan"), float("inf")]),
    st.sampled_from([BIG, -BIG - 1, 10 ** 30]),
    st.sampled_from([(1, "a"), (), [1], {"k": 1}]),
)
#: One chunk is usually a clean lane (what ``extend`` has passes for),
#: sometimes anything at all; a column is a few chunks back to back.
chunk = st.one_of(
    st.lists(ints, max_size=8),
    st.lists(st.integers(0, 50), max_size=8).map(sorted),
    st.lists(st.one_of(strs, st.none()), max_size=8),
    st.lists(st.none(), max_size=3),
    st.lists(anything, max_size=6),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(chunk, max_size=6))
def test_extend_in_chunks_equals_append_per_row(chunks):
    flat = [value for part in chunks for value in part]
    assert state(by_extend(chunks)) == state(by_append(flat))


@pytest.mark.parametrize("chunks", [
    [["a", "b"], [1, 2]],                       # str then int
    [[1, 2], ["a", None]],                      # int then str
    [[1, 2], [True, False]],                    # int then bool: collision
    [[1, 2], [1.0]],                            # int then float
    [[1, 2], [BIG]],                            # ints beyond int64 stay 'q'
    [[BIG], [1, 2]],                            # ... in either order
    [[1, 2, 3], [2, 5]],                        # decrease across chunks
    [[1, 2, 3], [4, 3, 9]],                     # decrease inside a chunk
    [[3, 2], [5, 6]],                           # sorted after unsorted
    [[None, None], [4, 4]],                     # numeric lane starts late
    [[[1]], ["a"], [1]],                        # unencodable first
    [[], ["a"], [], [1]],                       # empty chunks
    [["a", None, "a"], [None], ["b", "a"]],     # code reuse across chunks
], ids=lambda chunks: json.dumps(chunks, default=repr))
def test_chunks_that_switch_class_or_break_monotonicity(chunks):
    flat = [value for part in chunks for value in part]
    assert state(by_extend(chunks)) == state(by_append(flat))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.one_of(strs, ints, st.none(),
                                                    st.just(True)),
                          st.integers(0, 4)), max_size=6),
       st.booleans())
def test_a_repeated_value_is_the_list_of_it(runs, posted):
    # ``extend_repeated`` (a stamped lane: one code repeated) leaves
    # every slot as ``extend`` of the list would, postings included.
    repeated, listed = Column("f"), Column("f")
    for number, (stamped, value, rows) in enumerate(runs):
        if posted and number == 1:
            for column in (repeated, listed):
                column.rows_equal(["a"])
        if stamped:
            repeated.extend_repeated(value, rows)
        else:
            repeated.extend([value] * rows)
        listed.extend([value] * rows)
    assert state(repeated) == state(listed)


def test_a_stamped_session_enters_its_column_unbuilt(monkeypatch, tmp_path):
    # A one-session store's ``session`` term (the correlator's and the
    # save's) learns that the column holds every row without building
    # one stamp list — over ring batches and over a loaded session —
    # and answers as the column built from the documents does.
    import repro.backend.lanes as lanes_module

    def built(self, rows):
        raise AssertionError("a stamp list was built")

    batches = [RecordBatch.decode(_records(24)[start:start + 8],
                                  session="s") for start in range(0, 24, 8)]
    rings = DocumentStore()
    for batch in batches:
        rings.bulk_columnar("idx", batch)
    docs = DocumentStore()
    docs.bulk("idx", RecordBatch.decode(_records(24), session="s").to_docs())
    save_session(rings, "s", tmp_path / "store", index="idx",
                 flush_events=10)
    loaded = DocumentStore()
    load_session(loaded, tmp_path / "store", index="idx")
    monkeypatch.setattr(lanes_module.Repeated, "__call__", built)
    query = {"term": {"session": "s"}}
    for store in (rings, loaded):
        assert store.count("idx", query) == 24
        assert store.lanes("idx", query)[0] == docs.lanes("idx", query)[0]
        column = store._indices["idx"].column("session")
        oracle = column_of_documents(docs._indices["idx"], "session")
        assert state(column) == state(oracle)
        # A later batch extends the column as one code repeated too.
        store.bulk_columnar("idx", RecordBatch.decode(_records(3), "s"))
        assert store.count("idx", query) == 27


def test_sorted_flag_freezes_at_the_first_decrease():
    # The bisect bucketiser trusts ``num_sorted``: a decreasing chunk
    # after a monotone one must drop it, and the frontier must stop on
    # the last row before the decrease, as per-row append leaves it.
    column = by_extend([[10, 20, 30], [40, 35, 50]])
    assert not column.num_sorted
    assert (column._hi_row, column._num_hi) == (3, 40)
    column = by_extend([[10, 20, 30], [30, 31]])
    assert column.num_sorted
    assert (column._hi_row, column._num_hi) == (4, 31)


#: A bucket and two metrics over one int field.
_BIG_AGGS = {
    "h": {"date_histogram": {"field": "n", "fixed_interval": 7}},
    "s": {"stats": {"field": "n"}},
    "p": {"percentiles": {"field": "n", "percents": [5, 50, 99]}},
}


@settings(max_examples=150, deadline=None)
@given(small=st.lists(st.integers(-50, 50), max_size=10),
       big=st.lists(st.one_of(st.sampled_from([BIG, -BIG - 1, 10 ** 30]),
                              st.integers(-4 * BIG, 4 * BIG)),
                    min_size=1, max_size=4),
       ordered=st.booleans(), as_lanes=st.booleans())
def test_ints_beyond_int64_stay_exact_ints_and_push_down(small, big, ordered,
                                                         as_lanes):
    # ``'q'`` is exact ints of any size: no int64 bound sends a column
    # to ``'obj'``, where a histogram would fall back to the documents.
    numbers = small + big
    if ordered:
        numbers.sort()                  # the bisect bucketiser's shape
    docs = [{"n": n} for n in numbers]
    store = DocumentStore()
    if as_lanes:
        store.bulk_columnar("idx", DocBatch(copy.deepcopy(docs)))
    else:
        store.bulk("idx", copy.deepcopy(docs))
    index = store._indices["idx"]
    assert index.column("n").num_kind == "q"
    counts = store.agg_pushdowns, store.agg_fallbacks
    response = store.search("idx", aggs=_BIG_AGGS, size=0)
    assert (store.agg_pushdowns, store.agg_fallbacks) == (counts[0] + 1,
                                                          counts[1])
    assert json.dumps(response["aggregations"]) == json.dumps(
        naive_aggregate(index, None, _BIG_AGGS))


# ---------------------------------------------------------------------------
# ensure_column: lanes vs documents

def column_of_documents(index, field: str) -> Column:
    """What per-row ``append`` of the index's documents builds."""
    column = Column(field)
    for _, doc in index.documents():
        column.append(get_field(doc, field))
    return column


def _records(n: int) -> list[dict]:
    return [{"syscall": ("read", "write", "close")[i % 3],
             "args": {"fd": i % 4, "path": f"/f{i % 2}"},
             "ret": (i * 7) % 5 - 1, "pid": 10 + i % 2, "tid": 20 + i % 3,
             "comm": "app", "enter_ns": 100 + 10 * i,
             "exit_ns": 105 + 10 * i,
             **({"file_tag": f"tag{i % 2}"} if i % 4 else {}),
             **({"offset": i} if i % 3 == 0 else {})}
            for i in range(n)]


FIELDS = ("syscall", "time", "ret", "pid", "file_tag", "offset",
          "duration_ns", "session", "args", "args.path", "args.fd",
          "file_path", "nobody.has.this")


@pytest.mark.parametrize("hydrated_batches", [0, 1, 2])
def test_column_built_from_lanes_equals_column_built_from_docs(
        hydrated_batches):
    batches = [_records(24)[start:start + 8] for start in range(0, 24, 8)]
    lanes = DocumentStore()
    for i, records in enumerate(batches):
        if i and i == hydrated_batches:
            lanes.scan("idx")           # hydrate what is there so far
        lanes.bulk_columnar("idx", RecordBatch.decode(records, session="s"))
    docs = DocumentStore()
    docs.bulk("idx", [doc for records in batches for doc in
                      RecordBatch.decode(records, session="s").to_docs()])
    index, oracle_index = lanes._indices["idx"], docs._indices["idx"]
    assert index.pending_docs == 24 - 8 * hydrated_batches
    for field in FIELDS:
        built = index.column(field)
        oracle = column_of_documents(oracle_index, field)
        assert state(built) == state(oracle), field
    # Building columns read the pending rows as lanes: none hydrated.
    assert index.pending_docs == 24 - 8 * hydrated_batches


def test_column_built_after_a_put_reads_documents_then_parked_lanes():
    def fill(ingest) -> DocumentStore:
        store = DocumentStore()
        ingest(store, RecordBatch.decode(_records(6), session="s"))
        store.bulk("idx", [{"syscall": "late"}])              # row 6
        ingest(store, RecordBatch.decode(_records(3), session="s"))
        return store

    lanes = fill(lambda store, batch: store.bulk_columnar("idx", batch))
    docs = fill(lambda store, batch: store.bulk("idx", batch.to_docs()))
    index, oracle_index = lanes._indices["idx"], docs._indices["idx"]
    column = index.column("time")
    assert index.pending_docs == 9      # the put built nothing
    assert list(column.nonnull) == [1, 1, 1, 1, 1, 1, 0, 1, 1, 1]
    assert not column.num_sorted        # 150, then 100 again
    assert state(column) == state(column_of_documents(oracle_index, "time"))


def test_args_columns_of_a_loaded_session_are_read_off_the_key_lanes(
        tmp_path):
    source = DocumentStore()
    source.bulk_columnar("idx", RecordBatch.decode(_records(24), session="s"))
    save_session(source, "s", tmp_path / "store", index="idx",
                 flush_events=10)
    loaded, docs = DocumentStore(), DocumentStore()
    load_session(loaded, tmp_path / "store", index="idx")
    docs.bulk("idx", [source for _, source in source.scan("idx")])
    index, oracle_index = loaded._indices["idx"], docs._indices["idx"]
    for field in ("args", "args.path", "args.fd", "args.nope",
                  "args.fd.deeper"):
        built = index.column(field)
        oracle = column_of_documents(oracle_index, field)
        assert state(built) == state(oracle), field
    assert index.pending_docs == 24 and index.hydrated_docs_total == 0


# ---------------------------------------------------------------------------
# args, sanitised a lane at a time

class Exotic:
    def __str__(self) -> str:
        return "<exotic>"


class Path(str):
    """A ``str`` subclass: recorded as it is, like a ``str``."""


_buffers = st.one_of(st.binary(max_size=4),
                     st.binary(max_size=4).map(bytearray))
_raw_values = st.one_of(
    st.integers(-3, 3), st.sampled_from(["", "/a", "O_RDWR"]), st.none(),
    st.booleans(), st.sampled_from([0.0, 2.5, float("nan")]), _buffers,
    st.lists(st.one_of(_buffers, st.integers(0, 2), st.none()), max_size=3),
    st.sampled_from([{}, {"size": 1}, {"size": 1, "times": {"a": [1]}}]),
    st.sampled_from([Exotic(), (1, 2), frozenset((1,)), Path("/p"), BIG]))
#: A syscall's arguments: usually one rule per key (``buf`` a buffer,
#: ``statbuf`` an out-parameter), sometimes anything under any key.
_raw_args = st.one_of(
    st.fixed_dictionaries({}, optional={
        "fd": st.integers(0, 4), "buf": _buffers,
        "path": st.sampled_from(["/a", "/b"]),
        "iov": st.lists(_buffers, max_size=3),
        "statbuf": st.sampled_from([{}, {"size": 1}]),
        "how": st.sampled_from([Exotic(), (1, 2)])}),
    st.dictionaries(st.sampled_from(["fd", "buf", "path", "statbuf", 7]),
                    _raw_values, max_size=4),
).flatmap(lambda args: st.permutations(list(args.items())).map(dict))


def _ring_records(raw_args: list[dict]) -> list[dict]:
    return [{"syscall": "read", "args": args, "ret": 0, "pid": 1, "tid": 1,
             "comm": "app", "enter_ns": row, "exit_ns": row + 1}
            for row, args in enumerate(raw_args)]


@settings(max_examples=500, deadline=None)
@given(st.lists(_raw_args, max_size=10))
def test_sanitising_lane_by_lane_is_sanitising_row_by_row(raw_args):
    expected = [_sanitize_args(args) for args in raw_args]
    tagged = json.dumps(expected)       # key order, true/1/1.0, NaN
    lane = sanitized_lane(raw_args)
    assert json.dumps(lane.dicts()) == tagged
    assert json.dumps(list(lane)) == tagged
    # ... and through the batch: the lane itself, the documents, one
    # argument of every row — asked before and after ``args`` was.
    for ask_path_first in (True, False):
        batch = RecordBatch.decode(_ring_records(raw_args))
        paths = [get_field({"args": args}, "args.path") for args in expected]
        if ask_path_first:
            assert json.dumps(batch.values_for("args.path")) \
                == json.dumps(paths)
        assert json.dumps(list(batch.values_for("args"))) == tagged
        assert json.dumps([doc["args"] for doc in batch.to_docs()]) == tagged
        for key in ("path", "buf", "statbuf", "statbuf.size", "nope"):
            assert json.dumps(batch.values_for(f"args.{key}")) == json.dumps(
                [get_field({"args": args}, f"args.{key}")
                 for args in expected]), key


# ---------------------------------------------------------------------------
# args on disk: the struct block, and the dictionary block behind it

def _round_trip(docs: list[dict], path) -> tuple[int, list[dict]]:
    """``(kind of the args block, the documents read back)``."""
    write_batch(path, DocBatch(copy.deepcopy(docs)), session="s", seq=1)
    segment = Segment(path)
    kind = path.read_bytes()[segment._fields["args"][0]]
    loaded = SegmentBatch([segment], [], "s").to_docs()
    for doc in loaded:
        assert doc.pop("session") == "s"
    assert json.dumps(loaded) == json.dumps(Segment(path).docs())
    return kind, loaded


_STRUCT_ARGS = [
    {"fd": 3, "buf": 512},
    {"buf": 512, "fd": 3},                      # the same keys, reordered
    {},
    {"fd": None},                               # an explicit null
    {"fd": 1 << 70, "neg": -(1 << 64)},         # beyond int64
    {"path": "/a", "flags": ["O_RDWR", "O_CREAT"], "mode": 0o644},
    {"path": "/b", "flags": []},                # list values
    {"statbuf": {"size": 1, "times": {"a": [1, {"b": None}], "m": 2.5}}},
    {"statbuf": {}},                            # objects in objects
    {"statbuf": {"size": True}},
    {"fd": 3.0, "buf": float("inf")},
]


@pytest.mark.parametrize("absent", [(), (2, 5)], ids=["dense", "sparse"])
def test_args_round_trip_through_a_struct_block(tmp_path, absent):
    docs = [{"time": row, "args": args, "ret": row}
            for row, args in enumerate(_STRUCT_ARGS * 2)]
    for row in absent:
        del docs[row]["args"]                   # the field itself absent
    kind, loaded = _round_trip(docs, tmp_path / "seg.dseg")
    assert kind == K_STRUCT
    assert json.dumps(loaded) == json.dumps(docs)
    assert [list(doc) for doc in loaded] == [list(doc) for doc in docs]


@pytest.mark.parametrize("odd", [
    None, ["fd", 3], "O_RDONLY", {7: "a key that is not a str"}],
    ids=["null", "list", "str", "int-key"])
def test_one_odd_value_sends_args_to_the_dictionary_block(tmp_path, odd):
    docs = [{"time": row, "args": args}
            for row, args in enumerate(_STRUCT_ARGS + [odd] + _STRUCT_ARGS)]
    kind, loaded = _round_trip(docs, tmp_path / "seg.dseg")
    assert kind == K_DICT
    # JSON spells an int key as a string; everything else is the input.
    assert json.dumps(loaded) == json.dumps(docs)
    # Equal table entries are still one object per row.
    first, second = loaded[0]["args"], loaded[len(_STRUCT_ARGS) + 1]["args"]
    assert first == second and first is not second


def test_an_odd_key_lane_falls_back_alone(tmp_path):
    # ``iov`` is an object in one row and a list in the next; ``how``
    # has a key that is not a str: those two lanes are dictionary
    # blocks inside a struct block whose other lanes stay typed.
    docs = [{"time": 0, "args": {"fd": 3, "iov": {"len": 8}, "how": {}}},
            {"time": 1, "args": {"fd": 4, "iov": [8, 9], "how": {1: 2}}}]
    kind, loaded = _round_trip(docs, tmp_path / "seg.dseg")
    assert kind == K_STRUCT
    assert json.dumps(loaded) == json.dumps(docs)
    lane = Segment(tmp_path / "seg.dseg").lanes().values_for("args")
    assert [type(column) for column in lane.columns[0]] == [list] * 3
