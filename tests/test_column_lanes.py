"""``Column.extend`` is ``append`` in a loop — slot for slot.

The lane-wise passes of :meth:`Column.extend` (exact-int and exact
str/``None`` lanes) must leave every slot of the column exactly as
per-row ``append`` leaves it: the ``supports()`` gate reads
``collisions``/``unencodable``/``simple``/``num_kind`` and the bisect
bucketiser reads ``num_sorted``, so a wrong flag is a wrong answer, not
a slow one.  The same comparison covers ``ColumnSet.ensure_column``
built from pending lanes against one built from hydrated documents.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import DocumentStore
from repro.backend.columns import Column
from repro.tracer import RecordBatch

#: Every slot except the caches (the two ``tolist()`` views and the
#: sorted permutation a ``range`` over an unsorted lane keeps).
SLOTS = [slot for slot in Column.__slots__
         if slot not in ("_codes_view", "_nums_view", "_order")]

BIG = 1 << 63                           # first int beyond int64


def state(column: Column) -> dict:
    """Every compared slot, with classes made visible.

    ``1 == 1.0 == True`` and ``0.0 == -0.0``, so values are compared
    by ``(class, repr)``; ``nums`` keeps its container class and
    typecode.
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
                     getattr(value, "typecode", None),
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
    [[1, 2], [BIG]],                            # in range then > int64
    [[BIG], [1, 2]],                            # 'obj' column, int lane
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


# ---------------------------------------------------------------------------
# ensure_column: lanes vs hydrated documents

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
        built = index.columns.ensure_column(field, *index.column_sources())
        oracle = oracle_index.columns.ensure_column(field,
                                                    oracle_index._docs)
        assert state(built) == state(oracle), field
    # Building columns read the pending rows as lanes: none hydrated.
    assert index.pending_docs == 24 - 8 * hydrated_batches


def test_column_built_after_a_delete_keeps_the_dead_row_missing():
    def fill(ingest) -> DocumentStore:
        store = DocumentStore()
        ingest(store, RecordBatch.decode(_records(6), session="s"))
        store.delete_by_query("idx", {"term": {"time": 120}})    # row 2
        ingest(store, RecordBatch.decode(_records(3), session="s"))
        return store

    lanes = fill(lambda store, batch: store.bulk_columnar("idx", batch))
    docs = fill(lambda store, batch: store.bulk("idx", batch.to_docs()))
    index, oracle_index = lanes._indices["idx"], docs._indices["idx"]
    column = index.columns.ensure_column("time", *index.column_sources())
    assert index.pending_docs == 3
    assert list(column.nonnull) == [1, 1, 0, 1, 1, 1, 1, 1, 1]
    assert not column.num_sorted        # 150, then 100 again
    assert state(column) == state(oracle_index.columns.ensure_column(
        "time", oracle_index._docs))
