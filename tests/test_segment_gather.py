"""A save's chunk is gathered from the store's parts, not taken from a
join of the whole session.

``JoinedBatch.gather(rows)`` is ``take(rows)`` rebuilt from each
part's own take (nested joins — a shard router's shards, a loaded
``SegmentBatch`` — gathered in turn), so a forked encoder joins and
derives only its chunk's lanes and the parent joins nothing.  It must
encode to the same bytes as the take it replaces, whatever the parts
(ring batches, documents, correlated ``file_path`` lanes), however
the rows were permuted (``time_ordered``, the router's rank merge),
and whatever ``time`` holds (ties, ``None``, not an ``int``, beyond
int64); and a pooled save must leave the store's ring batches as
parked as it found them.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.backend import (DocumentStore, FilePathCorrelator, create_store,
                           load_session, save_session)
from repro.backend.lanes import Derived, time_ordered
from repro.backend.segments import encode_segment
from repro.tracer import RecordBatch
from tests.test_segment_encoders import (INDEX, MODES, SESSION, _mode,
                                         _stores, pools)  # noqa: F401
from tests.test_segment_writer import feeds, fill

#: The 4-shards-by-pid save whose chunk crosses shards out of order:
#: the router's rank merge and ``time_ordered`` both permute the rows
#: (times 0, 2**70 and 1; a ``pid`` of ``True``), so a gather that kept
#: the whole batch's row order put a chunk's rows in another order.
CROSSING = [("ring", [
    {"syscall": "read", "args": {"fd": 3}, "ret": 0, "pid": 11,
     "tid": 20, "comm": "app", "enter_ns": 0, "exit_ns": 41},
    {"syscall": "openat", "args": {"path": "/a", "flags": ["O_RDWR"]},
     "ret": 3, "pid": True, "tid": 21, "comm": "app", "enter_ns": 1 << 70,
     "exit_ns": 42, "file_tag": "7 1 1"},
    {"syscall": "read", "args": {"fd": 3}, "ret": 2, "pid": 10, "tid": None,
     "comm": "flusher", "enter_ns": 1, "exit_ns": 43,
     "file_tag": "7 1 1"}], SESSION)]


def _store(shards: int, key: str):
    store = create_store(shard_count=shards, shard_key=key, time_window_ns=8)
    store.ensure_index(INDEX, indexed_fields=(
        "syscall", "file_tag", "session", "time"))
    return store


@settings(max_examples=60, deadline=None)
@given(steps=feeds, shards=st.integers(1, 4),
       key=st.sampled_from(["pid", "time_window"]),
       correlated=st.booleans(), reloaded=st.booleans(),
       flush_events=st.integers(1, 9), shuffle=st.randoms())
@example(steps=CROSSING, shards=4, key="pid", correlated=False,
         reloaded=False, flush_events=3, shuffle=None)
def test_a_gathered_chunk_encodes_as_the_take_it_replaces(
        tmp_path_factory, steps, shards, key, correlated, reloaded,
        flush_events, shuffle):
    store = _store(shards, key)
    fill(store, DocumentStore(), steps)
    if correlated:
        FilePathCorrelator(store).correlate(INDEX, session=SESSION)
    query = {"term": {"session": SESSION}}
    if reloaded and store.count(INDEX, query):
        root = tmp_path_factory.mktemp("gather") / "store"
        save_session(store, SESSION, root, index=INDEX)
        store = _store(shards, key)
        load_session(store, root, index=INDEX)
    _, batch = store.lanes(INDEX, query)
    batch = time_ordered(batch)
    if shuffle is not None:
        order = list(range(len(batch)))
        shuffle.shuffle(order)
        batch = batch.take(order)
    for start in range(0, len(batch), flush_events):
        rows = range(start, min(start + flush_events, len(batch)))
        gathered, taken = batch.gather(rows), batch.take(rows)
        assert encode_segment(gathered) == encode_segment(taken)
        assert gathered.to_docs() == taken.to_docs()


@pytest.mark.parametrize("mode", MODES)
def test_a_save_leaves_the_stores_ring_batches_parked(tmp_path, monkeypatch,
                                                      pools, mode):
    store, _ = _stores()
    _mode(monkeypatch, mode)
    save_session(store, SESSION, tmp_path / "store", index=INDEX,
                 flush_events=7)
    rings = [batch for _, batch in store._indices[INDEX]._parts
             if isinstance(batch, RecordBatch)]
    assert rings
    # The parent built no lane of the whole session: every ring batch
    # still holds ``args`` as the raw dicts it was decoded from.
    assert all(type(ring._lanes["args"][0]) is Derived for ring in rings)
    if mode == "pool":
        assert pools == [2]
