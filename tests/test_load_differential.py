"""``load_session`` of a segment store against its two row oracles.

A load hands decoded blocks to ``bulk_columnar`` as lanes
(``SegmentBatch``); no document exists until a reader asks.  Whatever
the directory looks like — written by ``save_session``, or by
out-of-order ``SegmentStorage.append`` calls that leave overlapping
segments and an unflushed WAL tail — the store that comes out must be
the one the row path builds:

* ``reference_load`` is that row path, kept here as the oracle: every
  row of ``all_docs()``, stamped, through per-document ``store.bulk``.
  The comparison is byte for byte (``json.dumps`` without
  ``sort_keys``: ids, order, key order) and, on a plain store, state
  for state (id counter, ranks, postings key order, columns).
* ``import_session`` of an export of the same documents is the
  format-independent oracle.  A segment stores a field once per
  *segment*, in first-seen order, so a reloaded row's key order is its
  segment's — this comparison is therefore on sorted keys.
"""

import json
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import (INDEXED_EVENT_FIELDS, SHARD_KEYS, DocumentStore,
                           SegmentStorage, SessionError, TenantBackend,
                           TenantQuotaExceeded, create_store,
                           export_session, import_session, load_session,
                           save_session)
from repro.backend.segments import _TRAILER, TRAILER_MAGIC, Segment
from tests.test_column_lanes import state as column_state

INDEX = "dio_trace"
SESSION = "loaded"
BIG = 1 << 70


def reference_load(store, path, session: str = SESSION) -> None:
    """The row path ``load_into`` took before blocks went in as lanes."""
    engine = SegmentStorage(path, create=False, read_only=True)
    docs = [{**doc, "session": session} for doc in engine.all_docs()]
    engine.close()
    store.ensure_index(INDEX, indexed_fields=INDEXED_EVENT_FIELDS)
    store.bulk(INDEX, docs)


# ---------------------------------------------------------------------------
# event-shaped documents, including what save_session never sees

_ABSENT = object()
#: field -> strategy; ``_ABSENT`` leaves the key out, ``None`` keeps it
#: with an explicit null.  Key order is this order, as ``to_doc`` emits.
_FIELDS = {
    "syscall": st.sampled_from(["read", "write", "openat"]),
    "args": st.sampled_from([{"fd": 3}, {"fd": 4, "iov": [1, 2]},
                             {"path": "/a", "fd": None}, {}]),
    "ret": st.one_of(st.integers(-2, 9), st.just(BIG)),
    "pid": st.sampled_from([10, 10, 11, 11, True, 1, 1.0]),
    "tid": st.sampled_from([20, 21, 22, None, _ABSENT]),
    "proc_name": st.sampled_from(["app", "flusher", "rocksdb:low0"]),
    "time": st.one_of(st.integers(0, 40), st.integers(0, 40),
                      st.sampled_from([_ABSENT, None, 2.5, -0.0, "late",
                                       True, BIG])),
    "time_exit": st.integers(0, 99),
    "duration_ns": st.one_of(st.integers(0, 9), st.sampled_from(
        [float("nan"), -0.0, 0.0, 1 << 64])),
    "file_type": st.sampled_from(["regular", _ABSENT]),
    "offset": st.one_of(st.integers(0, 4096), st.just(_ABSENT)),
    "file_tag": st.sampled_from(["7 1 1", "7 2 1", None, _ABSENT]),
    "flag": st.sampled_from([_ABSENT, _ABSENT, True, 1, 1.0]),
}


@st.composite
def event_docs(draw, min_size=1, max_size=24):
    rows = draw(st.lists(st.fixed_dictionaries(_FIELDS),
                         min_size=min_size, max_size=max_size))
    docs = [{field: value for field, value in row.items()
             if value is not _ABSENT} for row in rows]
    # ``file_path`` arrives late (correlation), so only later segments
    # have the column at all.
    late = draw(st.integers(0, len(docs)))
    for doc in docs[late:]:
        doc["file_path"] = f"/data/{doc['proc_name']}"
    return docs


def written_by_save_session(docs, path, flush_events: int) -> None:
    source = DocumentStore()
    source.bulk(INDEX, [{**doc, "session": "saved"} for doc in docs])
    save_session(source, "saved", path, index=INDEX,
                 flush_events=flush_events)


def written_by_appends(docs, path, flush_events: int, chunk: int) -> None:
    """Out-of-order appends: overlapping segments and a WAL tail."""
    engine = SegmentStorage(path, flush_events=flush_events)
    for start in range(0, len(docs), chunk):
        engine.append(docs[start:start + chunk], session="saved")
    engine.close()


def exported(docs, path) -> None:
    """The same documents, in the same arrival order, as an export."""
    source = DocumentStore()
    source.bulk(INDEX, [{**doc, "session": "saved"} for doc in docs])
    export_session(source, "saved", path, index=INDEX)


# ---------------------------------------------------------------------------
# what a reader can see

QUERIES = (None, {"term": {"syscall": "read"}}, {"term": {"pid": 1}},
           {"range": {"time": {"gte": 5, "lt": 30}}},
           {"bool": {"must": [{"term": {"session": SESSION}}],
                     "must_not": [{"exists": {"field": "file_tag"}}]}})
FIG4 = {"over_time": {
    "date_histogram": {"field": "time", "fixed_interval": 10},
    "aggs": {"by_thread": {"terms": {"field": "proc_name", "size": 50}}}}}
PANELS = {"pids": {"terms": {"field": "pid", "size": 10}},
          "flags": {"terms": {"field": "flag", "size": 10}},
          "latency": {"stats": {"field": "duration_ns"}},
          "tids": {"cardinality": {"field": "tid"}},
          "offsets": {"percentiles": {"field": "offset",
                                      "percents": [50, 99]}}}


def attempt(request):
    try:
        return request()
    except Exception as exc:            # both sides must fail alike
        return f"raised {type(exc).__name__}"


def observe(store, sort_keys: bool = False) -> str:
    seen = {
        "scan": store.scan(INDEX),
        "counts": [store.count(INDEX, query) for query in QUERIES],
        "fig4": attempt(lambda: store.search(
            INDEX, query={"term": {"session": SESSION}}, size=0,
            aggs=FIG4)["aggregations"]),
        "panels": [attempt(lambda: store.search(
            INDEX, size=0, aggs={name: spec})["aggregations"])
            for name, spec in PANELS.items()],
        "newest": attempt(lambda: store.search(
            INDEX, sort=[{"time": {"order": "desc"}}],
            size=50)["hits"]),
        "pushdowns": store.agg_stats()["pushdowns"],
    }
    return json.dumps(seen, sort_keys=sort_keys)


def mutate(store) -> None:
    """``update_docs`` + ``delete``: rows rewritten and tombstoned
    under columns and postings the requests before have built."""
    ids = [doc_id for doc_id, _ in store.scan(INDEX)]
    store.update_docs(INDEX, ids[::3], {"file_path": "/moved", "pid": 11})
    store.delete_by_query(INDEX, {"term": {"syscall": "write"}})


def index_state(store: DocumentStore) -> str:
    """Everything a plain store's index holds, after the same requests."""
    index = store._indices[INDEX]
    index._hydrate()
    return json.dumps({
        "next_id": index._next_id, "epoch": index.epoch,
        # Row numbering: who owns which row, and which rows are dead.
        "rows": index.columns.doc_ids,
        "row_of": list(index.columns.row_of.items()),
        # One structure per field a request touched: codes, numeric
        # lane and the postings the planner reads (``column_state``
        # covers every slot but the caches).
        "columns": {name: column_state(column) for name, column
                    in index.columns._columns.items()},
        "docs": list(index._docs.items()),
    }, default=list)


def assert_same_store(make_store, path, export_path) -> None:
    loaded, by_rows, imported = make_store(), make_store(), make_store()
    load_session(loaded, path, index=INDEX, rename_to=SESSION)
    reference_load(by_rows, path)
    import_session(imported, export_path, index=INDEX, rename_to=SESSION)
    plain = isinstance(loaded, DocumentStore)
    for _ in range(2):
        assert observe(loaded) == observe(by_rows)
        assert observe(loaded, sort_keys=True) == observe(imported,
                                                          sort_keys=True)
        if plain:
            assert index_state(loaded) == index_state(by_rows)
        for store in (loaded, by_rows, imported):
            mutate(store)


STORES = {
    "plain": DocumentStore,
    **{f"4-shards-by-{key}": (lambda key=key: create_store(
        shard_count=4, shard_key=key, time_window_ns=8))
       for key in SHARD_KEYS},
    "tenant": lambda: TenantBackend(shards_per_tenant=2).register("t"),
}


@pytest.mark.parametrize("kind", STORES)
@settings(max_examples=25, deadline=None)
@given(docs=event_docs(), flush_events=st.integers(1, 9))
def test_a_saved_session_loads_as_the_row_path_loads_it(
        tmp_path_factory, kind, docs, flush_events):
    root = tmp_path_factory.mktemp("saved")
    written_by_save_session(docs, root / "store", flush_events)
    exported(docs, root / "export.jsonl")
    assert_same_store(STORES[kind], root / "store", root / "export.jsonl")


@pytest.mark.parametrize("kind", STORES)
@settings(max_examples=25, deadline=None)
@given(docs=event_docs(min_size=2), flush_events=st.integers(2, 9),
       chunk=st.integers(1, 5))
def test_overlapping_segments_and_a_wal_tail_load_as_the_row_path_loads_them(
        tmp_path_factory, kind, docs, flush_events, chunk):
    root = tmp_path_factory.mktemp("appended")
    written_by_appends(docs, root / "store", flush_events, chunk)
    exported(docs, root / "export.jsonl")
    assert_same_store(STORES[kind], root / "store", root / "export.jsonl")


def test_the_tail_keeps_each_rows_own_key_order(tmp_path):
    # Rows still in the WAL were never transposed into one schema: the
    # row path hands them over as written, and so must the lane path.
    docs = [{"time": 3, "b": 1, "a": 2}, {"time": 1, "a": 1, "b": 2},
            {"time": 2, "a": 1, "c": 0, "b": 2}, {"time": 2, "c": 1}]
    written_by_appends(docs, tmp_path / "store", flush_events=99, chunk=2)
    loaded, by_rows = DocumentStore(), DocumentStore()
    load_session(loaded, tmp_path / "store", rename_to=SESSION)
    reference_load(by_rows, tmp_path / "store")
    assert json.dumps(loaded.scan(INDEX)) == json.dumps(by_rows.scan(INDEX))
    assert [list(source) for _, source in loaded.scan(INDEX)] == [
        ["time", "a", "b", "session"], ["time", "a", "c", "b", "session"],
        ["time", "c", "session"], ["time", "b", "a", "session"]]


# ---------------------------------------------------------------------------
# admission and damage: all or nothing, and at load time

def _docs(n: int) -> list[dict]:
    return [{"syscall": "read", "args": {"fd": 3}, "ret": i, "pid": 10,
             "tid": 20, "proc_name": "app", "time": 10 * i,
             "time_exit": 10 * i + 1, "duration_ns": 1} for i in range(n)]


def test_a_session_over_the_tenant_quota_lands_no_row(tmp_path):
    written_by_save_session(_docs(12), tmp_path / "store", flush_events=5)
    tenant = TenantBackend(shards_per_tenant=2).register("t", quota_docs=11)
    with pytest.raises(TenantQuotaExceeded):
        load_session(tenant, tmp_path / "store")
    assert tenant.docs_held() == 0 and tenant.count(INDEX) == 0
    assert tenant.rejected_docs == 12 and tenant.quota_rejections == 1
    roomy = TenantBackend(shards_per_tenant=2).register("t", quota_docs=12)
    load_session(roomy, tmp_path / "store")
    assert roomy.docs_held() == 12


def _rewrite_block(path, field: str, edit) -> None:
    """Replace one block's bytes in place, checksums made to agree, so
    only the block's own framing can tell it is damaged."""
    off, length, crc, _zone = Segment(path)._fields[field]
    blob = bytearray(path.read_bytes())
    block = edit(bytes(blob[off:off + length]))
    assert len(block) == length
    blob[off:off + length] = block
    foot_off, foot_len, _, _ = _TRAILER.unpack_from(
        blob, len(blob) - _TRAILER.size)
    entry = blob.index(struct.pack("<QQI", off, length, crc), foot_off)
    struct.pack_into("<QQI", blob, entry, off, length, zlib.crc32(block))
    blob[-_TRAILER.size:] = _TRAILER.pack(
        foot_off, foot_len,
        zlib.crc32(bytes(blob[foot_off:foot_off + foot_len])),
        TRAILER_MAGIC)
    path.write_bytes(bytes(blob))


def _flip_a_byte(path, field: str) -> None:
    off, length, _, _ = Segment(path)._fields[field]
    blob = bytearray(path.read_bytes())
    blob[off + length // 2] ^= 0x40
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("damage", [
    lambda path: _flip_a_byte(path, "proc_name"),
    lambda path: _flip_a_byte(path, "ret"),
    # A payload cut short behind valid checksums: inflate / length.
    lambda path: _rewrite_block(path, "time",
                                lambda b: b[:-4] + b"\x00" * 4),
    lambda path: _rewrite_block(path, "syscall",
                                lambda b: b[:1] + b"\x00" + b[2:]),
], ids=["flipped-dict-block", "flipped-int-block", "truncated-deflate",
        "raw-length-mismatch"])
@pytest.mark.parametrize("make_store", [
    DocumentStore, lambda: create_store(shard_count=4)],
    ids=["plain", "sharded"])
def test_a_damaged_block_fails_the_load_itself(tmp_path, damage, make_store):
    # The blocks go in as lanes and documents are built lazily — but
    # every block is verified before the first row lands, so damage
    # is a SessionError from load_session, never from a later query.
    written_by_save_session(_docs(300), tmp_path / "store", flush_events=100)
    victim = sorted((tmp_path / "store").glob("*.dseg"))[1]
    damage(victim)
    # Trailer and footer still check out: the store opens whole.
    assert SegmentStorage(tmp_path / "store", create=False, read_only=True
                          ).open_report["segments_dropped"] == 0
    store = make_store()
    with pytest.raises(SessionError):
        load_session(store, tmp_path / "store")
    assert store.index_names() == []


def test_an_empty_store_is_still_a_session_error(tmp_path):
    SegmentStorage(tmp_path / "store").close()
    with pytest.raises(SessionError, match="holds no events"):
        load_session(DocumentStore(), tmp_path / "store")


def test_loaded_and_traced_indexes_are_created_alike(tmp_path):
    from repro.kernel import Kernel
    from repro.sim import Environment
    from repro.tracer import DIOTracer, TracerConfig

    written_by_save_session(_docs(5), tmp_path / "store", flush_events=5)
    loaded, traced = DocumentStore(), DocumentStore()
    load_session(loaded, tmp_path / "store")
    env = Environment()
    tracer = DIOTracer(env, Kernel(env), traced, TracerConfig())
    tracer.attach()
    # Declaring the fields builds nothing on either; the first query
    # builds the one column it touches, the same on both.
    indexes = (loaded._indices[INDEX], traced._indices[tracer.config.index])
    assert [list(index.columns._columns) for index in indexes] == [[], []]
    for store, name in ((loaded, INDEX), (traced, tracer.config.index)):
        store.count(name, {"term": {INDEXED_EVENT_FIELDS[0]: "read"}})
    assert [list(index.columns._columns) for index in indexes] \
        == [[INDEXED_EVENT_FIELDS[0]]] * 2
