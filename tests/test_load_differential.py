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

import copy
import json
import shutil
import struct
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import (INDEXED_EVENT_FIELDS, SHARD_KEYS, DocumentStore,
                           SegmentStorage, SessionError, TenantBackend,
                           TenantQuotaExceeded, create_store,
                           export_session, import_session, load_session,
                           save_session)
from repro.backend.segments import (_BLOCK_HEAD, _TRAILER, F_ZLIB, K_STRUCT,
                                    TRAILER_MAGIC, Segment)
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
    """``update_docs``: rows rewritten under columns and postings the
    requests before have built."""
    ids = [doc_id for doc_id, _ in store.scan(INDEX)]
    store.update_docs(INDEX, ids[::3], {"file_path": "/moved", "pid": 11})


def index_state(store: DocumentStore) -> str:
    """Everything a plain store's index holds, after the same requests."""
    index = store._indices[INDEX]
    index._hydrate()
    return json.dumps({
        "next_id": index._next_id, "epoch": index.epoch,
        # Row numbering: who owns which row.
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


@pytest.mark.parametrize("make_store", [
    DocumentStore, lambda: create_store(shard_count=2)],
    ids=["plain", "2-shards"])
@pytest.mark.parametrize("args", [
    {"fd": 3, "buf": 10},               # a struct block
    [{"fd": 3}, "buf"],                 # the dictionary/JSON fallback
], ids=["struct", "json-fallback"])
def test_rows_with_equal_args_do_not_share_one_object(tmp_path, make_store,
                                                      args):
    # A dictionary block stores equal values once; handing the table
    # entry itself to every row made one ``args`` of four (setting a
    # key on one changed them all), which a traced store never does.
    source = DocumentStore()
    source.bulk(INDEX, [{"syscall": "read", "args": copy.deepcopy(args),
                         "time": i, "session": "saved"} for i in range(4)])
    save_session(source, "saved", tmp_path / "store", index=INDEX)
    loaded = make_store()
    load_session(loaded, tmp_path / "store", index=INDEX)
    held = [source["args"] for _, source in loaded.scan(INDEX)]
    assert held == [args] * 4
    assert all(a is not b and (type(a) is not list or a[0] is not b[0])
               for i, a in enumerate(held) for b in held[i + 1:])
    if type(args) is dict:
        held[1]["fd"] = 99
    else:
        held[1][0]["fd"] = 99
    assert [source["args"] for _, source in loaded.scan(INDEX)] == [
        args, held[1], args, args]
    assert held[1] != args


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
    """Replace one block's bytes, checksums and the offsets of the
    blocks behind it made to agree, so only the block's own framing
    can tell it is damaged."""
    fields = Segment(path)._fields
    off, length, _crc, _zone = fields[field]
    blob = path.read_bytes()
    block = edit(blob[off:off + length])
    delta = len(block) - length
    foot_off, foot_len, _, _ = _TRAILER.unpack_from(
        blob, len(blob) - _TRAILER.size)
    footer = bytearray(blob[foot_off:foot_off + foot_len])
    for name, (at, size, crc, _zone) in fields.items():
        entry = footer.index(struct.pack("<QQI", at, size, crc))
        if name == field:
            struct.pack_into("<QQI", footer, entry, at, len(block),
                             zlib.crc32(block))
        elif at > off:
            struct.pack_into("<QQI", footer, entry, at + delta, size, crc)
    path.write_bytes(b"".join((
        blob[:off], block, blob[off + length:foot_off], footer,
        _TRAILER.pack(foot_off + delta, len(footer),
                      zlib.crc32(bytes(footer)), TRAILER_MAGIC))))


def _edit_payload(field: str, edit):
    """An edit of a block's inflated *payload* (stored raw afterwards)
    behind checksums that agree."""
    def on_block(block: bytes) -> bytes:
        kind, flags, _raw_len = _BLOCK_HEAD.unpack_from(block, 0)
        payload = bytearray(block[_BLOCK_HEAD.size:] if not flags & F_ZLIB
                            else zlib.decompress(block[_BLOCK_HEAD.size:]))
        edit(payload)
        return _BLOCK_HEAD.pack(kind, 0, len(payload)) + bytes(payload)
    return lambda path: _rewrite_block(path, field, on_block)


def _edit_struct(edit):
    """An edit of the ``args`` payload.  ``_docs`` rows all carry
    ``{"fd": 3}``: one shape of one key, so the shape codes start at
    byte 14 and the key lane's length prefix follows them."""
    def on_payload(payload: bytearray) -> None:
        assert payload[:14] == struct.pack("<III2s", 1, 1, 2, b"fd")
        edit(payload, (len(payload) - 14 - 4 - _BLOCK_HEAD.size)
             // (4 + 1 + 8))
    return _edit_payload("args", on_payload)


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
    # A dictionary code past the value table.
    _edit_payload("syscall", lambda payload: struct.pack_into(
        "<i", payload, len(payload) - 4, 5)),
    lambda path: _flip_a_byte(path, "args"),
    # A struct block behind valid checksums: a key lane whose length
    # prefix runs past the payload, a shape code no shape has, a row
    # taken out of its shape so the key lane is one value too long.
    _edit_struct(lambda payload, rows: struct.pack_into(
        "<I", payload, 14 + 4 * rows, len(payload))),
    _edit_struct(lambda payload, rows: struct.pack_into(
        "<i", payload, 14 + 4 * (rows // 2), 1)),
    _edit_struct(lambda payload, rows: struct.pack_into(
        "<i", payload, 14, -1)),
], ids=["flipped-dict-block", "flipped-int-block", "truncated-deflate",
        "raw-length-mismatch", "dictionary-code-out-of-range",
        "flipped-struct-block", "torn-key-lane",
        "shape-code-out-of-range", "key-lane-longer-than-its-shape"])
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


# ---------------------------------------------------------------------------
# format compatibility: a store written before block kind 4 existed

V1_FIXTURE = Path(__file__).parent / "corpus" / "segments-v1"


def test_a_version_1_store_opens_verifies_loads_and_compacts(tmp_path):
    """``tests/corpus/segments-v1`` was written once by the commit
    before format v2 (a0318017: ``SEGMENT_VERSION == 1``, ``args`` a
    dictionary block of JSON entries), from a checkout of that commit::

        docs = []
        for i in range(10):
            doc = {"syscall": ("openat", "read", "pwrite64", "fstat",
                               "close")[i % 5],
                   "args": ({"path": f"/data/{i}.sst",
                             "flags": ["O_RDWR", "O_CREAT"]},
                            {"fd": 3, "buf": 4096},
                            {"fd": 4, "buf": 512, "offset": 1 << 40},
                            {"fd": 3, "statbuf": {"size": i,
                                                  "times": [1, 2]}},
                            {})[i % 5],
                   "ret": i - 1, "pid": 7, "tid": 70 + i % 2,
                   "proc_name": "app", "time": 1000 + 10 * i,
                   "time_exit": 1004 + 10 * i, "duration_ns": 4}
            if i % 5 != 4:
                doc["file_tag"] = "7 12 1000"
            if i == 6:
                doc["args"] = {"fd": None, "huge": 1 << 70}
            docs.append(doc)
        engine = SegmentStorage(out / "store", flush_events=4)
        for start in (0, 4, 8):
            engine.append(docs[start:start + 4], session="v1-fixture")
        engine.close()                  # rows 8 and 9 stay in the WAL
        store = DocumentStore()
        store.bulk("dio_trace", [{**doc, "session": "v1-fixture"}
                                 for doc in docs])
        export_session(store, "v1-fixture", out / "twin.jsonl")
    """
    before = {entry.name: entry.read_bytes()
              for entry in (V1_FIXTURE / "store").iterdir()}
    assert sorted(before) == ["MANIFEST.json", "seg-000001.dseg",
                              "seg-000002.dseg", "wal.bin"]
    engine = SegmentStorage(V1_FIXTURE / "store", create=False,
                            read_only=True)
    assert [struct.unpack_from("<H", segment.path.read_bytes(), 4)[0]
            for segment in engine.segments()] == [1, 1]
    assert engine.open_report["segments_dropped"] == 0
    assert engine.open_report["wal_docs_recovered"] == 2
    report = engine.verify()
    assert report["ok"] and report["buffer_docs"] == 2
    engine.close()

    def loaded_from(path) -> str:
        store = DocumentStore()
        assert load_session(store, path, index=INDEX,
                            rename_to=SESSION) == SESSION
        return observe(store, sort_keys=True)

    twin = loaded_from(V1_FIXTURE / "twin.jsonl")
    assert loaded_from(V1_FIXTURE / "store") == twin
    # Looking changed nothing on disk.
    assert before == {entry.name: entry.read_bytes()
                      for entry in (V1_FIXTURE / "store").iterdir()}

    # A writable copy compacts into version 2 files that load the same.
    shutil.copytree(V1_FIXTURE / "store", tmp_path / "store")
    engine = SegmentStorage(tmp_path / "store", flush_events=4)
    engine.flush()                      # the WAL tail: a v2 segment
    assert engine.compact(small_rows=5)["segments_merged"] == 3
    assert [struct.unpack_from("<H", segment.path.read_bytes(), 4)[0]
            for segment in engine.segments()] == [2]
    assert engine.segments()[0].path.read_bytes()[
        engine.segments()[0]._fields["args"][0]] == K_STRUCT
    engine.close()
    assert loaded_from(tmp_path / "store") == twin


def test_a_saved_store_exports_the_bytes_the_original_exports(tmp_path):
    # save_session -> load_session -> export_session: what comes out of
    # format v2 is the session that went in, byte for byte (every event
    # carries the same fields here, so a segment's one schema order is
    # each row's own).
    from repro.tracer import RecordBatch
    records = [{"syscall": ("openat", "pread64", "write", "fstat")[i % 4],
                "args": ({"path": f"/f{i}", "flags": ["O_RDWR"], "mode": 420},
                         {"fd": 3 + i % 2, "buf": b"x" * 64, "offset": 64 * i},
                         {"fd": 3, "data": bytearray(i)},
                         {"fd": 3, "statbuf": {"size": i}})[i % 4],
                "ret": i, "pid": 7, "tid": 70 + i % 3, "comm": "app",
                "enter_ns": 1000 + 3 * (i % 5) + 20 * (i // 5),
                "exit_ns": 2000 + i, "file_type": "regular",
                "offset": 64 * i, "file_tag": "7 12 1000"}
               for i in range(23)]
    original = DocumentStore()
    for start, stop in ((0, 9), (9, 16), (16, 23)):
        original.bulk_columnar(INDEX, RecordBatch.decode(
            records[start:stop], session="saved"))
    export_session(original, "saved", tmp_path / "original.jsonl",
                   index=INDEX)
    save_session(original, "saved", tmp_path / "store", index=INDEX,
                 flush_events=8)
    engine = SegmentStorage(tmp_path / "store", create=False, read_only=True)
    assert [segment.path.read_bytes()[segment._fields["args"][0]]
            for segment in engine.segments()] == [K_STRUCT] * 3
    engine.close()
    reloaded = DocumentStore()
    load_session(reloaded, tmp_path / "store", index=INDEX)
    export_session(reloaded, "saved", tmp_path / "reloaded.jsonl",
                   index=INDEX)
    assert (tmp_path / "reloaded.jsonl").read_bytes() \
        == (tmp_path / "original.jsonl").read_bytes()
