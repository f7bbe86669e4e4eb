"""The lane-wise segment writer is the row writer, byte for byte.

``save_session`` reads a session as lanes and ``write_batch`` encodes
each block per lane (``array(values)``, ``dict.fromkeys``, a struct
lane's key lanes) instead of per row.  The row writer is kept here as
the oracle — a per-row ``_encode_field`` (one value, one shape, one
table entry at a time; it learnt block kind 4 with format v2, and with
format v3 the kinds a reader rebuilds: a constant, ``time_exit`` as a
sum, ``file_path`` by ``file_tag``, each decided row by row) and
``write_segment(sort_docs(docs))`` over the hits of a time-sorted
search — and the two must agree on every byte: block by block over
adversarial lanes, and file by file over stores held as lanes, as rows
and as both.
"""

import copy
import json
import math
import struct
import zlib
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import (SHARD_KEYS, DocumentStore, FilePathCorrelator,
                           SessionError, TenantBackend, create_store,
                           export_session, import_session,
                           legacy_correlate, load_session, save_session)
from repro.backend.lanes import DocBatch
from repro.backend.segments import (_BLOCK_HEAD, _HEADER, _I32_CODE, _TRAILER,
                                    _U16, _U32, DEFLATE_LEVEL, F_ZLIB,
                                    K_BY_TAG, K_CONST, K_DICT, K_F64, K_I64,
                                    K_STRUCT, K_SUM,
                                    MANIFEST_FORMAT, MANIFEST_NAME,
                                    SEGMENT_MAGIC, SEGMENT_VERSION, T_FLOAT,
                                    T_INT, T_STR, TRAILER_MAGIC, SegmentError,
                                    _encode_field, _encode_value,
                                    _encode_zone, _lane_bytes, sort_docs)
from repro.tracer import RecordBatch
from tests.doc_reads import get_doc
from tests.test_load_differential import SESSION as LOADED
from tests.test_load_differential import _ABSENT, _FIELDS, observe

INDEX = "dio_trace"
SESSION = "saved"

#: The range a packed int64 block holds; an int beyond it is a
#: dictionary entry.
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


# ---------------------------------------------------------------------------
# the oracle: the row writer

def rows_encode_field(present: list[int], values: list, deflate=True):
    """``_encode_field`` one row at a time."""
    live = [v for p, v in zip(present, values) if p and v is not None]
    classes = set(map(type, live))
    zone = None
    if live and classes == {int}:
        zone = (T_INT, min(live), max(live))
    elif live and classes == {float}:
        lo, hi = min(live), max(live)
        if lo == lo and hi == hi:
            zone = (T_FLOAT, lo, hi)
    elif live and classes == {str}:
        zone = (T_STR, min(live), max(live))

    none_present = any(p and v is None for p, v in zip(present, values))
    if live and not none_present and classes == {dict} \
            and all(type(key) is str for value in live for key in value):
        # Kind 4: a shape per distinct key tuple, first seen first; per
        # shape and key the values of that shape's rows, as a block.
        shapes: list[tuple] = []
        lanes: dict[tuple, list] = {}
        codes = array(_I32_CODE, bytes(0))
        for p, value in zip(present, values):
            if not p:
                codes.append(-1)
                continue
            if tuple(value) not in shapes:
                shapes.append(tuple(value))
            codes.append(shapes.index(tuple(value)))
            for key, item in value.items():
                lanes.setdefault((codes[-1], key), []).append(item)
        parts = [_U32.pack(len(shapes))]
        for shape in shapes:
            parts.append(_U32.pack(len(shape)))
            for key in shape:
                parts += [_U32.pack(len(key.encode("utf-8"))),
                          key.encode("utf-8")]
        parts.append(_lane_bytes(codes))
        for code, shape in enumerate(shapes):
            for key in shape:
                lane = lanes[code, key]
                block, _ = rows_encode_field([1] * len(lane), lane,
                                             deflate=False)
                parts += [_U32.pack(len(block)), block]
        payload = b"".join(parts)
        kind = K_STRUCT
        zone = None
    elif live and not none_present and classes == {int} \
            and all(INT64_MIN <= v <= INT64_MAX for v in live):
        lane = array("q", (v if p else 0 for p, v in zip(present, values)))
        payload = bytes(bytearray(present)) + _lane_bytes(lane)
        kind = K_I64
    elif live and not none_present and classes == {float}:
        lane = array("d", (v if p else 0.0 for p, v in zip(present, values)))
        payload = bytes(bytearray(present)) + _lane_bytes(lane)
        kind = K_F64
    else:
        table: list[bytes] = []
        code_of: dict[tuple[int, bytes], int] = {}
        codes = array(_I32_CODE, bytes(0))
        for p, value in zip(present, values):
            if not p:
                codes.append(-1)
                continue
            tag, blob = _encode_value(value)
            key = (tag, blob)
            code = code_of.get(key)
            if code is None:
                code = len(table)
                code_of[key] = code
                table.append(bytes((tag,)) + _U32.pack(len(blob)) + blob)
            codes.append(code)
        payload = b"".join((_U32.pack(len(table)), *table,
                            _lane_bytes(codes)))
        kind = K_DICT
    return rows_block(kind, payload, deflate), zone


def rows_block(kind: int, payload: bytes, deflate=True) -> bytes:
    flags = 0
    deflated = zlib.compress(payload, DEFLATE_LEVEL) if deflate else payload
    if len(deflated) < len(payload):
        flags |= F_ZLIB
        body = deflated
    else:
        body = payload
    return _BLOCK_HEAD.pack(kind, flags, len(payload)) + body


def rows_entry(value) -> bytes:
    tag, blob = _encode_value(value)
    return bytes((tag,)) + _U32.pack(len(blob)) + blob


def rows_top_block(field: str, docs: list[dict]):
    """One top-level field's block, one row at a time: kind 5 when every
    row holds one value (no float, no list, no dict), kind 6 for a
    ``time_exit`` that is ``time + duration_ns`` on every row, kind 7
    for a ``file_path`` that is a function of ``file_tag`` — else the
    block ``rows_encode_field`` writes."""
    present = [1 if field in doc else 0 for doc in docs]
    values = [doc.get(field) for doc in docs]
    first = values[0]
    if all(present) and type(first) in (str, int, bool, type(None)) and all(
            type(value) is type(first) and value == first
            for value in values):
        zone = ((T_INT if type(first) is int else T_STR), first, first) \
            if type(first) in (int, str) else None
        return rows_block(K_CONST, rows_entry(first)), zone
    if field == "time_exit" and all(
            type(doc.get(key)) is int
            for doc in docs for key in ("time", "duration_ns", "time_exit")
    ) and all(doc["time_exit"] == doc["time"] + doc["duration_ns"]
              for doc in docs):
        return rows_block(K_SUM, b""), (T_INT, min(values), max(values))
    if field == "file_path" and any("file_tag" in doc for doc in docs):
        table: dict = {}
        plain = (str, int, type(None))
        holds = True
        for doc in docs:
            tag = doc.get("file_tag")
            if type(tag) not in plain or type(doc.get(field)) not in plain:
                holds = False
            elif field in doc:
                if tag is None or table.get(tag, doc[field]) != doc[field]:
                    holds = False
                table[tag] = doc[field]
        if holds and not any(field not in doc and doc.get("file_tag") in table
                             for doc in docs):
            paths = {path for path in table.values() if path is not None}
            zone = None
            if len({type(path) for path in paths}) == 1:
                zone = (T_STR if type(min(paths)) is str else T_INT,
                        min(paths), max(paths))
            tags = []
            for doc in docs:
                if doc.get("file_tag") is not None \
                        and doc["file_tag"] not in tags:
                    tags.append(doc["file_tag"])
            return rows_block(K_BY_TAG, b"".join(
                [_U32.pack(len(tags))]
                + [b"\x01" + rows_entry(table[tag]) if tag in table
                   else b"\x00" for tag in tags])), zone
    return rows_encode_field(present, values)


def rows_write_segment(path: Path, docs: list[dict], *, session: str,
                       seq: int) -> None:
    """``write_segment`` over rows: sort, transpose, encode per row."""
    docs = sort_docs(docs)
    chunks = [_HEADER.pack(SEGMENT_MAGIC, SEGMENT_VERSION, 0, len(docs))]
    offset = _HEADER.size
    entries = []
    for field in dict.fromkeys(field for doc in docs for field in doc):
        block, zone = rows_top_block(field, docs)
        chunks.append(block)
        name = field.encode("utf-8")
        entries.append(b"".join((
            _U16.pack(len(name)), name,
            struct.pack("<QQI", offset, len(block), zlib.crc32(block)),
            _encode_zone(zone))))
        offset += len(block)
    session_blob = session.encode("utf-8")
    footer = b"".join((
        _U32.pack(len(entries)), *entries,
        _U16.pack(len(session_blob)), session_blob,
        struct.pack("<IQ", seq, 0)))
    path.write_bytes(b"".join((*chunks, footer, _TRAILER.pack(
        offset, len(footer), zlib.crc32(footer), TRAILER_MAGIC))))


def rows_save_session(store, session: str, path: Path,
                      flush_events: int) -> None:
    """``save_session`` over rows: the hits of one time-sorted search,
    chunked, each chunk one segment; then the manifest."""
    hits = store.search(INDEX, query={"term": {"session": session}},
                        sort=["time"], size=None)["hits"]["hits"]
    docs = [hit["_source"] for hit in hits]
    path.mkdir()
    names = []
    for start in range(0, len(docs), flush_events):
        names.append(f"seg-{len(names) + 1:06d}.dseg")
        rows_write_segment(path / names[-1],
                           docs[start:start + flush_events],
                           session=session, seq=len(names))
    manifest = {"format": MANIFEST_FORMAT, "next_seq": len(names) + 1,
                "segments": names, "wal_sealed": 0}
    (path / MANIFEST_NAME).write_text(
        json.dumps(manifest, sort_keys=True, indent=1) + "\n",
        encoding="utf-8")


# ---------------------------------------------------------------------------
# (a) one lane, every value mix: block bytes and zone

_exact_ints = st.one_of(st.integers(-5, 5),
                        st.sampled_from([INT64_MIN, INT64_MAX,
                                         INT64_MAX + 1, -(1 << 70)]))
_floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from([-0.0, 0.0, math.nan]))
_nested = st.sampled_from([{"fd": 3}, {"fd": 3}, {"fd": 4, "iov": [1, 2]},
                           [1, "a"], [], {}, {"a": {"b": None}}])
#: What ``args`` looks like, and then some: shapes that differ only in
#: key order, the empty object, an explicit null, objects in objects, a
#: lane that is a list in one row and an int in the next.
_objects = st.sampled_from([
    {"fd": 3}, {"fd": 3}, {"fd": 4, "buf": 512}, {"buf": 512, "fd": 4},
    {}, {"fd": None}, {"path": "/a", "flags": ["O_RDWR"]},
    {"path": "/b", "flags": 2}, {"a": {"b": None}}, {"a": {"b": 1.5}},
    {"a": {}}, {"fd": 1 << 70}, {"fd": True}, {"fd": 1.0}])
#: One flavour per value-class rule the lane-wise encoder decides on.
_FLAVOURS = {
    "int": _exact_ints,
    "small-int": st.integers(-3, 3),
    "float": _floats,
    "str": st.sampled_from(["read", "write", "", "étrange"]),
    "true-one-one": st.sampled_from([True, 1, 1.0, False, 0, 0.0]),
    "str-int-none": st.sampled_from(["1", 1, None, "a", 2, 1 << 70]),
    "none": st.none(),
    "nested": _nested,
    "objects": _objects,
    "odd-objects": st.one_of(_objects, st.sampled_from(
        [{1: "int key"}, {"a": {2: "nested int key"}}, [], None])),
    "anything": st.one_of(_exact_ints, _floats, _nested, st.none(),
                          st.booleans(), st.text(max_size=3)),
    "unstorable": st.sampled_from([1, "a", {1, 2}, object]),
}


@st.composite
def lanes(draw):
    flavour = draw(st.sampled_from(sorted(_FLAVOURS)))
    values = draw(st.lists(_FLAVOURS[flavour], max_size=12))
    gaps = draw(st.sampled_from(["none", "one", "some", "explicit"]))
    present = [1] * len(values)
    if values and gaps == "one":
        present[draw(st.integers(0, len(values) - 1))] = 0
    elif gaps == "some":
        present = draw(st.lists(st.integers(0, 1), min_size=len(values),
                                max_size=len(values)))
    elif values and gaps == "explicit":
        values[draw(st.integers(0, len(values) - 1))] = None
    return present, [value if has else None
                     for has, value in zip(present, values)]


def attempt(encode, *args):
    try:
        return encode(*args)
    except SegmentError:
        return "SegmentError"


@settings(max_examples=600, deadline=None)
@given(lane=lanes())
def test_a_block_built_from_a_lane_is_the_block_built_from_rows(lane):
    present, values = lane
    oracle = attempt(rows_encode_field, present, values)
    as_bytes = bytes(present)
    assert attempt(_encode_field, as_bytes, values) == oracle
    if 0 not in present:
        assert attempt(_encode_field, None, values) == oracle
    if any(type(value) in (set, type) for value in values):
        assert oracle == "SegmentError"


# ---------------------------------------------------------------------------
# (b) whole stores: lanes, rows and both; the files save_session writes

_RECORD = {
    "syscall": st.sampled_from(["read", "write", "openat", "creat"]),
    "args": st.sampled_from([{"fd": 3}, {"path": "/a", "flags": ["O_RDWR"]},
                             {"path": "/b"}, {"fd": 4, "buf": b"\x00\xff"},
                             {}]),
    "ret": st.integers(-2, 70),
    "pid": st.sampled_from([10, 11, 11, True, 1.0]),
    "tid": st.sampled_from([20, 21, 22, None]),
    "comm": st.sampled_from(["app", "flusher"]),
    "enter_ns": st.one_of(st.integers(0, 40), st.just(1 << 70)),
    "exit_ns": st.integers(41, 99),
    "file_type": st.sampled_from(["regular", _ABSENT, _ABSENT]),
    "offset": st.one_of(st.integers(0, 4096), st.just(_ABSENT)),
    "file_tag": st.sampled_from(["7 1 1", "7 2 1", _ABSENT]),
}


def _without_absent(row: dict) -> dict:
    return {field: value for field, value in row.items()
            if value is not _ABSENT}


@st.composite
def row_docs(draw):
    """Event-shaped documents of two sessions whose key orders need not
    agree (an import, an update, another producer)."""
    docs = []
    for row in draw(st.lists(st.fixed_dictionaries(_FIELDS), min_size=1,
                             max_size=8)):
        doc = _without_absent(row)
        doc["session"] = draw(st.sampled_from([SESSION, SESSION, "other"]))
        if draw(st.booleans()):
            doc["file_path"] = "/known"
        if draw(st.booleans()):
            doc = dict(draw(st.permutations(list(doc.items()))))
        docs.append(doc)
    return docs


#: One step of filling a store.  ``ring``: a decoded ring batch through
#: ``bulk_columnar`` (batches need not follow each other in time);
#: ``rows``: documents through ``bulk``; ``parked``: documents through
#: ``bulk_columnar`` (a batch only part of which is the session's);
#: ``hydrate``: a reader asks for a document.
feeds = st.lists(st.one_of(
    st.tuples(st.just("ring"),
              st.lists(st.fixed_dictionaries(_RECORD).map(_without_absent),
                       min_size=1, max_size=8),
              st.sampled_from([SESSION, SESSION, "other"])),
    st.tuples(st.just("rows"), row_docs()),
    st.tuples(st.just("parked"), row_docs()),
    st.tuples(st.just("hydrate"))), min_size=1, max_size=6)


def fill(store, twin, steps) -> None:
    """``steps`` into ``store`` as they say, into ``twin`` as rows."""
    for kind, *payload in steps:
        if kind == "ring":
            records, session = payload
            store.bulk_columnar(INDEX, RecordBatch.decode(records, session))
            twin.bulk(INDEX, RecordBatch.decode(records, session).to_docs())
        elif kind == "hydrate":
            get_doc(store, INDEX, "1")
        else:
            docs, = payload
            if kind == "rows":
                store.bulk(INDEX, copy.deepcopy(docs))
            else:
                store.bulk_columnar(INDEX, DocBatch(copy.deepcopy(docs)))
            twin.bulk(INDEX, copy.deepcopy(docs))


def files_of(path: Path) -> dict[str, bytes]:
    return {entry.name: entry.read_bytes() for entry in path.iterdir()
            if entry.name == MANIFEST_NAME or entry.suffix == ".dseg"}


STORES = {
    "plain": DocumentStore,
    **{f"4-shards-by-{key}": (lambda key=key: create_store(
        shard_count=4, shard_key=key, time_window_ns=8))
       for key in SHARD_KEYS},
    "tenant": lambda: TenantBackend(shards_per_tenant=2).register("t"),
}


@pytest.mark.parametrize("kind", STORES)
@settings(max_examples=40, deadline=None)
@given(steps=feeds, correlated=st.booleans(),
       flush_events=st.integers(1, 9))
def test_save_session_writes_the_files_the_row_writer_writes(
        tmp_path_factory, kind, steps, correlated, flush_events):
    root = tmp_path_factory.mktemp("writer")
    store, twin = STORES[kind](), DocumentStore()
    for each in (store, twin):
        each.ensure_index(INDEX, indexed_fields=(
            "syscall", "file_tag", "session", "time"))
    fill(store, twin, steps)
    if correlated:
        report = FilePathCorrelator(store).correlate(INDEX, session=SESSION)
        assert report.as_dict() == legacy_correlate(
            twin, INDEX, session=SESSION).as_dict()
    if not twin.count(INDEX, {"term": {"session": SESSION}}):
        with pytest.raises(SessionError, match="has no events"):
            save_session(store, SESSION, root / "lanes", index=INDEX)
        return
    saved = save_session(store, SESSION, root / "lanes", index=INDEX,
                         flush_events=flush_events)
    rows_save_session(twin, SESSION, root / "rows", flush_events)
    assert saved == twin.count(INDEX, {"term": {"session": SESSION}})
    assert files_of(root / "lanes") == files_of(root / "rows")
    # ... and it loads as an export of the same session imports.
    export_session(twin, SESSION, root / "export.jsonl", index=INDEX)
    loaded, imported = DocumentStore(), DocumentStore()
    load_session(loaded, root / "lanes", index=INDEX, rename_to=LOADED)
    import_session(imported, root / "export.jsonl", index=INDEX,
                   rename_to=LOADED)
    assert observe(loaded, sort_keys=True) == observe(imported,
                                                      sort_keys=True)


def test_rows_whose_key_orders_conflict_keep_the_first_rows_order(tmp_path):
    # The schema is the first-seen key order of the segment's rows:
    # fields that first appear in the same row tie, and the tie goes to
    # that row's own key order — not to the order the lanes were
    # joined in, which here is a, b, time, session, c.
    store, twin = DocumentStore(), DocumentStore()
    last = {"a": 0, "b": 0, "time": 9, "session": SESSION}
    docs = [{"session": SESSION, "time": 2, "c": 1, "b": 2, "a": 3},
            {"session": SESSION, "time": 1, "b": 1, "late": None},
            {"session": SESSION, "time": 3, "a": 1, "b": 2}]
    store.bulk_columnar(INDEX, DocBatch([dict(last)]))
    store.bulk_columnar(INDEX, DocBatch(copy.deepcopy(docs)))
    twin.bulk(INDEX, [last] + docs)
    save_session(store, SESSION, tmp_path / "lanes", index=INDEX)
    rows_save_session(twin, SESSION, tmp_path / "rows", 100_000)
    assert files_of(tmp_path / "lanes") == files_of(tmp_path / "rows")
    loaded = DocumentStore()
    load_session(loaded, tmp_path / "lanes", index=INDEX)
    assert [list(source) for _, source in loaded.scan(INDEX)] == [
        ["session", "time", "b", "late"], ["session", "time", "b", "c", "a"],
        ["session", "time", "b", "a"], ["session", "time", "b", "a"]]
