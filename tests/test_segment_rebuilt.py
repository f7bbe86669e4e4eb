"""A save stores nothing a load can derive — and falls back when it can't.

Format v3 writes three block kinds that store no row: a constant (kind
5), ``time_exit`` as ``time + duration_ns`` (kind 6) and ``file_path``
as its ``file_tag``'s entry in a per-segment table (kind 7).  The
writer may use one only when it gives back every row of the chunk.
These tests draw chunks in which some row breaks each rule — a
``time_exit`` off by one; a ``time`` or ``duration_ns`` that is
``None``, a ``bool``, a float or 2**70; a tag with two paths; a tagged
row without its tag's path; a path without a tag; a lane with one value
on all rows but one; absent rows — and check two things: the documents
``load_session`` rebuilds are the saved ones (order, key order and
value classes included; a row's keys come back in its segment's
first-seen key order, as in every version of the format), and each
kind is chosen exactly when it reproduces the chunk, as decided here
from the rows alone.  One counterexample per rule is pinned with
``@example``, so the derandomized profile runs every fallback.
"""

import copy

from hypothesis import example, given, settings, strategies as st

from repro.backend import DocumentStore, load_session, save_session
from repro.backend.segments import (K_BY_TAG, K_CONST, K_SUM,
                                    SegmentStorage, sort_docs)

INDEX = "dio_trace"
SESSION = "saved"
#: Every row's keys, in this order (a row may lack some).
FIELDS = ("syscall", "pid", "session", "time", "time_exit", "duration_ns",
          "file_type", "file_tag", "file_path")
TAGS = ("7 1 1", "7 2 1", "7 3 1")
PATHS = {tag: f"/data/{number}.sst" for number, tag in enumerate(TAGS)}
#: Values that break ``time + duration_ns == time_exit`` as a rule of
#: exact ints.
ODD_INTS = (None, True, False, 1.5, 2.0, 1 << 70)


def row(number: int, tag=None, duration: int = 4, **fields) -> dict:
    """A row every derivation holds on, with ``fields`` laid over it
    (a value of ``...`` deletes the key)."""
    doc = {"syscall": ("read", "write")[number % 2], "pid": 7,
           "session": SESSION, "time": 100 + 10 * number,
           "time_exit": 100 + 10 * number + duration,
           "duration_ns": duration, "file_type": "regular"}
    if tag is not None:
        doc["file_tag"], doc["file_path"] = tag, PATHS[tag]
    doc.update(fields)
    return {field: doc[field] for field in FIELDS
            if field in doc and doc[field] is not ...}


def clean(n: int) -> list[dict]:
    return [row(number, TAGS[number % 2]) for number in range(n)]


def _broken(docs: list[dict], at: int, field: str, value) -> list[dict]:
    docs = copy.deepcopy(docs)
    docs[at] = {**docs[at], field: value}
    docs[at] = {key: docs[at][key] for key in FIELDS
                if key in docs[at] and docs[at][key] is not ...}
    return docs


@st.composite
def chunks(draw) -> list[dict]:
    """Rows every rule holds on, then some rows broken."""
    docs = [row(number, draw(st.sampled_from(TAGS + (None,))),
                draw(st.integers(0, 9)))
            for number in range(draw(st.integers(1, 9)))]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(docs) - 1))
        rule = draw(st.sampled_from([
            "exit-off", "odd-int", "two-paths", "no-path", "null-path",
            "no-tag", "one-other", "absent", "float"]))
        doc = docs[at]
        if rule == "exit-off":
            docs = _broken(docs, at, "time_exit",
                           doc.get("time_exit", 0) + 1
                           if type(doc.get("time_exit")) is int else 1)
        elif rule == "odd-int":
            docs = _broken(docs, at, draw(st.sampled_from(
                ["time", "duration_ns", "time_exit"])),
                draw(st.sampled_from(ODD_INTS)))
        elif rule == "two-paths":
            docs = _broken(_broken(docs, at, "file_tag", TAGS[0]), at,
                           "file_path", "/elsewhere")
        elif rule == "no-path":
            docs = _broken(docs, at, "file_path", ...)
        elif rule == "null-path":       # present, and null
            docs = _broken(docs, at, "file_path", None)
        elif rule == "no-tag":
            docs = _broken(_broken(docs, at, "file_tag", ...), at,
                           "file_path", doc.get("file_path", "/lost"))
        elif rule == "one-other":
            field = draw(st.sampled_from(["pid", "file_type", "syscall"]))
            docs = _broken(docs, at, field, draw(st.sampled_from(
                [8, True, 7.0, "pipe", None])))
        elif rule == "absent":
            docs = _broken(docs, at, draw(st.sampled_from(
                ["pid", "file_type", "time_exit", "duration_ns", "time",
                 "file_tag"])), ...)
        else:                           # one value on every row, a float
            docs = [{**doc, "pid": 7.0} for doc in docs]
    return docs


# ---------------------------------------------------------------------------
# the rules, decided from the rows alone

def _holds_one_value(docs: list[dict], field: str) -> bool:
    values = [doc.get(field) for doc in docs]
    return (all(field in doc for doc in docs)
            and type(values[0]) in (str, int, bool, type(None))
            and all(type(value) is type(values[0]) and value == values[0]
                    for value in values))


def _holds_the_sum(docs: list[dict]) -> bool:
    return all(type(doc.get(field)) is int
               for doc in docs
               for field in ("time", "duration_ns", "time_exit")) and all(
        doc["time"] + doc["duration_ns"] == doc["time_exit"] for doc in docs)


def _holds_by_tag(docs: list[dict]) -> bool:
    plain = (str, int, type(None))
    if not all(type(doc.get(field)) in plain
               for doc in docs for field in ("file_tag", "file_path")):
        return False
    table = {}
    for doc in docs:
        if "file_path" in doc:
            table.setdefault(doc.get("file_tag"), set()).add(
                (type(doc["file_path"]), doc["file_path"]))
    if None in table or any(len(paths) > 1 for paths in table.values()):
        return False
    return all(("file_path" in doc) == (doc.get("file_tag") in table)
               for doc in docs)


def expected_kind(docs: list[dict], field: str) -> str:
    if _holds_one_value(docs, field):
        return "constant"
    if field == "time_exit" and _holds_the_sum(docs):
        return "sum"
    if field == "file_path" and _holds_by_tag(docs):
        return "by-tag"
    return "stored"


def in_schema_order(docs: list[dict], flush_events: int) -> list[dict]:
    """Each row with its keys in its chunk's first-seen key order."""
    out = []
    for start in range(0, len(docs), flush_events):
        chunk = docs[start:start + flush_events]
        schema = dict.fromkeys(key for doc in chunk for key in doc)
        out.extend({key: doc[key] for key in schema if key in doc}
                   for doc in chunk)
    return out


KIND_OF = {K_CONST: "constant", K_SUM: "sum", K_BY_TAG: "by-tag"}

#: One chunk per rule that sends a field back to its stored block.
_EIGHT = clean(8)


@settings(max_examples=200, deadline=None)
@given(docs=chunks(), flush_events=st.integers(1, 9))
@example(docs=clean(6), flush_events=6)
@example(docs=_broken(_EIGHT, 3, "time_exit", 999), flush_events=8)
@example(docs=_broken(_EIGHT, 2, "time", None), flush_events=8)
@example(docs=_broken(_EIGHT, 2, "time", True), flush_events=8)
@example(docs=_broken(_EIGHT, 2, "time", 125.0), flush_events=8)
@example(docs=_broken(_EIGHT, 2, "time", 1 << 70), flush_events=8)
@example(docs=_broken(_EIGHT, 5, "duration_ns", None), flush_events=8)
@example(docs=_broken(_EIGHT, 5, "duration_ns", False), flush_events=8)
@example(docs=_broken(_EIGHT, 5, "duration_ns", 4.0), flush_events=8)
@example(docs=_broken(_EIGHT, 5, "duration_ns", 1 << 70), flush_events=8)
@example(docs=_broken(_EIGHT, 4, "file_path", "/elsewhere"), flush_events=8)
@example(docs=_broken(_EIGHT, 4, "file_path", ...), flush_events=8)
@example(docs=_broken(_EIGHT, 4, "file_tag", ...), flush_events=8)
@example(docs=_broken([{**doc, "file_path": None} for doc in _EIGHT], 2,
                      "file_path", ...), flush_events=8)
@example(docs=_broken(_EIGHT, 7, "pid", 8), flush_events=8)
@example(docs=_broken(_EIGHT, 7, "pid", True), flush_events=8)
@example(docs=_broken(_EIGHT, 0, "file_type", ...), flush_events=8)
@example(docs=_broken(_EIGHT, 0, "time_exit", ...), flush_events=8)
@example(docs=[{**doc, "pid": 7.0} for doc in _EIGHT], flush_events=8)
def test_a_save_rebuilds_exactly_what_it_did_not_store(tmp_path_factory,
                                                        docs, flush_events):
    root = tmp_path_factory.mktemp("rebuilt") / "store"
    store = DocumentStore()
    store.bulk(INDEX, copy.deepcopy(docs))
    save_session(store, SESSION, root, index=INDEX,
                 flush_events=flush_events)

    # The documents come back as they went in: order, key order and
    # value classes (``repr`` tells ``True`` from ``1`` from ``1.0``).
    loaded = DocumentStore()
    load_session(loaded, root, index=INDEX)
    assert repr([source for _, source in loaded.scan(INDEX)]) \
        == repr(in_schema_order(sort_docs(docs), flush_events))

    # Each kind is chosen exactly when it reproduces its chunk.
    engine = SegmentStorage(root, create=False, read_only=True)
    assert engine.verify()["ok"]
    chosen = set()
    for segment in engine.segments():
        rows = segment.docs()
        for field, (kind, _) in segment.kinds().items():
            assert KIND_OF.get(kind, "stored") == expected_kind(rows, field), \
                (field, rows)
            chosen.add(KIND_OF.get(kind, "stored"))
        assert repr(segment.lanes().to_docs()) == repr(rows)
    engine.close()
    if docs == clean(6):
        assert chosen == {"constant", "sum", "by-tag", "stored"}
