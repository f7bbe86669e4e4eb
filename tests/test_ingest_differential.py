"""Hypothesis differential suite: vectorized vs legacy ingest.

The property under test is the vectorized path's whole contract: for
*any* batch of ring records — mixed argument types, missing enrichment
fields, cross-type-equal values, unicode, huge ints — shipping through
``RecordBatch.decode`` + ``bulk_columnar`` must leave the store in a
state byte-identical to per-event ``Event.to_doc`` + ``bulk``:
same documents (values, key order, JSON bytes), same rows, columns and
postings, same query answers, same aggregation responses, and the same behaviour
under subsequent mutations.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import DocumentStore
from repro.dst import Scenario, generate
from repro.dst.runner import execute_pipeline
from repro.tracer import DIOTracer, RecordBatch
from tests.event_oracle import Event
from tests.test_column_lanes import state as column_state
from tests.test_ingest import legacy_docs

SESSION = "diff-test"

INDEXED = ("syscall", "proc_name", "pid", "tid", "file_tag", "session",
           "time")

# --- ring-record strategies -------------------------------------------------

syscalls = st.sampled_from(["read", "write", "open", "close", "fsync",
                            "lseek", "stat", "writev"])
comms = st.sampled_from(["app", "worker", "ingest-0", "журнал", "db"])

#: Raw argument values covering every _sanitize_args branch: scalars,
#: buffers, buffer vectors, dropped out-params, and None.  Floats are
#: bounded and finite so JSON comparison is exact.
arg_values = st.one_of(
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.booleans(),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.text(max_size=12),
    st.binary(max_size=32),
    st.builds(bytearray, st.binary(max_size=16)),
    st.lists(st.one_of(st.binary(max_size=8), st.integers()), max_size=4),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=3),
    st.none(),
)

records = st.builds(
    dict,
    syscall=syscalls,
    args=st.dictionaries(
        st.sampled_from(["fd", "path", "flags", "data", "statbuf", "x"]),
        arg_values, max_size=4),
    ret=st.one_of(st.integers(min_value=-40, max_value=2 ** 40),
                  st.booleans(),
                  st.integers(min_value=2 ** 65, max_value=2 ** 66)),
    pid=st.integers(min_value=1, max_value=5),
    tid=st.integers(min_value=1, max_value=9),
    comm=comms,
    enter_ns=st.integers(min_value=0, max_value=10 ** 7),
    exit_ns=st.integers(min_value=0, max_value=10 ** 7),
    file_type=st.one_of(st.none(),
                        st.sampled_from(["regular", "fifo", "socket"])),
    offset=st.one_of(st.none(), st.integers(min_value=0,
                                            max_value=2 ** 40)),
    file_tag=st.one_of(st.none(), st.sampled_from(["/a", "/b", "/c/д"])),
)


def drop_absent(record):
    """Optional enrichment keys are *absent* on real ring records,
    not present-and-None."""
    for key in ("file_type", "offset", "file_tag"):
        if record[key] is None:
            del record[key]
    return record


batches = st.lists(records.map(drop_absent), max_size=30)


def touch_indexed_fields(store):
    """One ``term`` per value of every declared field plus an
    ``exists``: what builds a field's column and its postings."""
    docs = [source for _, source in store.scan("idx")]
    for field in INDEXED:
        store.count("idx", {"exists": {"field": field}})
        for value in {doc.get(field) for doc in docs} - {None}:
            store.count("idx", {"term": {field: value}})


def legacy_store(batch_list, between=lambda store: None):
    store = DocumentStore()
    store.ensure_index("idx", indexed_fields=INDEXED)
    for batch in batch_list:
        store.bulk("idx", [Event(
            syscall=r["syscall"], args=r["args"], ret=r["ret"],
            pid=r["pid"], tid=r["tid"], proc_name=r["comm"],
            time=r["enter_ns"], time_exit=r["exit_ns"],
            file_type=r.get("file_type"), offset=r.get("offset"),
            file_tag=r.get("file_tag"), session=SESSION,
        ).to_doc() for r in batch])
        between(store)
    return store


def vectorized_store(batch_list, between=lambda store: None):
    store = DocumentStore()
    store.ensure_index("idx", indexed_fields=INDEXED)
    for batch in batch_list:
        store.bulk_columnar("idx",
                            RecordBatch.decode(batch, session=SESSION))
        between(store)
    return store


def assert_stores_identical(legacy, vec):
    lhs = legacy._indices["idx"]
    rhs = vec._indices["idx"]
    # Documents: ids, insertion order, key order, exact JSON bytes.
    lhs_docs = list(legacy.scan("idx", {"match_all": {}}))
    rhs_docs = list(vec.scan("idx", {"match_all": {}}))
    assert (json.dumps(lhs_docs, sort_keys=False, default=str)
            == json.dumps(rhs_docs, sort_keys=False, default=str))
    # Rows: the same ids own the same rows, dead ones included.
    assert lhs.columns.doc_ids == rhs.columns.doc_ids
    assert lhs.columns.row_of == rhs.columns.row_of
    assert lhs._next_id == rhs._next_id
    # The one per-field structure: vectorized ingest and per-document
    # ``put`` end in the same column and postings state, slot for slot.
    for store in (legacy, vec):
        touch_indexed_fields(store)
    assert list(lhs.columns._columns) == list(rhs.columns._columns)
    for field, column in lhs.columns._columns.items():
        other = rhs.columns._columns[field]
        assert column_state(column) == column_state(other), field


class TestDifferentialIngest:
    @given(batch_list=st.lists(batches, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_store_state_is_byte_identical(self, batch_list):
        assert_stores_identical(legacy_store(batch_list),
                                vectorized_store(batch_list))

    @given(batch_list=st.lists(batches, min_size=2, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_batches_after_postings_exist_agree(self, batch_list):
        # Queries between the bulks: every later batch lands on
        # columns and postings that exist — extended lane-wise (by
        # group where the batch has groups) on one store, row by row
        # on the other.
        assert_stores_identical(
            legacy_store(batch_list, between=touch_indexed_fields),
            vectorized_store(batch_list, between=touch_indexed_fields))

    @given(batch_list=st.lists(batches, max_size=3), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_queries_and_aggs_agree(self, batch_list, data):
        legacy = legacy_store(batch_list)
        vec = vectorized_store(batch_list)
        syscall = data.draw(syscalls)
        lo = data.draw(st.integers(min_value=0, max_value=10 ** 7))
        queries = [
            None,
            {"term": {"syscall": syscall}},
            {"range": {"time": {"gte": lo}}},
            {"bool": {"must": [{"term": {"session": SESSION}}],
                      "must_not": [{"term": {"syscall": syscall}}]}},
        ]
        for query in queries:
            assert (legacy.count("idx", query)
                    == vec.count("idx", query)), query
            assert (list(legacy.scan("idx", query))
                    == list(vec.scan("idx", query))), query
        aggs = {
            "per_syscall": {"terms": {"field": "syscall", "size": 20}},
            "latency": {"stats": {"field": "duration_ns"}},
            "p95": {"percentiles": {"field": "duration_ns",
                                    "percents": [50, 95]}},
        }
        lhs = legacy.search("idx", size=0, aggs=aggs)["aggregations"]
        rhs = vec.search("idx", size=0, aggs=aggs)["aggregations"]
        assert json.dumps(lhs, sort_keys=True) == json.dumps(
            rhs, sort_keys=True)

    @given(batch=batches, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_mutations_after_ingest_agree(self, batch, data):
        legacy = legacy_store([batch])
        vec = vectorized_store([batch])
        syscall = data.draw(syscalls)
        # Interleave a put and an update-by-query after the bulk: the
        # hydration barriers must leave both stores observably
        # identical, not just query-identical.
        extra = {"syscall": "late", "session": SESSION, "time": 1,
                 "pid": 1, "tid": 1, "proc_name": "tail",
                 "args": {}, "ret": 0, "time_exit": 2, "duration_ns": 1}
        for store in (legacy, vec):
            store.index_doc("idx", dict(extra), doc_id="tail-1")
            store.update_by_query("idx", {"term": {"syscall": syscall}},
                                  {"file_path": "/resolved"})
        assert_stores_identical(legacy, vec)

    @given(batch=batches)
    @settings(max_examples=40, deadline=None)
    def test_batch_iterates_as_legacy_documents(self, batch):
        decoded = RecordBatch.decode(batch, session=SESSION)
        expected = [Event(
            syscall=r["syscall"], args=r["args"], ret=r["ret"],
            pid=r["pid"], tid=r["tid"], proc_name=r["comm"],
            time=r["enter_ns"], time_exit=r["exit_ns"],
            file_type=r.get("file_type"), offset=r.get("offset"),
            file_tag=r.get("file_tag"), session=SESSION,
        ).to_doc() for r in batch]
        assert decoded.to_docs() == expected
        assert [list(doc) for doc in decoded.to_docs()] == [
            list(doc) for doc in expected]


# --- decode differential over the DST syscall surface -----------------------
#
# The DST oracle twin ships ``RecordBatch.to_docs()`` through ``bulk``,
# so it no longer runs ``Event.to_doc`` end to end.  This pins the
# decode itself against it on everything the DST apps can emit
# (metadata storms, xattrs, unicode paths, io_uring ops, failed calls).

_SCENARIOS = (
    [pytest.param(path, id=path.stem) for path in
     sorted((Path(__file__).parent / "corpus").glob("*.json"))]
    + [pytest.param(seed, id=f"seed-{seed}")
       for seed in (1, 3, 5, 8, 12, 78)])


@pytest.mark.parametrize("source", _SCENARIOS)
def test_decode_matches_event_to_doc_on_dst_surface(source, monkeypatch):
    scenario = (generate(source) if isinstance(source, int)
                else Scenario.load(source))
    drained = []
    take_batch = DIOTracer._take_batch

    def spy(self, limit=None):
        batch = take_batch(self, limit)
        if batch:
            drained.append((self.config.session_name, list(batch)))
        return batch

    monkeypatch.setattr(DIOTracer, "_take_batch", spy)
    execute_pipeline(scenario)
    assert drained
    for session, batch in drained:
        decoded = RecordBatch.decode(batch, session=session).to_docs()
        assert json.dumps(decoded) == json.dumps(
            legacy_docs(batch, session=session))
