"""Vectorized ingest: RecordBatch lanes, bulk_columnar, lazy hydration.

The fast path's contract is *byte-identity with per-event
materialisation whenever it is observed*: documents a query returns,
index structures, counters, and diagnosis output must all match what
``Event.to_doc`` + per-document ``bulk`` would have produced.  These
are the unit-level checks; ``tests/test_ingest_differential.py``
generalises them with Hypothesis and the DST harness runs a
``bulk``-only twin as an oracle on every seed.
"""

import json

import pytest

from repro.backend import (INDEXED_EVENT_FIELDS, DocumentStore,
                           FilePathCorrelator, save_session)
from repro.backend.lanes import Derived, DocBatch, StructLane
from repro.dst.crash import BulkOnlyStore
from repro.kernel import Kernel, O_CREAT, O_RDWR
from repro.sim import Environment
from repro.tracer import DIOTracer, RecordBatch, TracerConfig
from repro.tracer.events import estimate_record_size
from tests.doc_reads import get_doc
from tests.event_oracle import Event
from tests.test_column_lanes import state as column_state

SESSION = "ingest-test"


def make_records():
    """A batch covering the lane corner cases.

    Mixed arg value types (buffers, vectors, out-params, exotica),
    optional enrichment fields present/absent, repeated and unique
    lane values.
    """
    return [
        {"syscall": "open", "args": {"path": "/data/a", "flags": 66},
         "ret": 3, "pid": 10, "tid": 10, "comm": "app",
         "enter_ns": 100, "exit_ns": 150, "file_type": "regular",
         "file_tag": "/data/a"},
        {"syscall": "write", "args": {"fd": 3, "data": b"x" * 64},
         "ret": 64, "pid": 10, "tid": 10, "comm": "app",
         "enter_ns": 200, "exit_ns": 280, "file_type": "regular",
         "offset": 0, "file_tag": "/data/a"},
        {"syscall": "writev",
         "args": {"fd": 3, "datas": [b"a" * 10, b"b" * 20]},
         "ret": 30, "pid": 10, "tid": 11, "comm": "app",
         "enter_ns": 300, "exit_ns": 420, "file_type": "regular",
         "offset": 64, "file_tag": "/data/a"},
        {"syscall": "fstat", "args": {"fd": 3, "statbuf": {"size": 94}},
         "ret": 0, "pid": 10, "tid": 10, "comm": "app",
         "enter_ns": 500, "exit_ns": 540, "file_type": "regular",
         "file_tag": "/data/a"},
        {"syscall": "stat",
         "args": {"path": "/data/b", "statbuf": {}, "weird": object()},
         "ret": -2, "pid": 11, "tid": 12, "comm": "other",
         "enter_ns": 600, "exit_ns": 610},
        {"syscall": "close", "args": {"fd": 3},
         "ret": 0, "pid": 10, "tid": 10, "comm": "app",
         "enter_ns": 700, "exit_ns": 705, "file_type": "regular",
         "file_tag": "/data/a"},
    ]


def legacy_docs(records, session=SESSION):
    """What the per-event path would ship for the same records."""
    return [Event(
        syscall=r["syscall"], args=r["args"], ret=r["ret"],
        pid=r["pid"], tid=r["tid"], proc_name=r["comm"],
        time=r["enter_ns"], time_exit=r["exit_ns"],
        file_type=r.get("file_type"), offset=r.get("offset"),
        file_tag=r.get("file_tag"), session=session,
    ).to_doc() for r in records]


# ----------------------------------------------------------------------
# RecordBatch lanes

class TestRecordBatch:
    def test_to_docs_byte_identical_to_legacy_path(self):
        records = make_records()
        batch = RecordBatch.decode(records, session=SESSION)
        expected = legacy_docs(records)
        assert batch.to_docs() == expected
        # Same key *order*, not just equal mappings.
        for got, want in zip(batch.to_docs(), expected):
            assert list(got) == list(want)
        assert len(batch) == len(records)

    def test_values_for_matches_document_reads(self):
        from repro.backend.query import get_field

        records = make_records()
        batch = RecordBatch.decode(records, session=SESSION)
        docs = legacy_docs(records)
        for field in ("syscall", "proc_name", "pid", "tid", "file_type",
                      "file_tag", "ret", "time", "time_exit",
                      "duration_ns", "offset", "session", "file_path",
                      "args.fd", "args.path"):
            assert batch.values_for(field) == [
                get_field(doc, field) for doc in docs], field

    def test_args_sanitisation_is_deferred(self):
        records = make_records()
        batch = RecordBatch.decode(records, session=SESSION)
        # Nothing sanitised at decode time.
        assert type(batch._lanes["args"][0]) is Derived
        args = batch.values_for("args")
        assert type(batch._lanes["args"][0]) is StructLane
        # Buffers became sizes, vectors became counts, out-params vanished.
        rows = args.dicts()
        assert rows[1]["data"] == 64
        assert rows[2]["datas"] == 30
        assert "statbuf" not in rows[3]
        assert batch.values_for("args") is args  # memoised

    def test_a_take_derives_no_lane(self):
        records = make_records()
        batch = RecordBatch.decode(records, session=SESSION)
        taken = batch.take([4, 0, 2])
        for lanes in (batch, taken, taken.take([2, 1])):
            assert [field for field, (values, _) in lanes._lanes.items()
                    if type(values) is Derived] == ["args", "duration_ns",
                                                    "session"]
            assert [field for field, (_, present) in lanes._lanes.items()
                    if type(present) is Derived] == ["file_type", "offset",
                                                     "file_tag"]
        expected = legacy_docs(records)
        assert taken.to_docs() == [expected[row] for row in (4, 0, 2)]
        assert type(batch._lanes["args"][0]) is Derived

    def test_correlation_reads_args_path_off_the_records(self, monkeypatch,
                                                         tmp_path):
        # Decode, bulk and correlate never build the args struct lane:
        # the correlator's ``args.path`` is read off the records.  The
        # segment writer is the first reader that needs it, once.
        import repro.tracer.batch as batch_module

        built = []
        real = batch_module.sanitized_lane
        monkeypatch.setattr(batch_module, "sanitized_lane",
                            lambda raw: built.append(len(raw)) or real(raw))
        store = DocumentStore()
        store.ensure_index("idx", indexed_fields=INDEXED_EVENT_FIELDS)
        store.bulk_columnar("idx", RecordBatch.decode(make_records(),
                                                      session=SESSION))
        report = FilePathCorrelator(store).correlate("idx", session=SESSION)
        assert report.documents_updated == 5
        assert built == []
        assert save_session(store, SESSION, tmp_path / "saved",
                            index="idx") == 6
        assert built == [6]

    def test_decoded_bool_ret_survives_round_trip(self):
        records = make_records()
        records[0]["ret"] = True
        batch = RecordBatch.decode(records, session=SESSION)
        doc = batch.to_docs()[0]
        assert doc["ret"] is True
        assert json.dumps(doc) == json.dumps(legacy_docs(records)[0])


# ----------------------------------------------------------------------
# estimate_record_size (nested-args regression)

class TestEstimateRecordSize:
    def test_nested_dict_args_cost_nothing(self):
        # _sanitize_args drops dict-valued out-params entirely, so the
        # ring accounting must not charge for their contents — however
        # deeply nested.
        flat = estimate_record_size("fstat", {"fd": 3, "statbuf": {}})
        nested = estimate_record_size("fstat", {
            "fd": 3,
            "statbuf": {"size": 4096,
                        "times": {"atime": {"sec": 1, "nsec": 2},
                                  "mtime": [1, 2, 3, {"deep": "x" * 500}]}},
        })
        assert nested == flat

    def test_buffer_lists_collapse_to_counts(self):
        small = estimate_record_size("writev",
                                     {"fd": 3, "datas": [b"a"]})
        huge = estimate_record_size(
            "writev", {"fd": 3, "datas": [b"a" * 65536] * 64})
        assert huge == small  # both serialize as one count int

    def test_strings_and_exotics_charge_their_length(self):
        base = estimate_record_size("open", {})
        assert (estimate_record_size("open", {"path": "/abc"})
                == base + len("/abc") + 8)

        class Exotic:
            def __str__(self):
                return "EXOTIC"

        assert (estimate_record_size("open", {"w": Exotic()})
                == base + len("EXOTIC") + 8)


# ----------------------------------------------------------------------
# bulk_columnar + lazy hydration

#: The fields the tracer eagerly indexes on attach.
TRACED_FIELDS = ("syscall", "proc_name", "pid", "tid", "file_tag",
                 "session", "time")


def store_pair(records):
    """(legacy store, vectorized store) loaded with the same records."""
    legacy = DocumentStore()
    legacy.ensure_index("idx", indexed_fields=TRACED_FIELDS)
    legacy.bulk("idx", legacy_docs(records))
    vec = DocumentStore()
    vec.ensure_index("idx", indexed_fields=TRACED_FIELDS)
    vec.bulk_columnar("idx", RecordBatch.decode(records, session=SESSION))
    return legacy, vec


class TestBulkColumnar:
    def test_scan_matches_legacy_bulk(self):
        legacy, vec = store_pair(make_records())
        assert (list(vec.scan("idx", {"match_all": {}}))
                == list(legacy.scan("idx", {"match_all": {}})))

    def test_indexes_match_legacy_bulk(self):
        # The first term on a field builds its column and postings —
        # from documents on one store, from parked lanes on the other
        # — and both end in the same state, slot for slot.  A term
        # every row holds (the one session) plans as every row and
        # builds no postings.
        legacy, vec = store_pair(make_records())
        docs = [source for _, source in legacy.scan("idx")]
        for field in TRACED_FIELDS:
            value = next(doc[field] for doc in docs
                         if doc.get(field) is not None)
            counts = [store.count("idx", {"term": {field: value}})
                      for store in (legacy, vec)]
            assert counts[0] == counts[1] > 0, field
            lhs, rhs = (store._indices["idx"].columns._columns[field]
                        for store in (legacy, vec))
            assert (lhs._postings is None) == (counts[0] == len(docs)), field
            assert column_state(lhs) == column_state(rhs), field
        assert vec._indices["idx"].pending_docs == 6   # nothing hydrated

    def test_queries_flush_only_the_fields_they_touch(self):
        _, vec = store_pair(make_records())
        index = vec._indices["idx"]
        built = index.columns._columns
        assert not built                  # declared fields build nothing
        assert vec.count("idx", {"term": {"syscall": "write"}}) == 1
        # A query on ``syscall`` builds nothing for ``time``.
        assert list(built) == ["syscall"]
        assert built["syscall"]._postings is not None
        assert index.pending_docs == 6
        # A put appends a part: nothing is built, the one column that
        # exists takes the new row and still nothing is built for
        # ``time``.
        vec.bulk("idx", [{"syscall": "late", "session": SESSION}])
        assert index.pending_docs == 6
        assert list(built) == ["syscall"]
        assert vec.count("idx", {"term": {"syscall": "late"}}) == 1
        # A range on a lane that never decreases needs no postings.
        assert vec.count("idx", {"range": {"time": {"gte": 0}}}) == 6
        assert list(built) == ["syscall", "time"]
        assert built["time"]._postings is None

    def test_count_and_len_do_not_hydrate(self):
        vec = DocumentStore()
        vec.ensure_index("idx", indexed_fields=TRACED_FIELDS)
        vec.bulk_columnar("idx", RecordBatch.decode(make_records(),
                                                    session=SESSION))
        index = vec._indices["idx"]
        assert index.pending_docs == 6
        assert vec.count("idx") == 6
        assert len(index) == 6
        assert vec.count("idx", {"term": {"syscall": "write"}}) == 1
        assert index.pending_docs == 6  # still nothing materialised

    def test_reads_hydrate_on_demand(self):
        records = make_records()
        vec = DocumentStore()
        vec.bulk_columnar("idx", RecordBatch.decode(records,
                                                    session=SESSION))
        index = vec._indices["idx"]
        doc = get_doc(vec, "idx", "1")
        assert doc == legacy_docs(records)[0]
        # One row asked for, one row built: the same dict on every read.
        assert index.pending_docs == 5
        assert index.hydrated_docs_total == 1
        assert get_doc(vec, "idx", "1") is doc
        # A path table derives a lane: nothing built, and the dict a
        # reader holds names the file too.
        vec.set_paths("idx", {"/data/a": "/a"})
        assert index.pending_docs == 5
        assert doc["file_path"] == "/a"
        # A second one meets that lane and builds the rest, that one
        # kept.
        vec.set_paths("idx", {"/data/a": "/b"})
        assert index.pending_docs == 0
        assert index.hydrated_docs_total == 6
        assert get_doc(vec, "idx", "1") is doc
        assert get_doc(vec, "idx", "2")["file_path"] == "/b"

    def test_a_put_after_a_parked_bulk_builds_nothing(self):
        vec = DocumentStore()
        vec.bulk_columnar("idx", RecordBatch.decode(make_records(),
                                                    session=SESSION))
        index = vec._indices["idx"]
        get_doc(vec, "idx", "1")
        assert (index.pending_docs, index.hydrated_docs_total) == (5, 1)
        # A put appends one part; the parked batch stays as it is.
        vec.bulk("idx", [{"syscall": "late"}])
        assert (index.pending_docs, index.hydrated_docs_total) == (5, 1)
        assert get_doc(vec, "idx", "7") == {"syscall": "late"}
        assert vec.count("idx") == 7

    def test_steady_state_aggregation_stays_lazy(self, tmp_path):
        # Columnar bulks + aggregations never materialise a _source
        # dict: the first aggregation builds its column from the
        # batch's lanes, later bulks extend it lane-wise.  Nor does the
        # tail of every traced execution: correlation reads lanes and
        # its path table lands as a derived lane, save_session writes
        # blocks from lanes.
        records = make_records()
        vec = DocumentStore()
        vec.ensure_index("idx", indexed_fields=INDEXED_EVENT_FIELDS)
        aggs = {"per": {"terms": {"field": "syscall", "size": 10}}}
        vec.bulk_columnar("idx", RecordBatch.decode(records,
                                                    session=SESSION))
        vec.search("idx", size=0, aggs=aggs)  # builds the column
        index = vec._indices["idx"]
        assert index.hydrated_docs_total == 0
        vec.bulk_columnar("idx", RecordBatch.decode(records,
                                                    session=SESSION))
        response = vec.search("idx", size=0, aggs=aggs)
        assert vec.count("idx") == 12
        assert index.hydrated_docs_total == 0
        assert index.pending_docs == 12
        buckets = {b["key"]: b["doc_count"]
                   for b in response["aggregations"]["per"]["buckets"]}
        assert buckets["write"] == 2
        report = FilePathCorrelator(vec).correlate("idx", session=SESSION)
        assert report.documents_updated == 10
        assert save_session(vec, SESSION, tmp_path / "saved",
                            index="idx") == 12
        assert index.hydrated_docs_total == 0
        assert index.pending_docs == 12
        # A request that returns a hit builds that hit's row alone —
        # and the hit carries the path its tag names.
        hit, = vec.search("idx", size=1)["hits"]["hits"]
        assert hit["_source"]["file_path"] == "/data/a"
        assert list(hit["_source"])[-1] == "file_path"
        assert index.pending_docs == 11
        assert index.hydrated_docs_total == 1

    def test_mutations_after_columnar_bulk_are_ordered(self):
        records = make_records()
        vec = DocumentStore()
        vec.bulk_columnar("idx", RecordBatch.decode(records,
                                                    session=SESSION))
        vec.bulk_columnar("idx", DocBatch([{"syscall": "late",
                                            "session": SESSION}]), ["99"])
        docs = [doc_id for doc_id, _ in vec.scan("idx", {"match_all": {}})]
        assert docs == ["1", "2", "3", "4", "5", "6", "99"]
        assert vec.count("idx") == 7

    def test_ingest_telemetry_families(self):
        from repro.telemetry import MetricsRegistry

        vec = DocumentStore()
        registry = MetricsRegistry()
        vec.bind_telemetry(registry)
        vec.bulk_columnar("idx", RecordBatch.decode(make_records(),
                                                    session=SESSION))
        assert registry.value("dio_ingest_columnar_bulks_total") == 1
        assert registry.value("dio_ingest_pending_docs") == 6
        assert registry.value("dio_ingest_docs_hydrated_total") == 0
        get_doc(vec, "idx", "1")
        assert registry.value("dio_ingest_pending_docs") == 5
        assert registry.value("dio_ingest_docs_hydrated_total") == 1
        vec.set_paths("idx", {"/data/a": "/a"})
        assert registry.value("dio_ingest_pending_docs") == 5
        vec.set_paths("idx", {"/data/a": "/b"})
        assert registry.value("dio_ingest_pending_docs") == 0
        assert registry.value("dio_ingest_docs_hydrated_total") == 6


# ----------------------------------------------------------------------
# The consumer: endpoint equivalence + batched counter updates

def run_pipeline(bulk_only, hook=None):
    """Trace a small workload end-to-end.

    ``bulk_only`` hides ``bulk_columnar`` from the tracer, so every
    batch ships as ``RecordBatch.to_docs()`` through per-document
    ``bulk`` — the reference the vectorized endpoint must match.
    """
    env = Environment()
    kernel = Kernel(env, ncpus=2)
    store = DocumentStore()
    tracer = DIOTracer(env, kernel,
                       BulkOnlyStore(store) if bulk_only else store,
                       TracerConfig())
    if hook is not None:
        hook(tracer)
    task = kernel.spawn_process("app").threads[0]
    tracer.attach()

    def workload():
        fd = yield from kernel.syscall(task, "open", path="/f",
                                       flags=O_CREAT | O_RDWR)
        for i in range(40):
            yield from kernel.syscall(task, "write", fd=fd,
                                      data=b"x" * (i + 1))
        yield from kernel.syscall(task, "close", fd=fd)
        yield from tracer.shutdown()

    env.run(until=env.process(workload()))
    return store, tracer


class TestConsumerModes:
    def test_modes_store_identical_documents(self):
        stores = []
        for bulk_only in (False, True):
            store, _ = run_pipeline(bulk_only)
            stores.append(list(store.scan("dio_trace", {"match_all": {}})))
            assert store.columnar_bulks == (0 if bulk_only
                                            else store.bulk_requests)
        assert stores[0] == stores[1]
        assert json.dumps(stores[0]) == json.dumps(stores[1])

    def test_modes_agree_on_shared_counters(self):
        values = []
        for bulk_only in (False, True):
            _, tracer = run_pipeline(bulk_only)
            registry = tracer.telemetry.registry
            values.append({
                name: registry.value(name)
                for name in ("dio_consumer_events_parsed_total",
                             "dio_consumer_batches_total",
                             "dio_shipper_events_total",
                             "dio_ingest_events_total",
                             "dio_ingest_batches_total")
            })
        lhs, rhs = values
        assert lhs == rhs  # identical counter readings
        assert lhs["dio_ingest_events_total"] == lhs[
            "dio_consumer_events_parsed_total"]

    @pytest.mark.parametrize("bulk_only", [False, True],
                             ids=["vectorized", "legacy"])
    def test_counter_updates_are_batched(self, bulk_only):
        # One registry add per batch, not per event: the parsed-events
        # counter and both ingest counters must each be incremented
        # exactly as many times as there were batches.
        calls = {"parsed": 0, "events": 0, "batches": 0}

        class CountingProxy:
            def __init__(self, inner, key):
                self._inner, self._key = inner, key

            def inc(self, amount=1):
                calls[self._key] += 1
                return self._inner.inc(amount)

        def hook(tracer):
            tracer._m_parsed = CountingProxy(tracer._m_parsed, "parsed")
            tracer._m_ingest_events = CountingProxy(
                tracer._m_ingest_events, "events")
            tracer._m_ingest_batches = CountingProxy(
                tracer._m_ingest_batches, "batches")

        _, tracer = run_pipeline(bulk_only, hook=hook)
        registry = tracer.telemetry.registry
        batches = registry.value("dio_consumer_batches_total")
        parsed = registry.value("dio_consumer_events_parsed_total")
        assert parsed == 42  # open + 40 writes + close
        assert batches >= 1
        assert calls["parsed"] == batches
        assert calls["events"] == batches
        assert calls["batches"] == batches


class TestIngestConfig:
    def test_store_without_bulk_columnar_degrades(self):
        # A backend predating the vectorized endpoint still works: the
        # consumer materialises the batch and ships a dict bulk.
        class OldStore:
            def __init__(self):
                self.inner = DocumentStore()

            def ensure_index(self, *a, **k):
                return self.inner.ensure_index(*a, **k)

            def bulk(self, index, sources, nominal_ns=0):
                return self.inner.bulk(index, sources)

            def bind_telemetry(self, registry, clock=None):
                pass

        env = Environment()
        kernel = Kernel(env, ncpus=1)
        old = OldStore()
        tracer = DIOTracer(env, kernel, old,
                           TracerConfig(correlate_on_stop=False))
        task = kernel.spawn_process("app").threads[0]
        tracer.attach()

        def workload():
            fd = yield from kernel.syscall(task, "open", path="/f",
                                           flags=O_CREAT | O_RDWR)
            yield from kernel.syscall(task, "close", fd=fd)
            yield from tracer.shutdown()

        env.run(until=env.process(workload()))
        assert old.inner.count("dio_trace") == 2
