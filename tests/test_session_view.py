"""One read of a stored session: request budget, equivalence, goldens.

``diagnose_session`` derives the detectors' inputs and evidence, the
streaming replay, the DFG and the phases from one
:class:`~repro.analysis.session.SessionEvents`.  These tests hold that
to a request budget on the public store surface, check that a shared
view never changes an answer, and pin whole reports byte-for-byte
against hashes generated at the commit before the view existed.  (What
the replay feeds the tap, and in what order, is
``tests/test_diagnosis_feed.py``.)
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.compare import _sequence
from repro.analysis.detectors import DEFAULT_DETECTORS, run_detectors
from repro.analysis.dfg import merged_dfg, mine_phases
from repro.analysis.diagnose import diagnose_session, follow_session
from repro.analysis.patterns import (classify_file_accesses,
                                     find_stale_offset_resumes)
from repro.analysis.session import SessionEvents
from repro.apps.fluentbit import FLUENTBIT_BUGGY
from repro.backend import create_store
from repro.experiments import run_fluentbit_case, run_rocksdb_case
from repro.experiments.rocksdb_case import RocksDBScale
from tests.dfg_oracle import graph_as_dict

INDEX = "dio_trace"
GOLDEN = Path(__file__).parent / "corpus" / "diagnosis" / "golden.json"


@pytest.fixture(scope="module")
def fluentbit():
    return run_fluentbit_case(FLUENTBIT_BUGGY)


@pytest.fixture(scope="module")
def rocksdb():
    return run_rocksdb_case(RocksDBScale(duration_ns=400_000_000))


# ----------------------------------------------------------------------
# Request budget

class CountingStore:
    """Counts reads by shape; public surface only."""

    def __init__(self, inner, session):
        self.inner = inner
        self.session = session
        self.unbounded = 0          # size=None: every hit materialised
        self.with_hits = 0          # any search that returns hits
        self.lane_reads = 0         # ``lanes``: ids and lanes, no hit
        self.whole_session = 0      # ... with nothing but the session

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def search(self, index, query=None, aggs=None, sort=None, size=10,
               from_=0):
        if size is None:
            self.unbounded += 1
        if size != 0:
            self.with_hits += 1
        return self.inner.search(index, query=query, aggs=aggs, sort=sort,
                                 size=size, from_=from_)

    def lanes(self, index, query=None):
        self.lane_reads += 1
        scope = {"term": {"session": self.session}}
        if query in (None, {"match_all": {}}, scope,
                     {"bool": {"must": [scope]}}):
            self.whole_session += 1
        return self.inner.lanes(index, query)


def sharded_copy(store, shards=3):
    copy = create_store(shard_count=shards)
    copy.bulk(INDEX, [source for _, source in store.scan(INDEX)])
    return copy


@pytest.mark.parametrize("shards", [1, 3])
def test_diagnosis_request_budget(rocksdb, shards):
    store = rocksdb.store if shards == 1 else sharded_copy(rocksdb.store,
                                                           shards)
    counting = CountingStore(store, rocksdb.session)
    report = diagnose_session(counting, rocksdb.session,
                              latency_records=rocksdb.bench.records())
    per_finding = [ranked for ranked in report.findings
                   if ranked.source != "streaming"
                   and (ranked.finding.evidence or {}).get("event_ids")]
    assert len(per_finding) > 4         # the budget below is not vacuous
    # One read of the session, as lanes; every detector's scan reads
    # the view, and no search returns a hit.
    assert counting.lane_reads == counting.whole_session == 1
    assert counting.unbounded == counting.with_hits == 0
    assert report.events == store.count(
        INDEX, {"term": {"session": rocksdb.session}})


def test_sharded_report_equals_plain(rocksdb):
    # ids are assigned in arrival order on both, so evidence agrees too
    plain = create_store(shard_count=1)
    plain.bulk(INDEX, [source for _, source in rocksdb.store.scan(INDEX)])
    records = rocksdb.bench.records()
    assert (diagnose_session(sharded_copy(rocksdb.store), rocksdb.session,
                             latency_records=records).as_dict()
            == diagnose_session(plain, rocksdb.session,
                                latency_records=records).as_dict())


# ----------------------------------------------------------------------
# A caller-supplied view never changes an answer

def entry_points(store, session, view):
    """Every public per-function entry point, with or without a view."""
    extra = {} if view is None else {"view": view}
    yield "classify", classify_file_accesses(store, INDEX, session, **extra)
    yield "stale", find_stale_offset_resumes(store, INDEX, session, **extra)
    yield "detectors", run_detectors(store, INDEX, session, **extra)
    for detector in DEFAULT_DETECTORS:
        yield detector.name, detector.run(store, INDEX, session, **extra)
    yield "merged_dfg", graph_as_dict(merged_dfg(store, INDEX, session,
                                                 **extra))
    yield "phases", [phase.as_dict() for phase in mine_phases(
        store, INDEX, session, **extra)]
    yield "replay", follow_session(store, INDEX, session, **extra).findings()


@pytest.mark.parametrize("case_name", ["fluentbit", "rocksdb"])
def test_entry_points_agree_with_and_without_view(case_name, request):
    case = request.getfixturevalue(case_name)
    session = (case.session if case_name == "rocksdb"
               else case.tracer.config.session_name)
    view = SessionEvents(case.store, INDEX, session)
    alone = dict(entry_points(case.store, session, None))
    shared = dict(entry_points(case.store, session, view))
    assert alone.keys() == shared.keys()
    for name in alone:
        assert alone[name] == shared[name], name
    # Not vacuous: some detector of either battery found something.
    assert any(alone[d.name] for d in DEFAULT_DETECTORS) or alone["replay"]


@pytest.mark.parametrize("shards", [1, 3])
def test_view_filters_equal_the_stores_filtered_sorts(rocksdb, shards):
    """The rule the detectors rely on, on the store itself."""
    session = rocksdb.session
    store = rocksdb.store if shards == 1 else sharded_copy(rocksdb.store,
                                                           shards)
    view = SessionEvents(store, INDEX, session)

    def sorted_hits(extra, sort=("time",)):
        response = store.search(INDEX, query=view.query(extra),
                                sort=list(sort), size=None)
        return [(hit["_id"], hit["_source"])
                for hit in response["hits"]["hits"]]

    events = list(zip(view.ids, view.batch.to_docs()))
    assert events == sorted_hits([])
    assert view.times == [source.get("time", 0) for _, source in events]

    def at(rows):
        return [events[row] for row in rows]

    tags = [tag for tag in view.by_file_tag if tag is not None]
    assert tags
    for tag in tags[:25]:
        clause = [{"term": {"file_tag": tag}}]
        assert at(view.by_file_tag[tag]) == sorted_hits(clause)
        assert at(view.in_stored_order(view.by_file_tag[tag])) == \
            sorted_hits(clause, sort=())
    for pid, rows in view._grouped("pid").items():
        assert at(rows) == sorted_hits([{"term": {"pid": pid}}])
    data = sorted_hits([
        {"terms": {"syscall": ["read", "pread64", "readv", "write",
                               "pwrite64", "writev"]}},
        {"exists": {"field": "file_tag"}}])
    per_file = {}
    for event in data:
        per_file.setdefault(event[1]["file_tag"], []).append(event)
    assert {tag: at(rows) for tag, rows in view.data_by_file.items()} \
        == per_file


def test_compare_sequence_equals_the_filtered_query(fluentbit):
    store, session = fluentbit.store, fluentbit.tracer.config.session_name
    names = sorted({source["proc_name"] for _, source in store.scan(INDEX)})
    assert len(names) > 1
    for procs in (None, names[:1], names, ["nobody"]):
        must = [{"term": {"session": session}}]
        if procs:
            must.append({"terms": {"proc_name": procs}})
        response = store.search(INDEX, query={"bool": {"must": must}},
                                sort=["time"], size=None)
        assert _sequence(store, session, INDEX, procs).to_docs() == [
            hit["_source"] for hit in response["hits"]["hits"]]


# ----------------------------------------------------------------------
# Golden reports: byte-identical to the commit before the view

def golden_reports(fluentbit, rocksdb) -> dict:
    reports = {
        "fluentbit-1.4.0": diagnose_session(
            fluentbit.store, fluentbit.tracer.config.session_name),
        "rocksdb-0.4s": diagnose_session(
            rocksdb.store, rocksdb.session,
            latency_records=rocksdb.bench.records()),
    }
    return {name: {
        "sha256": hashlib.sha256(json.dumps(
            report.as_dict(), indent=2, sort_keys=True).encode()).hexdigest(),
        "events": report.events,
        "findings": len(report.findings),
        "detectors_fired": report.detectors_fired,
    } for name, report in reports.items()}


def test_golden_reports(fluentbit, rocksdb):
    assert golden_reports(fluentbit, rocksdb) == json.loads(
        GOLDEN.read_text())

