"""Diagnosis at trace scale is the per-event diagnosis it replaced.

The report's DFG, behaviour phases, access patterns and contention are
array and lane arithmetic over one session read; the loops they
replaced live in ``tests/dfg_oracle.py`` and
``tests/detector_oracle.py`` and must say the same on generated
sessions: interleaved threads, times out of order or missing, empty and
one-event windows, and drifts that land exactly on the threshold.  The
storage side of the same change is held to its oracles here too: a
term every row holds plans as ``range(n)`` and still equals
``naive_scan``, and a segment store's lane count equals the length of
its scan.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.analysis import dfg
from repro.analysis.contention import detect_contention
from repro.analysis.dfg import (DirectlyFollowsGraph, merged_dfg,
                                segment_phases)
from repro.analysis.patterns import classify_file_accesses
from repro.analysis.session import SessionEvents
from repro.backend import DocumentStore, SegmentStorage
from repro.backend.lanes import DocBatch
from repro.backend.naive import naive_scan
from tests.detector_oracle import loop_access_patterns, search_contention
from tests.dfg_oracle import (LoopGraph, graph_as_dict, loop_segment_phases,
                              observe)

INDEX = "dio_trace"
SESSION = "s"

#: Times in any order, some missing: within a thread a gap may run
#: backwards (it counts as 0), and the earliest event need not be first.
stream_st = st.lists(st.fixed_dictionaries(
    {"syscall": st.sampled_from(("read", "write", "fsync", "close")),
     "tid": st.integers(1, 4)},
    optional={"time": st.integers(0, 50)}), max_size=70)
#: Rows per array step: small enough that streams cross step boundaries.
steps_st = st.sampled_from((1, 2, 3, 5, 8192))


def full(graph):
    return graph_as_dict(graph), list(graph.edges)


@settings(max_examples=300, deadline=None)
@given(stream=stream_st, batch=st.integers(1, 25), step=steps_st)
def test_array_dfg_is_the_per_event_loop(stream, batch, step):
    with mock.patch.object(dfg, "STEP_ROWS", step):
        for per_thread in (True, False):
            whole, loop = DirectlyFollowsGraph("g"), LoopGraph("g")
            observe(whole, DocBatch(stream), per_thread)
            observe(loop, DocBatch(stream), per_thread)
            assert full(whole) == full(loop)
            # Batch by batch: each continues the chains the last left.
            pieces = DirectlyFollowsGraph("g")
            for lo in range(0, len(stream), batch):
                observe(pieces, DocBatch(stream[lo:lo + batch]), per_thread)
            assert full(pieces) == full(loop)


def _looped(batch, name):
    graph = LoopGraph(name)
    observe(graph, batch, per_thread=True)
    return graph


@settings(max_examples=100, deadline=None)
@given(stream=stream_st, step=steps_st)
def test_session_dfg_is_the_loop_over_the_sorted_session(stream, step):
    store = DocumentStore()
    store.bulk(INDEX, [dict(event, session=SESSION) for event in stream])
    view = SessionEvents(store, INDEX, SESSION)
    with mock.patch.object(dfg, "STEP_ROWS", step):
        assert full(merged_dfg(store, INDEX, SESSION, view)) == full(
            _looped(view.batch, SESSION))


def phases_of(phases):
    return [(phase.as_dict(), graph_as_dict(phase.dfg), phase.drift)
            for phase in phases]


@settings(max_examples=300, deadline=None)
@given(stream=stream_st, window=st.integers(2, 9), step=steps_st,
       threshold=st.sampled_from((0.0, 0.25, 0.4, 0.5, 0.75, 1.0)))
def test_array_phases_are_the_absorbing_windows(stream, window, step,
                                                threshold):
    # Small windows over four nodes give drifts with small denominators:
    # many land exactly on 0.25, 0.5, 0.75 or 1.0.
    with mock.patch.object(dfg, "STEP_ROWS", step):
        got = segment_phases(DocBatch(stream), window, threshold, name="p")
    assert phases_of(got) == phases_of(
        loop_segment_phases(DocBatch(stream), window, threshold, name="p"))


def test_a_drift_exactly_at_the_threshold_does_not_split():
    # Windows [read read] and [read write]: TV distance exactly 0.5.
    stream = [{"syscall": name, "tid": 1, "time": t}
              for t, name in enumerate(("read", "read", "read", "write"))]
    for threshold, count in ((0.5, 1), (0.49, 2)):
        got = segment_phases(DocBatch(stream), 2, threshold)
        assert len(got) == count
        assert phases_of(got) == phases_of(
            loop_segment_phases(DocBatch(stream), 2, threshold))
    assert segment_phases(DocBatch(stream), 2, 0.49)[1].drift == 0.5
    assert segment_phases(DocBatch([]), 2) == []
    assert len(segment_phases(DocBatch(stream[:1]), 2)) == 1


#: Data syscalls on three files, offsets sequential, scattered or
#: missing; ``ret`` the bytes moved (or an error).
io_st = st.lists(st.fixed_dictionaries(
    {"syscall": st.sampled_from(("read", "pread64", "write", "pwrite64",
                                 "readv", "openat", "close")),
     "proc_name": st.sampled_from(("db_bench", "rocksdb:low0")),
     "tid": st.integers(1, 3),
     "ret": st.sampled_from((-2, 0, 1, 16, 64, 4096)),
     "time": st.integers(0, 60)},
    optional={"file_tag": st.sampled_from(("7 1 1", "7 2 1", "7 3 1")),
              "offset": st.sampled_from((0, 1, 16, 17, 64, 80, 4096)),
              "file_path": st.sampled_from(("/a.log", "/db/1.sst"))}),
    max_size=60)


def session_store(stream):
    store = DocumentStore()
    store.bulk(INDEX, [dict(event, session=SESSION) for event in stream])
    return store


@settings(max_examples=300, deadline=None)
@given(stream=io_st)
def test_lane_access_patterns_are_the_row_loop(stream):
    store = session_store(stream)
    assert classify_file_accesses(store, INDEX, SESSION) == \
        loop_access_patterns(SessionEvents(store, INDEX, SESSION))


#: A client, background threads with their TIDs, and a thread that
#: matches the wildcard only by prefix; times spread over a few windows,
#: some events without one.
contention_st = st.lists(st.fixed_dictionaries(
    {"syscall": st.just("write"),
     "proc_name": st.sampled_from(("db_bench", "rocksdb:low0",
                                   "rocksdb:low1", "rocksdb:lowest",
                                   "rocksdb:high0", "other")),
     "tid": st.one_of(st.integers(1, 7), st.none())},
    optional={"time": st.integers(0, 100)}), max_size=80)


@settings(max_examples=300, deadline=None)
@given(stream=contention_st, window=st.sampled_from((7, 10, 25, 200)),
       threads=st.integers(0, 3), timed=st.booleans())
def test_lane_contention_is_the_two_store_searches(stream, window, threads,
                                                   timed):
    if timed:           # every event timed: the bucket edges are bisected
        stream = [{"time": row * 3 % 101, **event}
                  for row, event in enumerate(stream)]
    store = session_store(stream)
    assert detect_contention(store, INDEX, window, threads,
                             session=SESSION) == search_contention(
        store, INDEX, window, threads, session=SESSION)


# ----------------------------------------------------------------------
# Storage: a term every row holds, and a segment's lane count

@settings(max_examples=100, deadline=None)
@given(size=st.integers(1, 40), odd=st.integers(0, 39),
       value=st.sampled_from(("s", 3, True)))
def test_a_term_every_row_holds_plans_as_every_row(size, odd, value):
    query = {"term": {"session": value}}
    store = DocumentStore()
    store.bulk(INDEX, [{"session": value, "n": row} for row in range(size)])
    index = store._index(INDEX)
    plan = index.plan(query)
    assert plan.exact and plan.rows == range(size)
    assert store.scan(INDEX, query) == naive_scan(index, query)
    # Every row but one holds it: the plan lists the others.
    docs = [{"session": value, "n": row} for row in range(size + 1)]
    docs[odd % len(docs)]["session"] = "other"
    store = DocumentStore()
    store.bulk(INDEX, docs)
    index = store._index(INDEX)
    rows = index.plan(query).rows
    assert type(rows) is not range
    assert list(rows) == [row for row in range(len(docs))
                          if row != odd % len(docs)]
    assert store.scan(INDEX, query) == naive_scan(index, query)


segment_docs_st = st.lists(st.fixed_dictionaries(
    {"syscall": st.sampled_from(("read", "write", "close"))},
    optional={"time": st.integers(0, 100),
              "ret": st.integers(-3, 64),
              "pid": st.sampled_from((1, 2, 1.0)),
              "args": st.sampled_from(({"path": "/a"}, {"fd": 3}, None)),
              "tags": st.sampled_from((["x"], ["x", "y"]))}),
    max_size=40)
segment_queries_st = st.sampled_from([
    None,
    {"match_all": {}},
    {"term": {"syscall": "read"}},
    {"term": {"pid": 1}},
    {"term": {"missing": 1}},
    {"terms": {"syscall": ["read", "close"]}},
    {"range": {"time": {"gte": 20, "lt": 70}}},
    {"range": {"ret": {"gt": 0}}},
    {"exists": {"field": "ret"}},
    {"exists": {"field": "missing"}},
    {"term": {"args.path": "/a"}},
    {"bool": {"must": [{"term": {"syscall": "write"}},
                       {"range": {"time": {"lte": 50}}}]}},
    {"bool": {"should": [{"term": {"syscall": "write"}},
                         {"term": {"pid": 2}}]}},
    {"bool": {"must_not": [{"term": {"syscall": "read"}}]}},
    # Declined by the planner (a list value): counted on documents.
    {"term": {"tags": "x"}},
    {"range": {"time": {"gte": None}}},
])


@settings(max_examples=200, deadline=None)
@given(docs=segment_docs_st, flush=st.integers(1, 12),
       query=segment_queries_st)
def test_a_lane_count_is_the_length_of_the_scan(tmp_path_factory, docs,
                                                flush, query):
    root = tmp_path_factory.mktemp("segments")
    engine = SegmentStorage(root, flush_events=flush)
    engine.import_batch(DocBatch([dict(doc) for doc in docs]), session="s")
    engine.seal()
    cold = SegmentStorage(root, create=False, read_only=True)
    assert cold.count(query) == len(cold.scan(query))
    cold.close()
    engine.close()


def test_latency_records_go_in_by_window_runs():
    # More records than a window keeps, in no order: sorted by start,
    # each window keeps its first samples, as one item at a time merged
    # by time did (``PerEventSpike``), and closes with the same
    # findings.  The last window spikes, with background I/O in it.
    from repro.analysis.detectors import (MAX_WINDOW_SAMPLES,
                                          SpikeBlameDetector)
    from tests.test_diagnosis_feed import (PerEventSpike, detected,
                                           emitted, per_event_replay)

    records = [((row * 7_919_993) % 450_000_000, row % 97 * 1_000)
               for row in range(3_000)]
    records = [(start, latency if start < 400_000_000 else latency * 10)
               for start, latency in records]
    events = [{"syscall": "pwrite64", "proc_name": "rocksdb:low0",
               "tid": 7, "ret": 4096, "time": n * 50_000_000}
              for n in range(9)]
    store = DocumentStore()
    store.bulk(INDEX, [dict(event, session=SESSION) for event in events])
    detector = SpikeBlameDetector()
    samples = detector._samples(SessionEvents(store, INDEX, SESSION,
                                              records))
    assert max(map(len, samples.values())) == MAX_WINDOW_SAMPLES
    oracle, = per_event_replay([(str(n), event) for n, event
                                in enumerate(events, 1)], records,
                               [PerEventSpike()])
    said = detected([detector], SessionEvents(store, INDEX, SESSION,
                                              records))
    assert len(said[0][1]) == 1
    assert said == emitted([oracle])
