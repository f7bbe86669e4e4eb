"""Property-based equivalence: planner-accelerated scans vs naive scans.

The planner's contract is behavioural invisibility — for any query the
DSL accepts, a planner-backed scan must return exactly the documents a
naive compile-and-filter pass returns, in the same (insertion) order.
These tests generate random documents and random query trees and hold
the planner to that oracle — and, clause by clause, to the retired
per-field index (``tests/field_index.py``), which answered in doc ids
where the planner now answers in rows.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import DocumentStore, create_store
from repro.backend.lanes import DocBatch, JoinedBatch
from repro.backend.naive import naive_scan
from repro.backend.query import compile_query, get_field
from repro.tracer import RecordBatch
from tests.field_index import FieldIndex

# --- document strategies ----------------------------------------------------

_PATHS = ["/tmp/a", "/tmp/b", "/tmp/db/wal", "/var/log/x", "/va", ""]
_SYSCALLS = ["read", "write", "openat", "close"]

documents = st.fixed_dictionaries(
    {},
    optional={
        "syscall": st.sampled_from(_SYSCALLS),
        "ret": st.integers(min_value=-40, max_value=40),
        "time": st.integers(min_value=0, max_value=500),
        "path": st.sampled_from(_PATHS),
        "flag": st.booleans(),
        "odd": st.one_of(st.none(), st.booleans(),
                         st.integers(min_value=0, max_value=3),
                         st.sampled_from(["read", "/tmp/a"])),
    },
)

# --- query-tree strategies --------------------------------------------------

_FIELDS = ["syscall", "ret", "time", "path", "flag", "odd", "missing"]
_VALUES = st.one_of(
    st.sampled_from(_SYSCALLS + _PATHS),
    st.integers(min_value=-45, max_value=45),
    st.booleans(),
)
_BOUNDS = st.one_of(st.integers(min_value=-45, max_value=510),
                    st.sampled_from(_PATHS))

term_queries = st.builds(lambda f, v: {"term": {f: v}},
                         st.sampled_from(_FIELDS), _VALUES)
terms_queries = st.builds(lambda f, vs: {"terms": {f: vs}},
                          st.sampled_from(_FIELDS),
                          st.lists(_VALUES, max_size=3))
range_queries = st.builds(
    lambda f, ops: {"range": {f: ops}},
    st.sampled_from(_FIELDS),
    st.dictionaries(st.sampled_from(["gte", "gt", "lte", "lt"]), _BOUNDS,
                    min_size=1, max_size=2))
prefix_queries = st.builds(lambda f, p: {"prefix": {f: p}},
                           st.sampled_from(_FIELDS),
                           st.sampled_from(["/tmp", "/tmp/", "/va", "", "r"]))
exists_queries = st.builds(lambda f: {"exists": {"field": f}},
                           st.sampled_from(_FIELDS))
wildcard_queries = st.builds(lambda f, p: {"wildcard": {f: p}},
                             st.sampled_from(_FIELDS),
                             st.sampled_from(["/tmp/*", "*a*", "read"]))
leaf_queries = st.one_of(term_queries, terms_queries, range_queries,
                         prefix_queries, exists_queries, wildcard_queries,
                         st.just({"match_all": {}}))


def _bool_of(children):
    sections = st.lists(children, max_size=3)
    return st.builds(
        lambda must, should, must_not, filter_, msm: {"bool": {
            key: value for key, value in [
                ("must", must), ("should", should),
                ("must_not", must_not), ("filter", filter_),
                ("minimum_should_match", msm)]
            if value not in ([], None)}},
        sections, sections, sections, sections,
        st.one_of(st.none(), st.integers(min_value=0, max_value=3)))


queries = st.recursive(leaf_queries, _bool_of, max_leaves=8)


def _loaded(docs):
    store = DocumentStore()
    store.ensure_index("events", indexed_fields=("syscall", "time", "path"))
    store.bulk("events", [dict(doc) for doc in docs])
    return store


class TestPlannerEquivalence:
    @given(docs=st.lists(documents, max_size=30), query=queries)
    @settings(max_examples=250, deadline=None)
    def test_planner_scan_matches_naive_scan(self, docs, query):
        store = _loaded(docs)
        oracle = naive_scan(store._index("events"), query)
        assert store.scan("events", query) == oracle
        assert store.count("events", query) == len(oracle)


# --- rows vs both oracles, on the values that tempt a shortcut --------------
#
# ``1 == 1.0 == True`` and ``0 == -0.0 == False`` sit in different class
# tables of a column and must keep matching each other; NaN equals
# nothing (the shared object included); a tuple is a value, a list or a
# dict is unhashable and matches no term; ``None`` is a missing field.

NAN = float("nan")
_EXOTIC = [1, 1.0, True, 0, 0.0, -0.0, False, 2, 2.5, "1", "a", "ab",
           (1, 2), (1.0, 2), ("a",), [1], [1, 2], {"k": 1}, None, NAN]
exotic_values = st.one_of(st.sampled_from(_EXOTIC),
                          st.builds(float, st.just("nan")))
_EXOTIC_FIELDS = ["a", "b", "n.x", "file_path"]


def _exotic_doc(a, b, x):
    doc = {}
    if a is not None:
        doc["a"] = a
    if b is not None:
        doc["b"] = b
    if x is not None:
        doc["n"] = {"x": x}
    return doc


exotic_docs = st.builds(_exotic_doc, exotic_values, exotic_values,
                        exotic_values)
_plannable = st.sampled_from([v for v in _EXOTIC
                              if not isinstance(v, (list, dict))
                              and v is not None])
_exotic_bounds = st.sampled_from([0, 1, 1.5, 2, True, -0.0, "a", "ab", "b",
                                  NAN, (1,), [1]])
exotic_leaves = st.one_of(
    st.builds(lambda f, v: {"term": {f: v}},
              st.sampled_from(_EXOTIC_FIELDS), _plannable),
    st.builds(lambda f, vs: {"terms": {f: vs}},
              st.sampled_from(_EXOTIC_FIELDS),
              st.lists(_plannable, max_size=3)),
    st.builds(lambda f, ops: {"range": {f: ops}},
              st.sampled_from(_EXOTIC_FIELDS),
              st.dictionaries(st.sampled_from(["gte", "gt", "lte", "lt"]),
                              _exotic_bounds, min_size=1, max_size=2)),
    st.builds(lambda f, p: {"prefix": {f: p}},
              st.sampled_from(_EXOTIC_FIELDS), st.sampled_from(["", "a"])),
    st.builds(lambda f: {"exists": {"field": f}},
              st.sampled_from(_EXOTIC_FIELDS)))
exotic_queries = st.recursive(exotic_leaves, _bool_of, max_leaves=5)


def _field_index_ids(index, clause):
    """What the retired :class:`FieldIndex` answers for a leaf clause:
    a set of doc ids, or ``None`` where it declined too."""
    kind, body = next(iter(clause.items()))
    field = body["field"] if kind == "exists" else next(iter(body))
    oracle = FieldIndex(field)
    for doc_id, source in index.documents():
        oracle.update(doc_id, get_field(source, field))
    if kind == "exists":
        return oracle.present
    operand = body[field]
    if kind == "term":
        operand, kind = [operand], "terms"
    if kind == "terms":
        # The one place the oracle is corrected: it found a NaN by
        # object identity, and NaN equals nothing.
        return oracle.term_ids([v for v in operand if v == v])
    if kind == "range":
        return oracle.range_ids(operand)
    return oracle.prefix_ids(operand)


def _check(store, queries_):
    index = store._index("events")
    doc_ids = index.columns.doc_ids
    for query in queries_:
        matches = store.scan("events", query)
        assert matches == naive_scan(index, query), query
        assert store.count("events", query) == len(matches), query
        rows, total = index.matching_rows(query)
        assert list(rows) == sorted(rows) and total == len(matches)
        assert [doc_ids[row] for row in rows] == [i for i, _ in matches]
        if "bool" in query:
            continue
        plan = index.plan(query)
        expected = _field_index_ids(index, query)
        if expected is None:
            assert not plan.exact, query
        else:
            assert {doc_id for doc_id, _ in matches} == expected, query
            if plan.exact and plan.rows is not None:
                assert list(plan.rows) == sorted(plan.rows)
                assert {doc_ids[row] for row in plan.rows} == expected


class TestRowsAgainstBothOracles:
    @given(docs=st.lists(exotic_docs, min_size=1, max_size=12),
           more=st.lists(exotic_docs, min_size=1, max_size=6),
           queries_=st.lists(exotic_queries, min_size=1, max_size=6),
           parked=st.booleans(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_plans_match_naive_scan_and_field_index(self, docs, more,
                                                    queries_, parked, data):
        store = DocumentStore()
        docs = [dict(doc) for doc in docs]
        for doc in docs:
            tag = data.draw(st.sampled_from(["t0", "t1", None]))
            if tag is not None:
                doc["file_tag"] = tag
        if parked:
            store.bulk_columnar("events", JoinedBatch([DocBatch(docs)]))
        else:
            store.bulk("events", docs)
        tables = st.dictionaries(st.sampled_from(["t0", "t1"]),
                                 exotic_values, max_size=2)
        # A path table before the first query: the column is built
        # with it applied.
        store.set_paths("events", data.draw(tables))
        _check(store, queries_)
        # Now every touched column (and its postings) exists: name the
        # rows again and append a batch.
        store.set_paths("events", data.draw(tables))
        _check(store, queries_)
        store.bulk_columnar("events",
                            DocBatch([dict(doc) for doc in more]))
        _check(store, queries_)

    def test_a_nan_term_matches_nothing_on_either_path(self):
        store = DocumentStore()
        store.bulk("events", [{"a": NAN, "b": 1}, {"a": 5, "b": 1}])
        index = store._index("events")
        for clause in ({"term": {"a": NAN}}, {"terms": {"a": [NAN]}}):
            assert index.plan(clause).exact
            assert store.count("events", clause) == 0
            rechecked = {"bool": {"must": [clause],
                                  "must_not": [{"term": {"b": 7}}]}}
            assert not index.plan(rechecked).exact
            assert store.count("events", rechecked) == 0
            fullscan = {"bool": {"should": [clause,
                                            {"term": {"b": None}}]}}
            assert index.plan(fullscan).mode == "fullscan"
            assert store.count("events", fullscan) == 0
        assert store.count("events", {"terms": {"a": [NAN, 5]}}) == 1

    def test_a_batch_after_postings_exist_extends_them_in_place(self):
        def batch(start):
            return RecordBatch.decode([
                {"syscall": ("read", "write")[i % 2], "args": {}, "ret": 0,
                 "pid": 7, "tid": 1 + i % 3, "comm": "app",
                 "enter_ns": 10 * i, "exit_ns": 10 * i + 5}
                for i in range(start, start + 8)], session="s")

        class Counting(list):
            appends = 0

            def append(self, row):
                Counting.appends += 1
                super().append(row)

        store = DocumentStore()
        store.bulk_columnar("events", batch(0))
        index = store._index("events")
        assert store.count("events", {"term": {"syscall": "read"}}) == 4
        assert store.count("events", {"term": {"tid": 2}}) == 3
        syscall = index.columns._columns["syscall"]
        tid = index.columns._columns["tid"]
        earlier = syscall.rows_equal(["read"])      # the postings' own list
        assert list(earlier) == [0, 2, 4, 6]
        for column in (syscall, tid):
            column._postings[:] = map(Counting, column._postings)
        store.bulk_columnar("events", batch(8))
        # One append per new row of each built column (8 syscalls, 8
        # tids), onto the lists that were there: nothing indexed
        # earlier is rebuilt.
        assert Counting.appends == 16
        assert {type(rows) for column in (syscall, tid)
                for rows in column._postings} == {Counting}
        assert list(syscall.rows_equal(["read"])) == [0, 2, 4, 6,
                                                      8, 10, 12, 14]
        assert list(tid.rows_equal([2])) == [1, 4, 7, 10, 13]
        assert store.count("events", {"term": {"syscall": "read"}}) == 8
        assert index.pending_docs == 16


# --- wildcard over the dictionary -------------------------------------------
#
# A string pattern is answered from the column's string keys
# (``Column.rows_matching``) and the plan is exact; what it matches must
# be what ``fnmatchcase`` over every document's value matches — on a
# plain store, on parked lanes and through a 3-shard router.

_WILD_VALUES = ["abc", "abd", "a", "", "x", "xa", "a[b]c", "a?c", "*",
                "[!x]", "ABC", 3, 0, [1, "a"], ["abc"], None]
_WILD_PATTERNS = ["*", "?", "??", "a*", "*c", "a?c", "[a-c]*", "[!x]*",
                  "*[!a-c]", "a[[]b]c", "a[?]c", "[*]", "[]]", "[!]]*",
                  "[", "x*a", ""]
_WILD_FIELDS = ["a", "n.x", "missing"]


def _wild_doc(a, x, pid):
    doc = {"pid": pid}
    if a != "absent":
        doc["a"] = a
    if x != "absent":
        doc["n"] = {"x": x}
    return doc


wild_values = st.sampled_from(_WILD_VALUES + ["absent"])
wild_docs = st.builds(_wild_doc, wild_values, wild_values,
                      st.integers(0, 6))
wild_leaves = st.builds(
    lambda f, p, wrapped: {"wildcard": {f: {"value": p} if wrapped else p}},
    st.sampled_from(_WILD_FIELDS), st.sampled_from(_WILD_PATTERNS),
    st.booleans())
wild_queries = st.recursive(wild_leaves, _bool_of, max_leaves=4)


class TestWildcardOverTheDictionary:
    @given(docs=st.lists(wild_docs, max_size=20), leaf=wild_leaves,
           query=wild_queries, parked=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_wildcard_matches_the_predicate(self, docs, leaf, query, parked):
        store = DocumentStore()
        if parked:
            store.bulk_columnar("events", DocBatch([dict(d) for d in docs]))
        else:
            store.bulk("events", [dict(d) for d in docs])
        router = create_store(shard_count=3, shard_key="pid")
        router.bulk("events", [dict(d) for d in docs])
        index = store._index("events")
        assert index.plan(leaf).exact
        for clause in (leaf, query):
            wanted = [doc for doc in docs if compile_query(clause)(doc)]
            matches = store.scan("events", clause)
            assert matches == naive_scan(index, clause), clause
            assert [source for _, source in matches] == wanted, clause
            assert store.count("events", clause) == len(wanted)
            assert [source for _, source
                    in router.scan("events", clause)] == wanted, clause
            assert router.count("events", clause) == len(wanted)
        assert index.hydrated_docs_total <= 2 * len(docs)

    def test_a_pattern_that_is_not_a_string_keeps_the_predicate(self):
        store = DocumentStore()
        store.bulk("events", [{"a": "abc"}])
        for pattern in (7, None, ["a*"], {"glob": "a*"}):
            clause = {"wildcard": {"a": pattern}}
            assert store._index("events").plan(clause).mode == "fullscan"
        # and the predicate judges as before: fnmatchcase rejects it
        with pytest.raises(TypeError):
            store.count("events", {"wildcard": {"a": 7}})
