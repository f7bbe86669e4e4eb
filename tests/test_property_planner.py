"""Property-based equivalence: planner-accelerated scans vs naive scans.

The planner's contract is behavioural invisibility — for any query the
DSL accepts, a planner-backed scan must return exactly the documents a
naive compile-and-filter pass returns, in the same (insertion) order.
These tests generate random documents and random query trees and hold
the planner (and the legacy heuristic) to that oracle.
"""

from hypothesis import given, settings, strategies as st

from repro.backend import DocumentStore
from repro.backend.naive import naive_scan

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

    @given(docs=st.lists(documents, max_size=25), query=queries,
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_equivalence_survives_updates_and_deletes(self, docs, query, data):
        store = _loaded(docs)
        index = store._index("events")
        if docs:
            victim = str(data.draw(st.integers(1, len(docs))))
            store.update_docs("events", [victim],
                              {"time": data.draw(st.integers(0, 500)),
                               "path": data.draw(st.sampled_from(_PATHS))})
            if data.draw(st.booleans()):
                index.delete(victim)
        assert store.scan("events", query) == naive_scan(index, query)
