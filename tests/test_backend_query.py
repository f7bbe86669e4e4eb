"""Unit tests for the query DSL."""

import pytest

from repro.backend import DocumentStore, create_store
from repro.backend.query import QueryError, compile_query, get_field

DOC = {
    "syscall": "write",
    "ret": 26,
    "proc_name": "fluent-bit",
    "args": {"path": "/tmp/app.log", "fd": 3},
    "time": 1000,
}


def matches(query, doc=DOC):
    return compile_query(query)(doc)


class TestGetField:
    def test_flat_field(self):
        assert get_field(DOC, "syscall") == "write"

    def test_dotted_field(self):
        assert get_field(DOC, "args.path") == "/tmp/app.log"

    def test_missing_field_is_none(self):
        assert get_field(DOC, "nope") is None
        assert get_field(DOC, "args.nope") is None
        assert get_field(DOC, "syscall.sub") is None

    def test_literal_dotted_key_preferred(self):
        doc = {"a.b": 1, "a": {"b": 2}}
        assert get_field(doc, "a.b") == 1


class TestClauses:
    def test_match_all(self):
        assert matches({"match_all": {}})
        assert matches(None)
        assert matches({})

    def test_term(self):
        assert matches({"term": {"syscall": "write"}})
        assert not matches({"term": {"syscall": "read"}})
        assert matches({"term": {"args.fd": 3}})

    def test_term_with_value_wrapper(self):
        assert matches({"term": {"syscall": {"value": "write"}}})

    def test_terms(self):
        assert matches({"terms": {"syscall": ["read", "write"]}})
        assert not matches({"terms": {"syscall": ["open", "close"]}})

    def test_range(self):
        assert matches({"range": {"ret": {"gte": 26}}})
        assert matches({"range": {"ret": {"gt": 25, "lt": 27}}})
        assert not matches({"range": {"ret": {"lt": 26}}})
        assert not matches({"range": {"missing": {"gte": 0}}})

    def test_range_type_mismatch_is_false(self):
        assert not matches({"range": {"syscall": {"gte": 5}}})

    def test_exists(self):
        assert matches({"exists": {"field": "args.path"}})
        assert not matches({"exists": {"field": "file_path"}})

    def test_wildcard(self):
        assert matches({"wildcard": {"proc_name": "fluent*"}})
        assert matches({"wildcard": {"args.path": "/tmp/*.log"}})
        assert not matches({"wildcard": {"proc_name": "rocksdb*"}})

    def test_prefix(self):
        assert matches({"prefix": {"args.path": "/tmp/"}})
        assert not matches({"prefix": {"args.path": "/var/"}})


class TestBool:
    def test_must_all_required(self):
        query = {"bool": {"must": [
            {"term": {"syscall": "write"}},
            {"range": {"ret": {"gt": 0}}},
        ]}}
        assert matches(query)
        query["bool"]["must"].append({"term": {"proc_name": "app"}})
        assert not matches(query)

    def test_filter_behaves_like_must(self):
        assert matches({"bool": {"filter": [{"term": {"ret": 26}}]}})

    def test_must_not(self):
        assert matches({"bool": {"must_not": [{"term": {"syscall": "read"}}]}})
        assert not matches({"bool": {"must_not": [{"term": {"syscall": "write"}}]}})

    def test_pure_should_requires_one_match(self):
        assert matches({"bool": {"should": [
            {"term": {"syscall": "read"}},
            {"term": {"syscall": "write"}},
        ]}})
        assert not matches({"bool": {"should": [
            {"term": {"syscall": "read"}},
            {"term": {"syscall": "open"}},
        ]}})

    def test_minimum_should_match(self):
        query = {"bool": {
            "should": [
                {"term": {"syscall": "write"}},
                {"term": {"ret": 26}},
                {"term": {"proc_name": "nope"}},
            ],
            "minimum_should_match": 2,
        }}
        assert matches(query)
        query["bool"]["minimum_should_match"] = 3
        assert not matches(query)

    def test_single_clause_as_dict(self):
        assert matches({"bool": {"must": {"term": {"syscall": "write"}}}})

    def test_nested_bool(self):
        query = {"bool": {"must": [
            {"bool": {"should": [
                {"term": {"proc_name": "fluent-bit"}},
                {"term": {"proc_name": "app"}},
            ]}},
            {"term": {"syscall": "write"}},
        ]}}
        assert matches(query)


class TestErrors:
    def test_unknown_kind(self):
        with pytest.raises(QueryError):
            compile_query({"fuzzy": {"f": "v"}})

    def test_multi_key_query(self):
        with pytest.raises(QueryError):
            compile_query({"term": {"a": 1}, "exists": {"field": "b"}})

    def test_bad_terms_values(self):
        with pytest.raises(QueryError):
            compile_query({"terms": {"f": "not-a-list"}})

    def test_bad_range_operator(self):
        with pytest.raises(QueryError):
            compile_query({"range": {"f": {"above": 3}}})

    def test_unknown_bool_section(self):
        with pytest.raises(QueryError):
            compile_query({"bool": {"must_never": []}})


class TestTermsPredicate:
    """A ``terms`` clause evaluated as a predicate (its plan declined,
    or it sits under ``must_not``) answers as the exact plan does."""

    NOT_ONE = {"bool": {"must_not": [{"terms": {"a": [1]}}]}}

    @pytest.mark.parametrize("make", [
        DocumentStore, lambda: create_store(shard_count=2)],
        ids=["one-store", "2-shards"])
    def test_an_unhashable_document_value_is_no_match(self, make):
        # Used to raise ``TypeError: unhashable type: 'list'`` as soon
        # as one document held a list or a dict under the field.
        store = make()
        store.bulk("i", [{"a": 1}, {"a": [1]}, {"a": {"k": 1}}, {"b": 2}])
        assert store.count("i", {"terms": {"a": [1]}}) == 1   # exact plan
        assert store.count("i", self.NOT_ONE) == 3
        assert [source for _, source in store.scan("i", self.NOT_ONE)] == [
            {"a": [1]}, {"a": {"k": 1}}, {"b": 2}]
        assert not matches({"terms": {"a": [1, "x"]}}, {"a": [1]})
        assert matches({"terms": {"a": [1, "x"]}}, {"a": 1.0})

    def test_nan_is_not_matched_through_set_identity(self):
        nan = float("nan")
        assert not matches({"terms": {"a": [nan]}}, {"a": nan})
        assert not matches({"term": {"a": nan}}, {"a": nan})
        assert matches({"terms": {"a": [nan, 5]}}, {"a": 5})
