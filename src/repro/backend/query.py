"""The query DSL: Elasticsearch-shaped dict queries.

Supported clauses::

    {"match_all": {}}
    {"term":     {"field": value}}
    {"terms":    {"field": [v1, v2, ...]}}
    {"range":    {"field": {"gte": x, "lt": y, ...}}}
    {"exists":   {"field": "name"}}
    {"wildcard": {"field": "fluent*"}}
    {"prefix":   {"field": "/tmp/"}}
    {"bool":     {"must": [...], "should": [...],
                  "must_not": [...], "filter": [...]}}

``compile_query`` turns a query dict into a predicate over document
sources; dotted field names traverse nested objects.
"""

from __future__ import annotations

import fnmatch
from operator import ge, gt, le, lt
from typing import Any, Callable, Iterable, Optional

Predicate = Callable[[dict], bool]


class QueryError(Exception):
    """Malformed query."""


def get_field(source: dict, field: str) -> Any:
    """Fetch a possibly dotted field from a document source."""
    if field in source:
        return source[field]
    return walk_field(source, field.split("."))


def walk_field(current: Any, parts: Iterable[str]) -> Any:
    """The dotted walk of :func:`get_field` below ``current``: one
    nested object per part, ``None`` as soon as one is missing."""
    for part in parts:
        if not isinstance(current, dict) or part not in current:
            return None
        current = current[part]
    return current


def _single_entry(clause: dict, kind: str) -> tuple[str, Any]:
    if not isinstance(clause, dict) or len(clause) != 1:
        raise QueryError(f"{kind} clause must have exactly one field: {clause!r}")
    return next(iter(clause.items()))


#: ``range`` operators: ``RANGE_OPS[op](value, bound)``.
RANGE_OPS = {"gte": ge, "gt": gt, "lte": le, "lt": lt}


def compile_query(query: Optional[dict]) -> Predicate:
    """Compile a query dict into a ``source -> bool`` predicate."""
    if query is None or query == {}:
        return lambda source: True
    if not isinstance(query, dict) or len(query) != 1:
        raise QueryError(f"query must be a single-key dict: {query!r}")
    kind, body = next(iter(query.items()))

    if kind == "match_all":
        return lambda source: True

    if kind == "term":
        field, value = _single_entry(body, "term")
        # ES wraps values as {"value": v} sometimes; accept both.
        if isinstance(value, dict) and "value" in value:
            value = value["value"]
        return lambda source: get_field(source, field) == value

    if kind == "terms":
        field, values = _single_entry(body, "terms")
        if not isinstance(values, (list, tuple, set, frozenset)):
            raise QueryError(f"terms values must be a list: {values!r}")
        # NaN equals nothing, itself included: left in the set it
        # would match by object identity.
        allowed = {value for value in values if value == value}

        def terms_predicate(source: dict) -> bool:
            try:
                return get_field(source, field) in allowed
            except TypeError:             # an unhashable document value
                return False

        return terms_predicate

    if kind == "range":
        field, bounds = _single_entry(body, "range")
        if not isinstance(bounds, dict) or not bounds:
            raise QueryError(f"range bounds must be a non-empty dict: {bounds!r}")
        checks = []
        for op, bound in bounds.items():
            if op not in RANGE_OPS:
                raise QueryError(f"unknown range operator {op!r}")
            checks.append((RANGE_OPS[op], bound))

        def range_predicate(source: dict) -> bool:
            value = get_field(source, field)
            if value is None:
                return False
            try:
                return all(op(value, bound) for op, bound in checks)
            except TypeError:
                return False

        return range_predicate

    if kind == "exists":
        if not isinstance(body, dict) or "field" not in body:
            raise QueryError(f"exists clause needs a field: {body!r}")
        field = body["field"]
        return lambda source: get_field(source, field) is not None

    if kind == "wildcard":
        field, pattern = _single_entry(body, "wildcard")
        if isinstance(pattern, dict) and "value" in pattern:
            pattern = pattern["value"]

        def wildcard_predicate(source: dict) -> bool:
            value = get_field(source, field)
            return isinstance(value, str) and fnmatch.fnmatchcase(value, pattern)

        return wildcard_predicate

    if kind == "prefix":
        field, prefix = _single_entry(body, "prefix")
        if isinstance(prefix, dict) and "value" in prefix:
            prefix = prefix["value"]

        def prefix_predicate(source: dict) -> bool:
            value = get_field(source, field)
            return isinstance(value, str) and value.startswith(prefix)

        return prefix_predicate

    if kind == "bool":
        if not isinstance(body, dict):
            raise QueryError(f"bool body must be a dict: {body!r}")
        unknown = set(body) - {"must", "should", "must_not", "filter",
                               "minimum_should_match"}
        if unknown:
            raise QueryError(f"unknown bool sections {sorted(unknown)}")

        def compile_section(name: str) -> list[Predicate]:
            clauses = body.get(name, [])
            if isinstance(clauses, dict):
                clauses = [clauses]
            return [compile_query(clause) for clause in clauses]

        musts = compile_section("must") + compile_section("filter")
        shoulds = compile_section("should")
        must_nots = compile_section("must_not")
        min_should = body.get("minimum_should_match",
                              1 if shoulds and not musts and not must_nots else 0)
        if shoulds and min_should == 0 and not musts and not must_nots:
            min_should = 1

        def bool_predicate(source: dict) -> bool:
            if any(not p(source) for p in musts):
                return False
            if any(p(source) for p in must_nots):
                return False
            if shoulds and min_should:
                matched = sum(1 for p in shoulds if p(source))
                if matched < min_should:
                    return False
            return True

        return bool_predicate

    raise QueryError(f"unknown query kind {kind!r}")
