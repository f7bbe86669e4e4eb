"""The query planner: compile query trees into ascending row numbers.

``plan_query`` walks the same dict DSL :func:`repro.backend.query.compile_query`
accepts and resolves every constraint the field's
:class:`~repro.backend.columns.Column` can answer — ``term``/``terms``
(dictionary code -> postings of rows), ``range`` (bisect on the numeric
lane), ``prefix`` and ``wildcard`` (the dictionary's string keys),
``exists`` (the presence bitmap) — from the top level or from ``bool.must``/
``bool.filter`` conjunctions, recursively.  Rows are the one address of
the read path: a row number is a document's position in insertion
order, so an ascending row sequence is already in scan order and is
what the aggregation kernels consume.  The result is a
:class:`QueryPlan`:

- ``rows`` — an *upper bound* on the matching rows, ascending: a
  ``range``, a sorted sequence, or ``None`` for "no constraint found;
  every live row is a candidate";
- ``exact`` — when true, ``rows`` is not just an upper bound but exactly
  the match set, so the store can skip predicate evaluation entirely.

The planner only marks a plan exact for clause shapes it has fully
validated; malformed queries come back non-exact so the compile path
raises its usual :class:`~repro.backend.query.QueryError`, and a column
that cannot answer for its rows (:meth:`Column.rows_in_range` returning
``None``) declines the clause to the predicate the way
``ColumnSet.supports`` declines an aggregation.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from typing import Any, Callable, Optional, Sequence

from repro.backend.columns import TERM_CLASSES, Column

#: Plan modes, in decreasing order of help from the columns.
PLAN_EXACT = "exact"
PLAN_PRUNED = "pruned"
PLAN_FULLSCAN = "fullscan"

#: ``field -> Column`` resolver (builds the column on first use).
FieldLookup = Callable[[str], Column]

#: Ascending row numbers: a ``range`` or a sorted sequence.
Rows = Sequence[int]


def is_indexable(value: Any) -> bool:
    """True for values a ``term``/``terms`` clause is planned on."""
    return isinstance(value, TERM_CLASSES)


class QueryPlan:
    """Outcome of planning one query against one index.

    ``rows`` must be treated as read-only, and copied before the index
    is written to: exact single-clause plans hand back live column
    storage to avoid copying on the hot path.
    """

    __slots__ = ("rows", "exact")

    def __init__(self, rows: Optional[Rows], exact: bool):
        self.rows = rows
        self.exact = exact

    @property
    def mode(self) -> str:
        """``exact`` | ``pruned`` | ``fullscan`` (for telemetry)."""
        if self.exact:
            return PLAN_EXACT
        return PLAN_FULLSCAN if self.rows is None else PLAN_PRUNED


def _intersect(left: Rows, right: Rows) -> Rows:
    """Ascending rows in both; a ``range`` side makes it a slice."""
    if type(right) is range:
        left, right = right, left
    if type(left) is range:
        if type(right) is range:
            start = max(left.start, right.start)
            return range(start, max(start, min(left.stop, right.stop)))
        return right[bisect_left(right, left.start):
                     bisect_left(right, left.stop)]
    if len(left) > len(right):
        left, right = right, left
    return sorted(set(left).intersection(right))


_FULLSCAN = (None, False)

_BOOL_SECTIONS = {"must", "should", "must_not", "filter",
                  "minimum_should_match"}


def _entry(body: Any) -> Optional[tuple[str, Any]]:
    """The single (field, value) entry of a clause body, or ``None``."""
    if isinstance(body, dict) and len(body) == 1:
        return next(iter(body.items()))
    return None


def _clauses(body: dict, section: str) -> list:
    clauses = body.get(section, [])
    if isinstance(clauses, dict):
        clauses = [clauses]
    return clauses


def plan_query(query: Optional[dict], lookup: FieldLookup) -> QueryPlan:
    """Plan ``query`` using per-field columns obtained via ``lookup``."""
    try:
        rows, exact = _plan(query, lookup)
    except TypeError:
        # Exotic value types (unhashable terms, odd minimum_should_match)
        # fall back to the predicate path, which raises canonically.
        rows, exact = _FULLSCAN
    return QueryPlan(rows, exact)


def _plan(query: Optional[dict],
          lookup: FieldLookup) -> tuple[Optional[Rows], bool]:
    """Recursive planner core: ``(upper_bound_rows, exact)``.

    Invariant: when rows is a sequence, it holds every row the clause
    matches; ``exact`` promises equality.
    """
    if query is None or query == {}:
        return None, True
    if not isinstance(query, dict) or len(query) != 1:
        return _FULLSCAN
    kind, body = next(iter(query.items()))

    if kind == "match_all":
        return None, True

    if kind == "term":
        entry = _entry(body)
        if entry is None:
            return _FULLSCAN
        field, value = entry
        if isinstance(value, dict) and "value" in value:
            value = value["value"]
        if not is_indexable(value):
            # e.g. ``None`` matches missing fields; postings can't see those.
            return _FULLSCAN
        return lookup(field).rows_equal((value,)), True

    if kind == "terms":
        entry = _entry(body)
        if entry is None:
            return _FULLSCAN
        field, values = entry
        if not isinstance(values, (list, tuple, set, frozenset)):
            return _FULLSCAN
        if not all(is_indexable(value) for value in values):
            return _FULLSCAN
        return lookup(field).rows_equal(values), True

    if kind == "range":
        entry = _entry(body)
        if entry is None:
            return _FULLSCAN
        field, bounds = entry
        if not isinstance(bounds, dict) or not bounds:
            return _FULLSCAN
        rows = lookup(field).rows_in_range(bounds)
        if rows is None:
            return _FULLSCAN
        return rows, True

    if kind in ("prefix", "wildcard"):
        entry = _entry(body)
        if entry is None:
            return _FULLSCAN
        field, pattern = entry
        if isinstance(pattern, dict) and "value" in pattern:
            pattern = pattern["value"]
        if not isinstance(pattern, str):
            return _FULLSCAN
        column = lookup(field)
        if kind == "prefix":
            return column.rows_with_prefix(pattern), True
        return column.rows_matching(pattern), True

    if kind == "exists":
        if not isinstance(body, dict) or "field" not in body:
            return _FULLSCAN
        return lookup(body["field"]).rows_present(), True

    if kind == "bool":
        if not isinstance(body, dict) or set(body) - _BOOL_SECTIONS:
            return _FULLSCAN
        return _plan_bool(body, lookup)

    # Unknown kinds stay on the predicate path.
    return _FULLSCAN


def _plan_bool(body: dict,
               lookup: FieldLookup) -> tuple[Optional[Rows], bool]:
    musts = _clauses(body, "must") + _clauses(body, "filter")
    shoulds = _clauses(body, "should")
    must_nots = _clauses(body, "must_not")
    # Mirror compile_query's minimum_should_match defaulting exactly.
    min_should = body.get("minimum_should_match",
                          1 if shoulds and not musts and not must_nots else 0)
    if shoulds and min_should == 0 and not musts and not must_nots:
        min_should = 1

    bounds: list[Rows] = []
    exact = True
    for clause in musts:
        rows, sub_exact = _plan(clause, lookup)
        exact = exact and sub_exact
        if rows is not None:
            bounds.append(rows)

    if must_nots:
        # Complements need the whole doc universe; cheaper to re-check.
        exact = False

    if shoulds:
        if isinstance(min_should, int) and min_should >= 1:
            # The union of per-should upper bounds over-approximates
            # "at least min_should shoulds match"; it is exact when
            # every branch is exact and a single match suffices.
            union: set[int] = set()
            bounded = True
            union_exact = True
            for clause in shoulds:
                rows, sub_exact = _plan(clause, lookup)
                if rows is None:
                    bounded = False
                    break
                union.update(rows)
                union_exact = union_exact and sub_exact
            if bounded:
                bounds.append(sorted(union))
                if not (union_exact and min_should == 1):
                    exact = False
            else:
                exact = False
        elif isinstance(min_should, int) or not min_should:
            pass      # 0 / negative / falsy: shoulds never reject a doc
        else:
            exact = False   # exotic minimum_should_match: re-check docs

    if not bounds:
        return None, exact
    return reduce(_intersect, sorted(bounds, key=len)), exact


def prune_constraints(query: Optional[dict]) -> list[tuple[str, str, Any]]:
    """Conjunctive per-field constraints usable for coarse pruning.

    Walks the same clause shapes as :func:`plan_query` but collects
    only what a *summary* structure (e.g. a segment zone map) can act
    on: ``term``/``terms``/``range`` clauses found at the top level or
    inside ``bool.must``/``bool.filter`` conjunctions.  Every returned
    triple ``(field, kind, payload)`` — kind ``"eq"`` (one value),
    ``"in"`` (a value list) or ``"range"`` (a bounds dict) — is a
    *necessary* condition: a row can only match the query if it
    satisfies all of them, so a summary proving any one of them
    unsatisfiable proves the whole unit has no matches.  Clauses the
    walker does not understand contribute nothing (never a wrong
    constraint).
    """
    out: list[tuple[str, str, Any]] = []
    _collect_constraints(query, out)
    return out


def _collect_constraints(query: Any, out: list) -> None:
    if not isinstance(query, dict) or len(query) != 1:
        return
    kind, body = next(iter(query.items()))
    if kind == "term":
        entry = _entry(body)
        if entry is None:
            return
        field, value = entry
        if isinstance(value, dict) and "value" in value:
            value = value["value"]
        if is_indexable(value):
            out.append((field, "eq", value))
    elif kind == "terms":
        entry = _entry(body)
        if entry is None:
            return
        field, values = entry
        if (isinstance(values, (list, tuple))
                and values
                and all(is_indexable(value) for value in values)):
            out.append((field, "in", list(values)))
    elif kind == "range":
        entry = _entry(body)
        if entry is None:
            return
        field, bounds = entry
        if isinstance(bounds, dict) and bounds:
            out.append((field, "range", bounds))
    elif kind == "bool":
        if not isinstance(body, dict):
            return
        for clause in _clauses(body, "must") + _clauses(body, "filter"):
            _collect_constraints(clause, out)
