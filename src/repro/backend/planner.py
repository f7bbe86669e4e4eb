"""The query planner: compile query trees into doc-id candidate sets.

``plan_query`` walks the same dict DSL :func:`repro.backend.query.compile_query`
accepts and extracts every constraint a secondary index can answer —
``term``/``terms`` (postings), ``range`` (sorted arrays), ``prefix``
(string partition), ``exists`` (presence sets) — from the top level or
from ``bool.must``/``bool.filter`` conjunctions, recursively.  The
result is a :class:`QueryPlan`:

- ``ids`` — an *upper bound* on the matching doc ids (``None`` means
  "no index constraint found; every document is a candidate");
- ``exact`` — when true, ``ids`` is not just an upper bound but exactly
  the match set, so the store can skip predicate evaluation entirely.

The planner only marks a plan exact for clause shapes it has fully
validated; malformed queries come back non-exact so the compile path
raises its usual :class:`~repro.backend.query.QueryError`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.backend.indexes import FieldIndex, is_indexable

#: Plan modes, in decreasing order of help from the indexes.
PLAN_EXACT = "exact"
PLAN_PRUNED = "pruned"
PLAN_FULLSCAN = "fullscan"

#: ``field -> FieldIndex`` resolver (builds the index on first use).
FieldLookup = Callable[[str], FieldIndex]


class QueryPlan:
    """Outcome of planning one query against one index.

    ``ids`` must be treated as read-only: exact single-clause plans
    hand back live index sets to avoid copying on the hot path.
    """

    __slots__ = ("ids", "exact")

    def __init__(self, ids: Optional[set[str]], exact: bool):
        self.ids = ids
        self.exact = exact

    @property
    def mode(self) -> str:
        """``exact`` | ``pruned`` | ``fullscan`` (for telemetry)."""
        if self.exact:
            return PLAN_EXACT
        return PLAN_FULLSCAN if self.ids is None else PLAN_PRUNED

    def __repr__(self) -> str:
        size = "all" if self.ids is None else len(self.ids)
        return f"<QueryPlan {self.mode} candidates={size}>"


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
    """Plan ``query`` using per-field indexes obtained via ``lookup``."""
    try:
        ids, exact = _plan(query, lookup)
    except TypeError:
        # Exotic value types (unhashable terms, odd minimum_should_match)
        # fall back to the predicate path, which raises canonically.
        ids, exact = _FULLSCAN
    return QueryPlan(ids, exact)


def _plan(query: Optional[dict],
          lookup: FieldLookup) -> tuple[Optional[set[str]], bool]:
    """Recursive planner core: ``(upper_bound_ids, exact)``.

    Invariant: when ids is a set, it is a superset of the documents the
    clause matches; ``exact`` promises equality.
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
        return lookup(field).term_ids((value,)), True

    if kind == "terms":
        entry = _entry(body)
        if entry is None:
            return _FULLSCAN
        field, values = entry
        if not isinstance(values, (list, tuple, set, frozenset)):
            return _FULLSCAN
        if not all(is_indexable(value) for value in values):
            return _FULLSCAN
        return lookup(field).term_ids(values), True

    if kind == "range":
        entry = _entry(body)
        if entry is None:
            return _FULLSCAN
        field, bounds = entry
        if not isinstance(bounds, dict) or not bounds:
            return _FULLSCAN
        ids = lookup(field).range_ids(bounds)
        if ids is None:
            return _FULLSCAN
        return ids, True

    if kind == "prefix":
        entry = _entry(body)
        if entry is None:
            return _FULLSCAN
        field, prefix = entry
        if isinstance(prefix, dict) and "value" in prefix:
            prefix = prefix["value"]
        ids = lookup(field).prefix_ids(prefix)
        if ids is None:
            return _FULLSCAN
        return ids, True

    if kind == "exists":
        if not isinstance(body, dict) or "field" not in body:
            return _FULLSCAN
        return lookup(body["field"]).present, True

    if kind == "bool":
        if not isinstance(body, dict) or set(body) - _BOOL_SECTIONS:
            return _FULLSCAN
        return _plan_bool(body, lookup)

    # Unknown kinds (incl. wildcard) stay on the predicate path.
    return _FULLSCAN


def _plan_bool(body: dict,
               lookup: FieldLookup) -> tuple[Optional[set[str]], bool]:
    musts = _clauses(body, "must") + _clauses(body, "filter")
    shoulds = _clauses(body, "should")
    must_nots = _clauses(body, "must_not")
    # Mirror compile_query's minimum_should_match defaulting exactly.
    min_should = body.get("minimum_should_match",
                          1 if shoulds and not musts and not must_nots else 0)
    if shoulds and min_should == 0 and not musts and not must_nots:
        min_should = 1

    sets: list[set[str]] = []
    exact = True
    for clause in musts:
        ids, sub_exact = _plan(clause, lookup)
        exact = exact and sub_exact
        if ids is not None:
            sets.append(ids)

    if must_nots:
        # Complements need the whole doc universe; cheaper to re-check.
        exact = False

    if shoulds:
        if isinstance(min_should, int) and min_should >= 1:
            # The union of per-should upper bounds over-approximates
            # "at least min_should shoulds match"; it is exact when
            # every branch is exact and a single match suffices.
            union: set[str] = set()
            bounded = True
            union_exact = True
            for clause in shoulds:
                ids, sub_exact = _plan(clause, lookup)
                if ids is None:
                    bounded = False
                    break
                union |= ids
                union_exact = union_exact and sub_exact
            if bounded:
                sets.append(union)
                if not (union_exact and min_should == 1):
                    exact = False
            else:
                exact = False
        elif isinstance(min_should, int) or not min_should:
            pass      # 0 / negative / falsy: shoulds never reject a doc
        else:
            exact = False   # exotic minimum_should_match: re-check docs

    if not sets:
        return None, exact
    best = min(sets, key=len)
    for ids in sets:
        if ids is not best:
            best = best & ids
    return best, exact


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
