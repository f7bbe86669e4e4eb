"""Greedy scenario minimisation for failing DST seeds.

When a seed fails, replaying the raw generated scenario is exact but
noisy — hundreds of ops, fault windows and crash schedules, most of
them irrelevant to the bug.  ``shrink`` drives a failing scenario to a
local minimum while preserving the failure, one axis of the registry
(:data:`repro.dst.scenario.AXES`) at a time, in row order: a
list-valued axis (processes and each process's ops, fault windows,
crash points) is ddmin'd — binary chunks, then single items — and a
scalar axis is tried at its row's simplest value.

Every candidate is re-run through the *same* full harness
(:func:`repro.dst.runner.run_scenario`), so a shrunk scenario fails
for the same observable reason class, and the output of ``dio dst
repro`` on the saved JSON is the minimal reproducer.  The search is
deterministic (fixed pass order, no randomness) and bounded by
``max_runs`` — shrinking is best-effort, never the long pole.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from repro.dst.runner import run_scenario
from repro.dst.scenario import AXES, Axis, Scenario


@dataclasses.dataclass
class ShrinkResult:
    """Outcome of one shrink campaign."""

    scenario: Scenario
    original_ops: int
    final_ops: int
    runs_used: int
    still_failing: bool


def _default_fails(scenario: Scenario) -> bool:
    return not run_scenario(scenario, check_determinism=False).ok


class _Search:
    """The failure predicate under a budget of harness runs."""

    def __init__(self, fails: Callable[[Scenario], bool],
                 max_runs: int) -> None:
        self.fails = fails
        self.remaining = max_runs

    def reproduces(self, candidate: Scenario) -> bool:
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        try:
            return self.fails(candidate)
        except Exception:
            # A candidate that crashes the harness still reproduces a
            # bug, but not necessarily *the* bug; treat it as not
            # preserving the failure so shrinking stays on the trail.
            return False


def _ddmin(scenario: Scenario, items: list,
           rebuild: Callable[[Scenario, list], Scenario],
           search: _Search) -> Scenario:
    """ddmin over one list; ``rebuild(scenario, items)`` is ``scenario``
    holding ``items`` in the list's place."""
    chunk = max(1, len(items) // 2)
    while items:
        i = 0
        while i < len(items):
            kept = items[:i] + items[i + chunk:]
            candidate = rebuild(scenario, kept)
            if search.reproduces(candidate):
                items, scenario = kept, candidate
            else:
                i += chunk
        if chunk == 1:
            break
        chunk = max(1, chunk // 2)
    return scenario


def _shrink_axis(scenario: Scenario, axis: Axis,
                 search: _Search) -> Scenario:
    """One axis toward its simplest value: a scalar is tried there, a
    list is ddmin'd, and so is every list nested one level inside its
    items (a process's ops)."""
    name = axis.field
    value = getattr(scenario, name)
    if not isinstance(value, list):
        candidate = dataclasses.replace(scenario, **{name: axis.simplest})
        if value != axis.simplest and search.reproduces(candidate):
            return candidate
        return scenario
    scenario = _ddmin(scenario, list(value),
                      lambda base, items: dataclasses.replace(
                          base, **{name: items}),
                      search)
    for at, item in enumerate(getattr(scenario, name)):
        nested = item.items() if isinstance(item, dict) else ()
        for key in [k for k, v in nested if isinstance(v, list)]:
            def rebuild(base, inner, at=at, key=key):
                items = list(getattr(base, name))
                items[at] = dict(items[at], **{key: inner})
                return dataclasses.replace(base, **{name: items})
            scenario = _ddmin(scenario, list(item[key]), rebuild, search)
    return scenario


def shrink(scenario: Scenario,
           fails: Optional[Callable[[Scenario], bool]] = None,
           max_runs: int = 64) -> ShrinkResult:
    """Minimise ``scenario`` while ``fails`` stays true.

    ``fails`` defaults to "the full harness reports any failure".
    Every kept candidate was verified failing when accepted, so the
    result still reproduces by construction.
    """
    search = _Search(fails or _default_fails, max_runs)
    original_ops = scenario.total_ops
    still_failing = search.reproduces(scenario)

    # Fixpoint: repeat the axis passes until nothing shrinks further.
    while still_failing:
        before = scenario
        for axis in AXES:
            scenario = _shrink_axis(scenario, axis, search)
        if scenario == before or search.remaining <= 0:
            break

    return ShrinkResult(scenario=scenario, original_ops=original_ops,
                        final_ops=scenario.total_ops,
                        runs_used=max_runs - search.remaining,
                        still_failing=still_failing)
