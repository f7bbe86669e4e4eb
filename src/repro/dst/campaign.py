"""Seed campaigns: run N seeds and count outcomes.

A *campaign* is the unit the CLI and CI run: generate scenarios for a
seed range, run each through the full harness, optionally shrink the
failures, and report.  :class:`CampaignStats` holds the lifetime
counters :meth:`CampaignResult.summary` reports.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Optional

from repro.dst.runner import RunResult, run_scenario
from repro.dst.scenario import Scenario, generate
from repro.dst.shrink import shrink


class CampaignStats:
    """Lifetime counters for DST campaigns."""

    def __init__(self) -> None:
        self.seeds_run = 0
        self.seeds_failed = 0
        self.scenario_events_produced = 0
        self.scenario_events_stored = 0
        self.consumer_crashes_injected = 0
        self.store_crashes_injected = 0
        self.faults_injected = 0

    def record(self, result: RunResult) -> None:
        self.seeds_run += 1
        if not result.ok:
            self.seeds_failed += 1
        self.scenario_events_produced += result.events_produced
        self.scenario_events_stored += result.events_stored
        self.consumer_crashes_injected += result.consumer_crashes
        self.store_crashes_injected += result.store_crashes
        self.faults_injected += result.faults_injected


@dataclasses.dataclass
class CampaignResult:
    """Outcome of one campaign."""

    results: list
    stats: CampaignStats
    shrunk: dict

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def failed_seeds(self) -> list[int]:
        return [result.seed for result in self.results if not result.ok]

    def summary(self) -> dict:
        return {
            "seeds_run": self.stats.seeds_run,
            "seeds_failed": self.stats.seeds_failed,
            "failed_seeds": self.failed_seeds,
            "events_produced": self.stats.scenario_events_produced,
            "events_stored": self.stats.scenario_events_stored,
            "consumer_crashes": self.stats.consumer_crashes_injected,
            "store_crashes": self.stats.store_crashes_injected,
            "faults_injected": self.stats.faults_injected,
        }


def run_seeds(seeds: Iterable[int], *, shrink_failures: bool = False,
              shrink_budget: int = 48,
              stats: Optional[CampaignStats] = None,
              progress: Optional[Callable[[RunResult], None]] = None,
              stop_after: Optional[int] = None) -> CampaignResult:
    """Run a campaign over ``seeds``.

    ``shrink_failures`` minimises each failing scenario (bounded by
    ``shrink_budget`` extra harness runs per failure); ``stop_after``
    aborts the campaign once that many seeds have failed.
    """
    stats = stats or CampaignStats()
    results: list[RunResult] = []
    shrunk: dict[int, Scenario] = {}
    failed = 0
    for seed in seeds:
        result = run_scenario(generate(seed))
        stats.record(result)
        results.append(result)
        if progress is not None:
            progress(result)
        if not result.ok:
            failed += 1
            if shrink_failures:
                outcome = shrink(result.scenario, max_runs=shrink_budget)
                if outcome.still_failing:
                    shrunk[seed] = outcome.scenario
            if stop_after is not None and failed >= stop_after:
                break
    return CampaignResult(results=results, stats=stats, shrunk=shrunk)
