"""Seed corpus: minimised scenarios checked in as regression tests.

Every interesting failure the DST harness has ever caught gets its
shrunk scenario saved under ``tests/corpus/*.json`` and replayed on
every tier-1 CI run — the corpus is the harness's long-term memory.
Corpus files are ordinary :meth:`repro.dst.scenario.Scenario.save`
JSON with two extra bookkeeping keys (ignored by the loader via
``from_dict``'s unknown-key filtering):

* ``corpus_note`` — one line on what the scenario exercises;
* ``corpus_added`` — ISO date the entry landed.
"""

from __future__ import annotations

from pathlib import Path

from repro.dst.runner import RunResult, run_scenario
from repro.dst.scenario import Scenario

#: Default corpus location, relative to the repository root.
CORPUS_DIR = Path("tests") / "corpus"


def load_corpus(directory=CORPUS_DIR) -> list[tuple[Path, Scenario]]:
    """All corpus scenarios, sorted by filename for determinism."""
    directory = Path(directory)
    entries = []
    for path in sorted(directory.glob("*.json")):
        entries.append((path, Scenario.load(path)))
    return entries


def run_corpus(directory=CORPUS_DIR) -> list[tuple[Path, RunResult]]:
    """Replay every corpus scenario through the full harness."""
    outcomes = []
    for path, scenario in load_corpus(directory):
        outcomes.append((path, run_scenario(scenario)))
    return outcomes
