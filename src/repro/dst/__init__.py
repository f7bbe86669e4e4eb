"""Deterministic simulation testing (DST) for the whole pipeline.

The tracer already runs on a simulated kernel and virtual clock; this
package weaponises that determinism the way FoundationDB's simulator
does.  One integer seed expands into a complete end-to-end scenario —
a workload mix over all 42 traced syscalls, the tracer configuration,
a backend fault plan, consumer kill/restart times, and store crash
points — and the harness runs the scenario through the *real*
pipeline, then judges the outcome against invariants and oracles:

- :mod:`repro.dst.scenario` — the scenario JSON format, the axis
  registry (one row per scenario value: draw, simplest value, the twin
  and post-run stage it arms) and seed → scenario expansion;
- :mod:`repro.dst.ops` — the op encoding: builders and interpreter;
- :mod:`repro.dst.runner` — executes a scenario: fast run, invariants,
  differential battery, twins, determinism digest, post-run stages;
- :mod:`repro.dst.stages` — what the rows arm: the classic-twin
  comparison and the torn-file / crash recovery stages;
- :mod:`repro.dst.invariants` — conservation, exactly-once, monotone
  offsets, correlation consistency, telemetry cross-checks;
- :mod:`repro.dst.differential` — fast-vs-naive query battery and the
  oracle-twin comparison;
- :mod:`repro.dst.crash` — the crashing store (torn-WAL recovery at
  bulk boundaries) and the oracle twin's bulk-only facade;
- :mod:`repro.dst.shrink` — minimisation of failing scenarios;
- :mod:`repro.dst.campaign` — seed campaigns and their summary counts;
- :mod:`repro.dst.corpus` — the checked-in regression corpus.

See docs/TESTING.md for the operator's view.
"""

from repro.dst.campaign import CampaignResult, CampaignStats, run_seeds
from repro.dst.corpus import load_corpus, run_corpus
from repro.dst.runner import RunResult, run_scenario
from repro.dst.ops import APP_MODELS
from repro.dst.scenario import AXES, Axis, Scenario, Twin, generate
from repro.dst.shrink import ShrinkResult, shrink

__all__ = [
    "APP_MODELS",
    "AXES",
    "Axis",
    "CampaignResult",
    "CampaignStats",
    "RunResult",
    "Scenario",
    "ShrinkResult",
    "Twin",
    "generate",
    "load_corpus",
    "run_corpus",
    "run_scenario",
    "run_seeds",
    "shrink",
]
