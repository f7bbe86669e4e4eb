"""Test-suite configuration.

Two Hypothesis profiles:

- ``repro`` (default) — derandomized, so the suite is fully
  reproducible run to run: the same property the simulator itself
  guarantees (see ``tests/test_determinism.py``).
- ``nightly`` — randomized with a larger example budget, for the
  scheduled CI job that hunts new counterexamples.  Select it with
  ``HYPOTHESIS_PROFILE=nightly``; any failure it finds prints the
  failing example, which the derandomized profile then replays via
  Hypothesis's example database.

One fixture, ``live_tap``, for the tests that compare the tracer's
consumer path with a replay of what it stored.

See docs/TESTING.md.
"""

import os
from functools import partial

import pytest
from hypothesis import HealthCheck, settings

from repro.experiments import fluentbit_case, rocksdb_case
from repro.tracer import DIOTracer

settings.register_profile(
    "repro",
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "nightly",
    derandomize=False,
    max_examples=500,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))


@pytest.fixture
def live_tap(monkeypatch):
    """``live_tap(tap)``: the case runners' tracers feed ``tap`` on
    their consumer path for the rest of the test; returns ``tap``."""
    def attach(tap):
        for module in (fluentbit_case, rocksdb_case):
            monkeypatch.setattr(module, "DIOTracer",
                                partial(DIOTracer, tap=tap))
        return tap
    return attach
