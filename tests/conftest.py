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

See docs/TESTING.md.
"""

import os

from hypothesis import HealthCheck, settings

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

