"""Seeded end-to-end scenarios and the axis registry that defines them.

A :class:`Scenario` is the *complete* description of one whole-pipeline
run: the simulated applications (op programs, :mod:`repro.dst.ops`),
the tracer configuration, the backend fault plan and the crash
schedule.  Everything downstream is deterministic on the virtual clock,
so a scenario plus the runner is a pure function: same seed,
byte-identical outcome.  Scenarios are plain JSON on purpose:
**replayable** (``dio dst repro``), **shrinkable**
(:mod:`repro.dst.shrink` edits the values directly) and **archivable**
(``tests/corpus/*.json`` runs as regression tests forever after).

Each value of a scenario is one **axis**, and :data:`AXES` is the only
place an axis is written down: field, RNG stream and draw, simplest
value, and the twin run and post-run stage it arms.  :func:`generate`,
:meth:`Scenario.describe`, the runner's loops, the shrinker and ``dio
dst repro``'s override flags all read the table, so adding an axis is
adding a row (docs/TESTING.md, "Adding an axis").
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path
from typing import Callable, Optional

from repro.dst.differential import compare_twin_runs
from repro.dst.ops import APP_MODELS, MODEL_BUILDERS, ops_uring_worker
from repro.dst.stages import (ring_twin_checks, segment_storage_checks,
                              shard_lifecycle_checks,
                              storage_recovery_checks)
from repro.ebpf.ringbuf import POLICIES
from repro.faults import FaultPlan

#: Current scenario schema version (bump on incompatible change).
SCENARIO_FORMAT = "dio-dst-scenario-v1"


def stream(seed: int, name: Optional[str] = None) -> random.Random:
    """The harness's one source of randomness for ``seed``: the main
    generation stream, or a named one of its own (``dio-dst-<name>-
    <seed>``) whose draws — a later axis, a stage's cut point — move
    no draw of any other."""
    return random.Random(f"dio-dst-{name}-{seed}" if name
                         else f"dio-dst-{seed}")


@dataclasses.dataclass
class Scenario:
    """One generated end-to-end test case (JSON round-trippable)."""

    seed: int
    ncpus: int = 2
    ring_policy: str = "drop-new"
    ring_capacity_bytes_per_cpu: int = 64 * 1024
    batch_size: int = 32
    backpressure_policy: str = "block"
    max_inflight_events: int = 256
    poll_interval_ns: int = 200_000
    ship_max_retries: int = 3
    #: Backend shards the fast run serves from.  Corpus files predating
    #: this axis (and the next) load with its default.
    shard_count: int = 1
    #: Tracer ring mode: "classic" (io_uring ops invisible beyond the
    #: ``io_uring_enter`` doorbell) or "ring-aware" (per-SQE/CQE
    #: ``uring_*`` events).
    ring_mode: str = "classic"
    #: FaultWindow dicts (``start_ns``/``end_ns``/``kind``/...).
    fault_windows: list = dataclasses.field(default_factory=list)
    #: Virtual times at which the consumer process is killed.
    consumer_crashes: list = dataclasses.field(default_factory=list)
    consumer_restart_delay_ns: int = 1_500_000
    #: ``{"after_bulks": k, "torn_frac": f}`` store-crash points: the
    #: k-th bulk reaching the store crashes it, tearing the store WAL
    #: at fraction ``f`` of the in-flight record.
    store_crashes: list = dataclasses.field(default_factory=list)
    #: ``{"name": str, "traced": bool, "ops": [op, ...]}`` programs.
    processes: list = dataclasses.field(default_factory=list)

    # ------------------------------------------------------------------
    # Serialization

    def to_dict(self) -> dict:
        """The scenario as plain JSON data (with a format marker)."""
        data = dataclasses.asdict(self)
        data["format"] = SCENARIO_FORMAT
        return data

    def to_json(self) -> str:
        """Stable, human-diffable JSON."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=1,
                          ensure_ascii=False) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output."""
        fmt = data.get("format", SCENARIO_FORMAT)
        if fmt != SCENARIO_FORMAT:
            raise ValueError(f"unsupported scenario format {fmt!r}")
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in fields})

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Scenario":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    # ------------------------------------------------------------------
    # Introspection

    @property
    def total_ops(self) -> int:
        """Syscall ops across all processes."""
        return sum(len(p["ops"]) for p in self.processes)

    @property
    def has_untraced(self) -> bool:
        """Whether an untraced process exercises the PID filter."""
        return any(not p.get("traced", True) for p in self.processes)

    def describe(self) -> str:
        """One line for progress output: every labelled axis."""
        shown = ((axis.label, getattr(self, axis.field))
                 for axis in AXES if axis.label)
        return f"seed={self.seed} ops={self.total_ops} " + " ".join(
            f"{label}={len(value) if isinstance(value, list) else value}"
            for label, value in shown)


# ----------------------------------------------------------------------
# The axis registry

@dataclasses.dataclass(frozen=True)
class Twin:
    """A second run of the scenario the fast run must agree with."""

    name: str
    #: Scenario fields the twin run replaces (``dataclasses.replace``).
    overrides: dict
    #: ``compare(fast, twin) -> failures`` over the two finished runs.
    compare: Callable
    #: Run the reference path (``bulk``-only store, ``legacy_correlate``).
    oracle: bool = False
    #: ``armed(scenario)``: whether the twin runs at all.
    armed: Callable = lambda scenario: True


@dataclasses.dataclass(frozen=True)
class Axis:
    """One row: everything the harness knows about one scenario value."""

    #: The :class:`Scenario` attribute holding the value.
    field: str
    #: What the shrinker collapses the value to (lists: ddmin to empty).
    simplest: object
    #: A draw is ``rng.choice(values)`` (repeats weight it); also the
    #: choices of the axis's ``dio dst repro`` flag.
    values: tuple = ()
    #: ``draw(rng, drawn) -> value`` when a choice will not do;
    #: ``drawn`` holds the rows above, to read (a horizon) or extend (a
    #: worker process).
    draw: Optional[Callable] = None
    #: This row's own derived stream (:func:`stream`).  ``None`` is the
    #: main stream, where a new row shifts every later draw of a seed.
    stream: Optional[str] = None
    #: Key in :meth:`Scenario.describe` (``None``: not shown).
    label: Optional[str] = None
    #: Help text of a ``dio dst repro --<field>`` override flag.
    override_help: Optional[str] = None
    twin: Optional[Twin] = None
    #: ``stage(run, tmp_dir) -> failures`` over what the fast run left
    #: behind; skipped on an empty capture.
    stage: Optional[Callable] = None


def _draw_processes(rng, drawn) -> list:
    processes = []
    for index in range(rng.randrange(1, 4)):
        model = rng.choice(APP_MODELS)
        processes.append({
            "name": f"{model}-{index}", "traced": True,
            "ops": MODEL_BUILDERS[model](rng, rng.randrange(8, 30))})
    # One in three scenarios adds an untraced bystander process whose
    # events must never reach the store (PID-filter isolation).
    if rng.random() < 1 / 3:
        processes.append({
            "name": "bystander", "traced": False,
            "ops": MODEL_BUILDERS["sequential_writer"](rng, 6)})
    return processes


def _horizon(drawn) -> int:
    """Rough virtual horizon: ops * (mean delay + syscall cost), so the
    fault windows and crash points land while the apps are running."""
    processes = drawn["processes"]
    return max(2_000_000, sum(len(p["ops"]) for p in processes) * 240_000
               // sum(1 for p in processes if p["traced"]))


def _draw_fault_windows(rng, drawn) -> list:
    if rng.random() >= 0.6:
        return []
    horizon = _horizon(drawn)
    plan = FaultPlan.seeded(rng.randrange(1 << 30), horizon_ns=horizon,
                            outages=rng.randrange(1, 4),
                            mean_outage_ns=max(200_000, horizon // 10))
    return [window.as_dict() for window in plan.windows]


def _draw_consumer_crashes(rng, drawn) -> list:
    if rng.random() >= 0.35:
        return []
    horizon = _horizon(drawn)
    return sorted(rng.randrange(horizon // 10, horizon)
                  for _ in range(rng.randrange(1, 3)))


def _draw_store_crashes(rng, drawn) -> list:
    if rng.random() >= 0.35:
        return []
    return [{"after_bulks": ordinal,
             "torn_frac": round(rng.uniform(0.05, 0.95), 3)}
            for ordinal in sorted(rng.sample(range(1, 9),
                                             rng.randrange(1, 3)))]


def _draw_ring_mode(rng, drawn) -> str:
    """Half the seeds gain a ring-submitting worker; those run
    ring-aware twice as often as classic (classic-with-a-ring pins the
    blind spot, ring-aware arms the classic twin)."""
    if rng.random() >= 0.5:
        return "classic"
    mode = rng.choice(("classic", "ring-aware", "ring-aware"))
    drawn["processes"].append({
        "name": "uring_worker", "traced": True,
        "ops": ops_uring_worker(rng, rng.randrange(3, 9))})
    return mode


#: Every axis, main-stream rows in draw order.  Each later axis has its
#: own derived stream, so adding it kept every existing seed's other
#: draws (and thus every corpus scenario) byte-identical.  Twins and
#: stages run in row order; the shard stage leaves the fast store
#: rebalanced (same documents) for any stage below it.
AXES: list[Axis] = [
    Axis("processes", [], draw=_draw_processes, label="procs"),
    Axis("fault_windows", [], draw=_draw_fault_windows, label="faults",
         stage=storage_recovery_checks),
    Axis("consumer_crashes", [], draw=_draw_consumer_crashes,
         label="ckills"),
    Axis("store_crashes", [], draw=_draw_store_crashes, label="scrashes",
         stage=segment_storage_checks),
    Axis("ncpus", 1, values=(1, 2, 3), label="ncpus"),
    Axis("ring_policy", "drop-new", values=POLICIES, label="ring"),
    Axis("ring_capacity_bytes_per_cpu", 64 * 1024,
         values=(16 * 1024, 64 * 1024, 256 * 1024)),
    Axis("batch_size", 32, values=(8, 32, 128)),
    Axis("backpressure_policy", "block", values=("block", "block", "drop")),
    Axis("max_inflight_events", 256, values=(64, 256, 1024)),
    Axis("poll_interval_ns", 200_000, values=(100_000, 200_000, 500_000)),
    Axis("ship_max_retries", 3, values=(2, 3, 5)),
    Axis("consumer_restart_delay_ns", 1_500_000,
         values=(500_000, 1_500_000, 4_000_000)),
    Axis("shard_count", 1, values=(1, 1, 2, 3), stream="shards",
         label="shards",
         override_help=">1 serves the fast run from the scatter-gather "
                       "router and arms the shard-kill/rebalance stage",
         # Forced to one shard, the reference twin checks bulk_columnar,
         # lazy hydration, the router and the grouped-pass correlator
         # against the per-document single-store path on every seed.
         twin=Twin("oracle", {"shard_count": 1}, compare_twin_runs,
                   oracle=True),
         stage=shard_lifecycle_checks),
    Axis("ring_mode", "classic", values=("classic", "ring-aware"),
         draw=_draw_ring_mode, stream="uring", label="uring",
         override_help="ring-aware also arms the classic-twin oracle",
         twin=Twin("classic", {"ring_mode": "classic"}, ring_twin_checks,
                   armed=lambda scenario:
                   scenario.ring_mode == "ring-aware")),
]


def generate(seed: int) -> Scenario:
    """Generate the scenario for ``seed`` (pure function of the seed)."""
    main = stream(seed)
    drawn: dict = {}
    for axis in AXES:
        rng = main if axis.stream is None else stream(seed, axis.stream)
        drawn[axis.field] = (axis.draw(rng, drawn) if axis.draw
                             else rng.choice(axis.values))
    return Scenario(seed, **drawn)
