"""Seeded end-to-end scenarios for deterministic simulation testing.

A :class:`Scenario` is the *complete* description of one whole-pipeline
run: the simulated applications (per-process syscall programs drawn
from the 42 traced syscalls, plus io_uring submitters on the ring
axis), the tracer configuration (ring policy,
batch size, backpressure), the backend fault plan, and the crash
schedule (consumer kills, store crashes with torn-WAL recovery).
Everything downstream — the kernel, the tracer, the store, the
correlator, the dashboards — is already deterministic on the virtual
clock, so a scenario plus the runner is a pure function: same seed,
byte-identical outcome.

Scenarios are plain JSON data on purpose.  That makes them:

- **replayable** — ``dio dst repro <seed>`` regenerates the scenario,
  ``dio dst repro <file.json>`` replays a saved one;
- **shrinkable** — the shrinker edits the op lists and schedules
  directly (see :mod:`repro.dst.shrink`);
- **archivable** — minimised failures live in ``tests/corpus/*.json``
  and run as ordinary regression tests forever after.

Op encoding (compact on purpose; the runner resolves it):

``{"sc": <syscall>, "d": <delay_ns>, ...}`` where the extra keys are
``p``/``p2`` (path-pool indexes), ``f`` (an index into the process's
currently-open fds, modulo how many are open), ``n`` (byte count or
length), ``o`` (offset), ``w`` (lseek whence), ``k`` (iovec segment
count), ``x`` (xattr-name pool index), ``fl`` (open flags).
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path
from typing import Optional

from repro.ebpf.ringbuf import POLICIES
from repro.faults import FAULT_KINDS
from repro.kernel.syscalls import (O_APPEND, O_CREAT, O_RDONLY, O_RDWR,
                                   O_TRUNC, O_WRONLY, SYSCALLS)

#: Current scenario schema version (bump on incompatible change).
SCENARIO_FORMAT = "dio-dst-scenario-v1"

#: Shared path pool every scenario draws from.  Index 3 is non-ASCII on
#: purpose: unicode paths must survive the ring buffer, the JSON wire
#: format, the WAL, and the correlator byte-identically.
PATH_POOL = (
    "/data/f0",
    "/data/f1",
    "/data/f2",
    "/data/журнал-日誌.log",
    "/logs/app.log",
    "/logs/audit",
    "/scratch/tmp0",
    "/scratch/tmp1",
)

#: Directories referenced by mkdir/rmdir ops (distinct from PATH_POOL
#: so removing a directory never orphans a data file mid-scenario).
DIR_POOL = ("/data/sub0", "/data/sub1", "/scratch/d0", "/scratch/d1")

#: xattr names (one non-ASCII, same reasoning as PATH_POOL).
XATTR_POOL = ("user.tag", "user.owner", "user.métadonnée")

_OPEN_FLAG_CHOICES = (
    O_CREAT | O_WRONLY,
    O_CREAT | O_RDWR,
    O_RDONLY,
    O_CREAT | O_WRONLY | O_APPEND,
    O_CREAT | O_WRONLY | O_TRUNC,
    O_RDWR,
)


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
    #: Backend shards the fast run serves from (the oracle twin always
    #: forces 1).  ``> 1`` also arms the post-run shard-kill/rebalance
    #: stage.  Corpus files predating this axis default to the single
    #: store.
    shard_count: int = 1
    #: Tracer ring mode: "classic" (io_uring ops invisible beyond the
    #: ``io_uring_enter`` doorbell) or "ring-aware" (per-SQE/CQE
    #: ``uring_*`` events).  "ring-aware" also arms the classic-twin
    #: oracle stage.  Corpus files predating this axis default to the
    #: classic tracer.
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
        """One line for progress output."""
        return (f"seed={self.seed} procs={len(self.processes)} "
                f"ops={self.total_ops} ncpus={self.ncpus} "
                f"ring={self.ring_policy} faults={len(self.fault_windows)} "
                f"ckills={len(self.consumer_crashes)} "
                f"scrashes={len(self.store_crashes)} "
                f"shards={self.shard_count} "
                f"uring={self.ring_mode}")


# ----------------------------------------------------------------------
# Generation

#: App models the generator mixes; each returns a list of ops.
APP_MODELS = ("sequential_writer", "appender", "reader", "random_rw",
              "metadata_storm", "xattr_worker", "mixed")

#: Syscalls the "mixed" model may draw beyond the model-specific ones.
_MIXED_SYSCALLS = tuple(sorted(SYSCALLS))


def _delay(rng: random.Random) -> int:
    """Inter-op virtual delay; spread so fault windows interleave."""
    return rng.randrange(0, 400_000)


def _ops_sequential_writer(rng: random.Random, n: int) -> list:
    path = rng.randrange(len(PATH_POOL))
    ops = [{"sc": "open", "p": path, "fl": O_CREAT | O_WRONLY,
            "d": _delay(rng)}]
    for _ in range(n):
        ops.append({"sc": "write", "f": 0, "n": rng.choice((64, 512, 4096)),
                    "d": _delay(rng)})
        if rng.random() < 0.15:
            ops.append({"sc": rng.choice(("fsync", "fdatasync")), "f": 0,
                        "d": _delay(rng)})
    ops.append({"sc": "close", "f": 0, "d": _delay(rng)})
    return ops


def _ops_appender(rng: random.Random, n: int) -> list:
    path = rng.randrange(len(PATH_POOL))
    ops = [{"sc": "open", "p": path, "fl": O_CREAT | O_WRONLY | O_APPEND,
            "d": _delay(rng)}]
    for _ in range(n):
        ops.append({"sc": "write", "f": 0, "n": rng.choice((80, 200)),
                    "d": _delay(rng)})
    ops.append({"sc": "fstat", "f": 0, "d": _delay(rng)})
    ops.append({"sc": "close", "f": 0, "d": _delay(rng)})
    return ops


def _ops_reader(rng: random.Random, n: int) -> list:
    path = rng.randrange(len(PATH_POOL))
    ops = [{"sc": "openat", "p": path, "fl": O_RDONLY, "d": _delay(rng)}]
    for _ in range(n):
        ops.append({"sc": rng.choice(("read", "read", "readv")), "f": 0,
                    "n": rng.choice((128, 1024)), "k": rng.randrange(1, 4),
                    "d": _delay(rng)})
    ops.append({"sc": "close", "f": 0, "d": _delay(rng)})
    return ops


def _ops_random_rw(rng: random.Random, n: int) -> list:
    path = rng.randrange(len(PATH_POOL))
    ops = [{"sc": "open", "p": path, "fl": O_CREAT | O_RDWR,
            "d": _delay(rng)}]
    for _ in range(n):
        op = rng.choice(("pwrite64", "pread64", "writev", "lseek"))
        entry = {"sc": op, "f": 0, "d": _delay(rng)}
        if op in ("pwrite64", "pread64"):
            entry["n"] = rng.choice((64, 256, 1024))
            entry["o"] = rng.randrange(0, 1 << 16)
        elif op == "writev":
            entry["n"] = 128
            entry["k"] = rng.randrange(1, 4)
        else:
            entry["o"] = rng.randrange(0, 1 << 14)
            entry["w"] = rng.choice((0, 1, 2))
        ops.append(entry)
    if rng.random() < 0.5:
        ops.append({"sc": "ftruncate", "f": 0,
                    "n": rng.randrange(0, 4096), "d": _delay(rng)})
    ops.append({"sc": "close", "f": 0, "d": _delay(rng)})
    return ops


def _ops_metadata_storm(rng: random.Random, n: int) -> list:
    ops = []
    for _ in range(n):
        op = rng.choice(("stat", "lstat", "fstatat", "mkdir", "mkdirat",
                         "rmdir", "mknod", "mknodat", "rename", "renameat",
                         "renameat2", "unlink", "unlinkat", "truncate",
                         "creat", "close"))
        entry = {"sc": op, "d": _delay(rng)}
        if op in ("mkdir", "mkdirat", "rmdir"):
            entry["p"] = rng.randrange(len(DIR_POOL))
        elif op in ("rename", "renameat", "renameat2"):
            entry["p"] = rng.randrange(len(PATH_POOL))
            entry["p2"] = rng.randrange(len(PATH_POOL))
        elif op == "close":
            entry["f"] = 0
        else:
            entry["p"] = rng.randrange(len(PATH_POOL))
            if op == "truncate":
                entry["n"] = rng.randrange(0, 2048)
        ops.append(entry)
    return ops


def _ops_xattr_worker(rng: random.Random, n: int) -> list:
    path = rng.randrange(len(PATH_POOL))
    ops = [{"sc": "open", "p": path, "fl": O_CREAT | O_RDWR,
            "d": _delay(rng)}]
    for _ in range(n):
        op = rng.choice(("setxattr", "lsetxattr", "fsetxattr",
                         "getxattr", "lgetxattr", "fgetxattr",
                         "listxattr", "llistxattr", "flistxattr",
                         "removexattr", "lremovexattr", "fremovexattr"))
        entry = {"sc": op, "d": _delay(rng),
                 "x": rng.randrange(len(XATTR_POOL))}
        if op.startswith("f"):
            entry["f"] = 0
        else:
            entry["p"] = path
        if "set" in op:
            entry["n"] = rng.randrange(1, 64)
        ops.append(entry)
    ops.append({"sc": "close", "f": 0, "d": _delay(rng)})
    return ops


def _ops_mixed(rng: random.Random, n: int) -> list:
    """Uniform draw over the full 42-syscall surface."""
    ops = [{"sc": "open", "p": rng.randrange(len(PATH_POOL)),
            "fl": rng.choice(_OPEN_FLAG_CHOICES), "d": _delay(rng)}]
    for _ in range(n):
        name = rng.choice(_MIXED_SYSCALLS)
        entry = {"sc": name, "d": _delay(rng)}
        if name in ("open", "openat", "creat"):
            entry["p"] = rng.randrange(len(PATH_POOL))
            entry["fl"] = rng.choice(_OPEN_FLAG_CHOICES)
        elif name in ("mkdir", "mkdirat", "rmdir"):
            entry["p"] = rng.randrange(len(DIR_POOL))
        elif name in ("rename", "renameat", "renameat2"):
            entry["p"] = rng.randrange(len(PATH_POOL))
            entry["p2"] = rng.randrange(len(PATH_POOL))
        elif name in ("mknod", "mknodat", "unlink", "unlinkat",
                      "stat", "lstat", "fstatat", "truncate",
                      "getxattr", "lgetxattr", "setxattr", "lsetxattr",
                      "listxattr", "llistxattr", "removexattr",
                      "lremovexattr"):
            entry["p"] = rng.randrange(len(PATH_POOL))
            entry["x"] = rng.randrange(len(XATTR_POOL))
            entry["n"] = rng.randrange(0, 512)
        else:
            # fd-based: read/write family, lseek, ftruncate, fsync,
            # fdatasync, fstat, fstatfs, close, f*xattr.
            entry["f"] = rng.randrange(0, 4)
            entry["n"] = rng.choice((32, 256, 2048))
            entry["o"] = rng.randrange(0, 1 << 14)
            entry["w"] = rng.choice((0, 1, 2))
            entry["k"] = rng.randrange(1, 4)
            entry["x"] = rng.randrange(len(XATTR_POOL))
        ops.append(entry)
    ops.append({"sc": "close", "f": 0, "d": _delay(rng)})
    return ops


def _ops_uring_worker(rng: random.Random, n: int) -> list:
    """Batched io_uring submitter: prep SQEs app-side, ring a doorbell.

    Op codes beyond the classic set (the runner interprets them):
    ``io_uring_setup`` (``e`` = SQ entries), ``uring_prep`` (``u`` =
    SQE opcode, ``ln`` = link-to-next flag; no syscall), and
    ``io_uring_enter``/``io_uring_register`` (``ro`` = register
    opcode).  Ops on a ring-less process are deterministic skips, so
    the shrinker can delete the setup op without breaking replay.
    """
    path = rng.randrange(len(PATH_POOL))
    ops = [{"sc": "open", "p": path, "fl": O_CREAT | O_RDWR,
            "d": _delay(rng)},
           {"sc": "io_uring_setup", "e": rng.choice((8, 16, 32)),
            "d": _delay(rng)}]
    if rng.random() < 0.4:
        ops.append({"sc": "io_uring_register", "ro": 0,
                    "n": rng.randrange(1, 5), "d": _delay(rng)})
    for _ in range(n):
        batch = rng.randrange(1, 5)
        for i in range(batch):
            u = rng.choice(("write", "write", "read", "fsync"))
            ops.append({"sc": "uring_prep", "u": u, "f": 0,
                        "n": rng.choice((64, 512, 2048)),
                        "o": rng.randrange(0, 1 << 14),
                        "ln": 1 if (i < batch - 1
                                    and rng.random() < 0.25) else 0,
                        "d": _delay(rng)})
        ops.append({"sc": "io_uring_enter", "d": _delay(rng)})
    ops.append({"sc": "close", "f": 0, "d": _delay(rng)})
    return ops


_MODEL_BUILDERS = {
    "sequential_writer": _ops_sequential_writer,
    "appender": _ops_appender,
    "reader": _ops_reader,
    "random_rw": _ops_random_rw,
    "metadata_storm": _ops_metadata_storm,
    "xattr_worker": _ops_xattr_worker,
    "mixed": _ops_mixed,
}


def generate(seed: int, scale: float = 1.0) -> Scenario:
    """Generate the scenario for ``seed`` (pure function of the seed).

    ``scale`` multiplies op counts — the nightly campaign can run the
    same seeds bigger without a schema change.
    """
    rng = random.Random(f"dio-dst-{seed}")
    nprocs = rng.randrange(1, 4)
    processes = []
    for index in range(nprocs):
        model = rng.choice(APP_MODELS)
        n = max(3, int(rng.randrange(8, 30) * scale))
        processes.append({
            "name": f"{model}-{index}",
            "traced": True,
            "ops": _MODEL_BUILDERS[model](rng, n),
        })
    # One in three scenarios adds an untraced bystander process whose
    # events must never reach the store (PID-filter isolation).
    if rng.random() < 1 / 3:
        processes.append({
            "name": "bystander",
            "traced": False,
            "ops": _ops_sequential_writer(rng, max(3, int(6 * scale))),
        })

    # Rough virtual horizon: ops * (mean delay + syscall cost), so the
    # fault windows and crash points land while the apps are running.
    horizon = max(2_000_000, Scenario(0, processes=processes).total_ops
                  * 240_000 // max(1, nprocs))

    fault_windows = []
    if rng.random() < 0.6:
        plan_seed = rng.randrange(1 << 30)
        from repro.faults import FaultPlan
        plan = FaultPlan.seeded(plan_seed, horizon_ns=horizon,
                                outages=rng.randrange(1, 4),
                                mean_outage_ns=max(200_000, horizon // 10),
                                kinds=FAULT_KINDS)
        fault_windows = [w.as_dict() for w in plan.windows]

    consumer_crashes = []
    if rng.random() < 0.35:
        for _ in range(rng.randrange(1, 3)):
            consumer_crashes.append(rng.randrange(horizon // 10, horizon))
        consumer_crashes.sort()

    store_crashes = []
    if rng.random() < 0.35:
        for ordinal in sorted(rng.sample(range(1, 9),
                                         rng.randrange(1, 3))):
            store_crashes.append({
                "after_bulks": ordinal,
                "torn_frac": round(rng.uniform(0.05, 0.95), 3),
            })

    # Each later axis draws from its own derived rng so adding it kept
    # every existing seed's other draws (and thus every corpus
    # scenario) byte-identical.
    shard_rng = random.Random(f"dio-dst-shards-{seed}")

    # The io_uring axis draws from its own derived stream too.  Half
    # the seeds gain a ring-submitting worker; those run ring-aware
    # twice as often as classic (classic-with-a-ring pins the blind
    # spot, ring-aware arms the classic-twin oracle stage).
    uring_rng = random.Random(f"dio-dst-uring-{seed}")
    ring_mode = "classic"
    if uring_rng.random() < 0.5:
        ring_mode = uring_rng.choice(("classic", "ring-aware",
                                      "ring-aware"))
        processes.append({
            "name": "uring_worker",
            "traced": True,
            "ops": _ops_uring_worker(uring_rng,
                                     max(2, int(uring_rng.randrange(3, 9)
                                                * scale))),
        })

    return Scenario(
        seed=seed,
        ncpus=rng.randrange(1, 4),
        ring_policy=rng.choice(POLICIES),
        ring_capacity_bytes_per_cpu=rng.choice((16 * 1024, 64 * 1024,
                                                256 * 1024)),
        batch_size=rng.choice((8, 32, 128)),
        backpressure_policy=rng.choice(("block", "block", "drop")),
        max_inflight_events=rng.choice((64, 256, 1024)),
        poll_interval_ns=rng.choice((100_000, 200_000, 500_000)),
        ship_max_retries=rng.choice((2, 3, 5)),
        fault_windows=fault_windows,
        consumer_crashes=consumer_crashes,
        consumer_restart_delay_ns=rng.choice((500_000, 1_500_000,
                                              4_000_000)),
        store_crashes=store_crashes,
        shard_count=shard_rng.choice((1, 1, 2, 3)),
        ring_mode=ring_mode,
        processes=processes,
    )
