"""The DST harness: determinism, invariants, mutation kill, corpus.

Three kinds of evidence that the harness works:

- **self-tests** — seeded scenarios run clean through the full
  pipeline and the harness's own determinism check (same seed →
  byte-identical digest) holds;
- **mutation smoke** — an artificially injected store/pipeline bug is
  caught by the invariants, proving the oracle actually bites;
- **corpus regression** — every minimised scenario under
  ``tests/corpus/`` replays clean on every run.
"""

import dataclasses
import hashlib
import inspect
import json
import re
from pathlib import Path

import pytest

from repro.backend.store import DocumentStore
from repro.dst import (AXES, Axis, Scenario, Twin, generate, run_scenario,
                       run_seeds, shrink)
from repro.dst import invariants
from repro.dst import runner as runner_module
from repro.dst import scenario as scenario_module
from repro.dst.crash import CrashingStore
from repro.dst.runner import execute_pipeline, run_digest
from repro.faults import InjectedFault

CORPUS_DIR = Path(__file__).parent / "corpus"

#: Seeds exercised by the tier-1 smoke campaign.  Chosen to cover the
#: machinery: consumer kills, store crashes, fault windows, sampling
#: and overwrite-oldest ring policies, unicode paths (see
#: ``dio dst run --verbose`` for per-seed shapes).
SMOKE_SEEDS = (1, 3, 5, 8, 10, 12, 18, 78)


# ----------------------------------------------------------------------
# Scenario generation

def test_generate_is_deterministic():
    assert generate(42).to_json() == generate(42).to_json()


def test_generate_varies_by_seed():
    assert generate(1).to_json() != generate(2).to_json()


def test_scenario_round_trips_through_json():
    scenario = generate(7)
    clone = Scenario.from_json(scenario.to_json())
    assert clone == scenario


def test_scenario_save_load(tmp_path):
    scenario = generate(9)
    path = tmp_path / "s.json"
    scenario.save(path)
    assert Scenario.load(path) == scenario


def test_scenario_rejects_wrong_format():
    payload = generate(1).to_dict()
    payload["format"] = "something-else"
    with pytest.raises(ValueError):
        Scenario.from_dict(payload)


def test_generator_is_pinned():
    # Every later axis draws from its own derived stream, so adding it
    # leaves every existing seed's other draws byte-identical.  Nothing
    # but this literal enforces that: a row added to the main stream,
    # a reordered draw or a renamed stream changes it.
    pinned = hashlib.sha256()
    for seed in range(200):
        pinned.update(generate(seed).to_json().encode("utf-8"))
    assert pinned.hexdigest() == (
        "c399cb5e35db2a24e9cf1d46cab36331ca3d487c91c54ee5f1ede6bb3ebbdb5b")


@pytest.fixture()
def _throwaway_row():
    added = []
    yield lambda row: (AXES.append(row), added.append(row))
    for row in added:
        AXES.remove(row)


def test_an_axis_is_one_row(monkeypatch, _throwaway_row):
    # A throwaway axis: its Scenario field (a subclass stands in for the
    # one-line declaration) and one row, appended at runtime.  generate,
    # describe, run_scenario and shrink pick it up with no edit.
    before = [generate(seed) for seed in range(200)]
    described = [scenario.describe() for scenario in before]
    seen = []

    def canary_stage(run, tmp_dir):
        seen.append(("stage", run.scenario.canary))
        return ["canary stage: 2"] if run.scenario.canary == 2 else []

    def canary_compare(fast, twin):
        seen.append(("twin", fast.scenario.canary, twin.scenario.canary))
        return []

    monkeypatch.setattr(scenario_module, "Scenario", dataclasses.make_dataclass(
        "Scenario", [("canary", int, 0)], bases=(Scenario,)))
    _throwaway_row(Axis(
        "canary", 0, values=(0, 1, 2), stream="canary", label="canary",
        twin=Twin("canary", {"canary": 0}, canary_compare,
                  armed=lambda scenario: scenario.canary == 1),
        stage=canary_stage))

    after = [generate(seed) for seed in range(200)]
    assert {scenario.canary for scenario in after} == {0, 1, 2}
    for old, line, new in zip(before, described, after):
        assert dataclasses.asdict(new) == {**dataclasses.asdict(old),
                                           "canary": new.canary}
        assert new.describe() == f"{line} canary={new.canary}"

    armed = next(s for s in after if s.canary == 1 and s.seed > 0)
    assert run_scenario(armed, check_determinism=False).ok
    assert seen == [("twin", 1, 0), ("stage", 1)]
    failing = next(s for s in after if s.canary == 2 and s.seed > 0)
    result = run_scenario(failing, check_determinism=False)
    assert result.failures == ["canary stage: 2"]
    # The failure depends on the canary staying at 2 and on one stored
    # event (stages skip an empty capture): everything else shrinks
    # away, the canary does not.
    outcome = shrink(failing, max_runs=120)
    assert outcome.still_failing and outcome.final_ops == 1
    assert [(axis.field, getattr(outcome.scenario, axis.field))
            for axis in AXES
            if getattr(outcome.scenario, axis.field) != axis.simplest] == [
        ("processes", outcome.scenario.processes), ("canary", 2)]


def test_stage_lists_name_what_the_registry_arms():
    # The runner's docstring and docs/TESTING.md list the twins and the
    # post-run stages; the registry is what runs.
    twins = {axis.twin.name for axis in AXES if axis.twin}
    stages = {axis.stage.__name__ for axis in AXES if axis.stage}
    testing = (Path(__file__).parent.parent / "docs" / "TESTING.md"
               ).read_text(encoding="utf-8")
    listing = testing[testing.index("`run_scenario` executes"):
                      testing.index("`dio dst repro <seed> --shard-count")]
    for text in (runner_module.__doc__, listing):
        assert set(re.findall(r"`(\w+_checks)`", text)) == stages
        assert set(re.findall(r"`(\w+)`+ twin", text)) == twins
    # run_scenario itself names none of them, nor what a twin replaces.
    body = inspect.getsource(runner_module.run_scenario)
    assert not re.search(r"_checks|compare_|" + "|".join(
        name for axis in AXES if axis.twin for name in axis.twin.overrides),
        body)


def test_scenario_ignores_unknown_keys():
    payload = generate(1).to_dict()
    payload["corpus_note"] = "annotation"
    # A scenario file saved before the storage axis was retired still
    # carries its key; it must keep loading.
    payload["storage_mode"] = "jsonl"
    assert Scenario.from_dict(payload) == generate(1)


# ----------------------------------------------------------------------
# Harness self-tests

@pytest.mark.parametrize("seed", SMOKE_SEEDS)
def test_seed_passes_full_harness(seed):
    result = run_scenario(generate(seed))
    assert result.failures == []
    assert result.events_stored > 0


def test_same_seed_runs_are_byte_identical():
    scenario = generate(11)
    runs = [execute_pipeline(scenario) for _ in range(2)]
    digests = [run_digest(run, [], []) for run in runs]
    assert digests[0] == digests[1]
    assert runs[0].docs == runs[1].docs


def test_digests_are_pinned(tmp_path):
    # The same-outputs oracle: seeds 1..50 through `dio dst run --json`
    # must reproduce tests/data/dst_digests.json.  A change that means
    # to move a digest regenerates the file and shows the diff.
    from repro.cli import main

    summary = tmp_path / "summary.json"
    assert main(["dst", "run", "--seeds", "50",
                 "--json", str(summary)]) == 0
    digests = json.loads(summary.read_text(encoding="utf-8"))["digests"]
    pinned = json.loads(
        (Path(__file__).parent / "data" / "dst_digests.json").read_text(
            encoding="utf-8"))
    assert {seed: digest for seed, digest in digests.items()
            if digest != pinned.get(seed)} == {}
    assert digests.keys() == pinned.keys()


def test_campaign_smoke():
    campaign = run_seeds(SMOKE_SEEDS[:4])
    assert campaign.ok
    assert campaign.stats.seeds_run == 4
    summary = campaign.summary()
    assert summary["seeds_failed"] == 0
    assert summary["events_stored"] > 0


def test_campaign_counts_injections():
    # Seed 1 schedules both a consumer kill and store crashes; the
    # campaign stats must see them.
    campaign = run_seeds([1])
    assert campaign.stats.consumer_crashes_injected >= 1
    assert campaign.stats.store_crashes_injected >= 1


# ----------------------------------------------------------------------
# Mutation smoke: the harness must catch injected bugs

def _sequential_writer_scenario() -> Scenario:
    from repro.kernel.syscalls import O_CREAT, O_WRONLY

    ops = [{"sc": "open", "p": 0, "fl": O_CREAT | O_WRONLY}]
    ops += [{"sc": "write", "f": 0, "n": 64, "d": 200_000}
            for _ in range(12)]
    ops += [{"sc": "close", "f": 0, "d": 200_000}]
    return Scenario(seed=990001, ncpus=1,
                    processes=[{"name": "seq-writer", "traced": True,
                                "ops": ops}])


@pytest.fixture()
def _restore_bulk():
    # Mutation tests patch ``DocumentStore.bulk`` with an injected bug.
    # Route the vectorized endpoint through the (patched) dict path for
    # the fixture's lifetime, so the bug fires on the fast run too.  The
    # dict path takes no coordinator-assigned ids, so a shard cannot
    # ship through it: a mutant meant to fire on the fast run runs on
    # one store (``one_store``).
    real = DocumentStore.bulk
    real_columnar = DocumentStore.bulk_columnar
    DocumentStore.bulk_columnar = (
        lambda self, index, batch: self.bulk(index, batch.to_docs()))
    yield real
    DocumentStore.bulk = real
    DocumentStore.bulk_columnar = real_columnar


def one_store(scenario: Scenario) -> Scenario:
    return dataclasses.replace(scenario, shard_count=1)


def test_catches_store_dropping_documents(_restore_bulk):
    real_bulk = _restore_bulk

    def buggy_bulk(self, index, sources, *args, **kwargs):
        kept = [s for i, s in enumerate(sources) if i % 7 != 6]
        return real_bulk(self, index, kept, *args, **kwargs)

    DocumentStore.bulk = buggy_bulk
    result = run_scenario(one_store(generate(1)), check_determinism=False,
                          check_oracle=False)
    assert not result.ok
    assert any("conservation" in f for f in result.failures)


def test_catches_store_duplicating_documents(_restore_bulk):
    real_bulk = _restore_bulk

    def buggy_bulk(self, index, sources, *args, **kwargs):
        sources = list(sources)
        return real_bulk(self, index, sources + sources[:1],
                         *args, **kwargs)

    DocumentStore.bulk = buggy_bulk
    result = run_scenario(one_store(generate(1)), check_determinism=False,
                          check_oracle=False)
    assert not result.ok
    assert any("conservation" in f or "duplicate" in f
               for f in result.failures)


def test_catches_store_corrupting_fields(_restore_bulk):
    real_bulk = _restore_bulk

    def buggy_bulk(self, index, sources, *args, **kwargs):
        mangled, done = [], False
        for source in sources:
            if (not done and source.get("syscall") == "write"
                    and source.get("offset") is not None):
                source = dict(source,
                              offset=source["offset"] + 10_000_000)
                done = True
            mangled.append(source)
        return real_bulk(self, index, mangled, *args, **kwargs)

    DocumentStore.bulk = buggy_bulk
    # A pure sequential writer with no seeks, crashes, or faults: the
    # monotone-offset oracle is armed and must flag the writes that
    # follow the inflated one as regressions.
    result = run_scenario(_sequential_writer_scenario(),
                          check_determinism=False)
    assert not result.ok
    assert any("offset regression" in f for f in result.failures)


def test_shrinker_minimises_a_failing_scenario(_restore_bulk):
    real_bulk = _restore_bulk

    def buggy_bulk(self, index, sources, *args, **kwargs):
        kept = [s for i, s in enumerate(sources) if i % 7 != 6]
        return real_bulk(self, index, kept, *args, **kwargs)

    DocumentStore.bulk = buggy_bulk
    outcome = shrink(generate(3), max_runs=40)
    assert outcome.still_failing
    assert outcome.final_ops < outcome.original_ops
    assert outcome.scenario.seed == 3
    # The shrunk scenario still reproduces under the bug, evaluated with
    # the same predicate the shrinker used (oracle twin on): with a
    # sharded fast run the drop bug may only be visible as a divergence
    # from the single-shard oracle, not as an invariant violation.
    assert not run_scenario(outcome.scenario, check_determinism=False).ok


def test_shrinker_collapses_every_axis_the_failure_ignores(monkeypatch):
    # An injected "invariant" that objects to any stored write: the
    # failure needs one write event and nothing else.  (The store
    # mutants above will not do here — under them a sharded run cannot
    # ship and a crashing one fails for reasons of its own.)
    monkeypatch.setattr(
        invariants, "check_isolation",
        lambda ctx: ["stored a write"] * any(
            source["syscall"] == "write" for _, source in ctx.docs))
    scenario = dataclasses.replace(
        generate(3), shard_count=3, ring_mode="ring-aware",
        backpressure_policy="drop")
    outcome = shrink(scenario, max_runs=80)
    assert outcome.still_failing and outcome.final_ops == 2  # open, write
    # It needs neither shards, nor the ring-aware tracer, nor shedding
    # backpressure — nor any other axis off its simplest value.
    assert (outcome.scenario.shard_count, outcome.scenario.ring_mode,
            outcome.scenario.backpressure_policy) == (1, "classic", "block")
    assert [axis.field for axis in AXES
            if getattr(outcome.scenario, axis.field) != axis.simplest] == [
        "processes"]


@pytest.mark.parametrize("sabotage", ["drop", "corrupt", "segment-drop"])
def test_bulk_only_twin_catches_sabotaged_bulk_columnar(monkeypatch,
                                                        sabotage):
    # The oracle twin's tracer never sees ``bulk_columnar``, so a bug
    # confined to the vectorized endpoint makes the two runs diverge.
    # The endpoint has two producers — the tracer's ring batches and
    # the segment check's ``load_session`` — and each sabotage hits
    # exactly one of them.
    from repro.backend.segments import SegmentBatch
    from repro.tracer.batch import RecordBatch

    real_columnar = DocumentStore.bulk_columnar
    victim = SegmentBatch if sabotage == "segment-drop" else RecordBatch

    def buggy_columnar(self, index, batch, *args, **kwargs):
        if type(batch) is not victim:
            pass
        elif sabotage == "corrupt":
            batch = batch.take(list(range(len(batch))))
            batch._lanes["time_exit"][0][0] += 1
        else:
            batch = batch.take(list(range(len(batch) - 1)))
        return real_columnar(self, index, batch, *args, **kwargs)

    monkeypatch.setattr(DocumentStore, "bulk_columnar", buggy_columnar)
    scenario = _sequential_writer_scenario()
    result = run_scenario(scenario, check_determinism=False)
    if sabotage == "segment-drop":
        # The traced pipeline is untouched; only the loaded copy lost a
        # row, which the export oracle of the segment stage sees.
        assert not any(f.startswith("twin-run") for f in result.failures)
        assert any("loaded session differs from the jsonl oracle" in f
                   for f in result.failures)
        return
    assert any(f.startswith("twin-run") for f in result.failures)
    if sabotage == "corrupt":
        # No invariant sees an exit timestamp off by 1 ns: without
        # the twin this bug would pass.
        assert run_scenario(scenario, check_determinism=False,
                            check_oracle=False).ok


# ----------------------------------------------------------------------
# The verifier must be shown to verify: every twin and every post-run
# stage of the registry turns a passing scenario into a failing one
# under a mutant of the code it guards.

def _quiet(seed: int, **overrides) -> Scenario:
    """``generate(seed)`` with nothing scheduled against it, so what a
    sabotaged run reports is the mutant's doing."""
    return dataclasses.replace(
        generate(seed), fault_windows=[], consumer_crashes=[],
        store_crashes=[], backpressure_policy="block", **overrides)


def _scan_loses_its_last_frame(monkeypatch):
    # (A scan that skips the CRC cannot fail a tear: a torn frame is
    # short before its checksum is ever read.)
    from repro.backend import wal
    real = wal.scan_frames

    def lossy(blob, start=0, parse=None):
        items, end = real(blob, start, parse)
        return items[:-1], end

    monkeypatch.setattr(wal, "scan_frames", lossy)


def _recovery_keeps_duplicates(monkeypatch):
    from repro.backend import persistence
    from repro.dst import stages

    def keeping(store, path, index="dio_trace", rename_to=None):
        _, docs, corrupt = persistence._read_session_file(Path(path),
                                                          "replace")
        persistence._index_docs(store, index, rename_to, docs)
        return {"imported": len(docs), "dropped_corrupt": len(corrupt),
                "dropped_duplicates": 0, "header_ok": True}

    monkeypatch.setattr(stages, "recover_session", keeping)


def _zone_maps_over_prune(monkeypatch):
    # A segment reaching past the window's upper bound is pruned whole.
    from repro.backend import segments
    real = segments._zone_excludes_range
    monkeypatch.setattr(
        segments, "_zone_excludes_range",
        lambda zone, bounds: real(zone, bounds)
        or ("lte" in bounds and zone[2] > bounds["lte"]))


def _flush_forgets_the_wal_watermark(monkeypatch):
    from repro.backend.segments import SegmentStorage
    real = SegmentStorage._seal
    monkeypatch.setattr(
        SegmentStorage, "_seal",
        lambda self, encoded, session, wal_sealed=0:
        real(self, encoded, session))


def _restore_drops_a_document(monkeypatch):
    from repro.backend import router
    real = router.recover_log

    def lossy(blob, magic, record):
        records, report = real(blob, magic, record)
        return records[1:], report

    monkeypatch.setattr(router, "recover_log", lossy)


def _rebalance_reorders_two_documents(monkeypatch):
    from repro.backend.router import ShardedDocumentStore, _append
    real = ShardedDocumentStore.rebalance

    def swapping(self, shard_count=None):
        # The fullest shard's first two rows trade places.
        moved = real(self, shard_count)
        shard = max(self.shards, key=lambda s: len(s._index("dio_trace")))
        pairs = shard.scan("dio_trace")
        pairs[:2] = pairs[1::-1]
        shard.delete_index("dio_trace")
        _append(shard.ensure_index("dio_trace"), pairs)
        return moved

    monkeypatch.setattr(ShardedDocumentStore, "rebalance", swapping)


def _columnar_ingest_drops_a_row(monkeypatch):
    from repro.tracer.batch import RecordBatch
    real = DocumentStore.bulk_columnar

    def lossy(self, index, batch, *args, **kwargs):
        if type(batch) is RecordBatch:
            batch = batch.take(list(range(len(batch) - 1)))
        return real(self, index, batch, *args, **kwargs)

    monkeypatch.setattr(DocumentStore, "bulk_columnar", lossy)


def _ring_aware_tracer_doubles_a_doorbell(monkeypatch):
    # One classic-visible event is emitted twice, a nanosecond apart
    # (at the same instant the twin's set comparison could not tell).
    from repro.tracer.tracer import DIOTracer
    real = DIOTracer._emit
    doubled = []

    def noisy(self, ctx, enter_ns):
        if (self.config.ring_mode == "ring-aware" and not doubled
                and ctx.name == "io_uring_enter"):
            doubled.append(real(self, ctx, enter_ns + 1))
        return real(self, ctx, enter_ns)

    monkeypatch.setattr(DIOTracer, "_emit", noisy)


#: (registry row, "twin" | "stage") -> its mutants, each ``(sabotage,
#: scenario, text a failure must contain)``.
ROW_MUTANTS = {
    ("fault_windows", "stage"): [
        (_scan_loses_its_last_frame, _quiet(28), "torn spill WAL"),
        (_recovery_keeps_duplicates, _quiet(28), "duplicate replay")],
    ("store_crashes", "stage"): [
        (_scan_loses_its_last_frame, _quiet(28), "torn storage WAL"),
        (_zone_maps_over_prune, _quiet(28), "zone-pruned scan"),
        (_flush_forgets_the_wal_watermark, _quiet(28),
         "flush-publish crash")],
    ("shard_count", "stage"): [
        (_scan_loses_its_last_frame, _quiet(28, shard_count=3),
         "torn shard image"),
        (_restore_drops_a_document, _quiet(28, shard_count=3),
         "shard restore"),
        (_rebalance_reorders_two_documents, _quiet(28, shard_count=3),
         "rebalance: documents changed")],
    ("shard_count", "twin"): [
        (_columnar_ingest_drops_a_row, _sequential_writer_scenario(),
         "twin-run")],
    ("ring_mode", "twin"): [
        (_ring_aware_tracer_doubles_a_doorbell, _quiet(39),
         "ring twin: classic-visible events diverged")],
}


def _row_mutants():
    # A twin or stage row without an entry above is a KeyError here, at
    # collection: a check nobody has seen fail does not get in.
    return [pytest.param(*mutant, id=f"{axis.field}-{kind}-"
                         f"{mutant[0].__name__.strip('_')}")
            for axis in AXES for kind in ("twin", "stage")
            if getattr(axis, kind)
            for mutant in ROW_MUTANTS[axis.field, kind]]


@pytest.mark.parametrize("sabotage, scenario, symptom", _row_mutants())
def test_every_twin_and_stage_catches_a_mutant(monkeypatch, sabotage,
                                               scenario, symptom):
    assert run_scenario(scenario, check_determinism=False).ok
    sabotage(monkeypatch)
    failures = run_scenario(scenario, check_determinism=False).failures
    assert any(symptom in failure for failure in failures), failures


def test_shrink_of_passing_scenario_reports_not_failing():
    outcome = shrink(generate(1), max_runs=4)
    assert not outcome.still_failing
    assert outcome.final_ops == outcome.original_ops


# ----------------------------------------------------------------------
# CrashingStore unit behaviour

def test_crashing_store_crashes_and_recovers():
    store = DocumentStore()
    crashing = CrashingStore(
        store, [{"after_bulks": 2, "torn_frac": 0.5}])
    crashing.ensure_index("idx", indexed_fields=("a",))
    assert crashing.bulk("idx", [{"a": 1}, {"a": 2}]) == 2
    with pytest.raises(InjectedFault):
        crashing.bulk("idx", [{"a": 3}])
    # The torn bulk was not applied; the journal rebuild reproduced
    # the pre-crash state exactly.
    assert store.count("idx") == 2
    assert crashing.crashes_total == 1
    assert all(r["consistent"] for r in crashing.recovery_reports)
    report = crashing.recovery_reports[0]
    assert report["header_ok"]
    assert report["records_recovered"] == 1
    assert report["replayed_docs"] == 2
    # Half of the in-flight frame reached the disk and was dropped.
    assert report["torn_bytes_dropped"] == report["inflight_frame_bytes"] // 2
    # Retry after recovery succeeds and lands exactly once.
    assert crashing.bulk("idx", [{"a": 3}]) == 1
    assert store.count("idx") == 3


def test_crashing_store_torn_record_never_parses():
    # "Fully written but unacked" is outside the failure model: the
    # torn fraction must leave a strict prefix of the in-flight frame
    # (which cannot scan as a frame — tests/test_record_logs.py), so a
    # whole frame is refused up front instead of being clamped.
    with pytest.raises(ValueError):
        CrashingStore(DocumentStore(),
                      [{"after_bulks": 1, "torn_frac": 1.0}])


# ----------------------------------------------------------------------
# Corpus regression suite

def _corpus_files():
    return sorted(CORPUS_DIR.glob("*.json"))


def test_corpus_is_populated():
    assert len(_corpus_files()) >= 3


@pytest.mark.parametrize("path", _corpus_files(),
                         ids=lambda p: p.stem)
def test_corpus_scenario_replays_clean(path):
    scenario = Scenario.load(path)
    result = run_scenario(scenario)
    assert result.failures == []
