"""Crash-recovery behaviour of the persistence layers.

Unit-level counterparts to the DST harness's torn-file checks: the
spill WAL (:mod:`repro.tracer.spill`) and the session files
(:mod:`repro.backend.persistence`) must survive truncation at
arbitrary byte boundaries, duplicate replay, and corrupt headers —
keeping every complete record before the tear.  What any cut or bit
flip does to a framed log is one property over all four logs in
``tests/test_record_logs.py``; the spill tests here pin what is the
spill WAL's own (``seq`` de-duplication, a usable WAL after garbage).
"""

import json

import pytest

from repro.backend import DocumentStore
from repro.backend.persistence import (SessionError, export_session,
                                       import_session, recover_session)
from repro.backend.wal import scan_frames
from repro.dst import Scenario, generate
from repro.dst.crash import JOURNAL_MAGIC
from repro.dst.runner import execute_pipeline
from repro.tracer.spill import SPILL_MAGIC, SpillWAL

# ----------------------------------------------------------------------
# Spill WAL durability


def _wal_with_segments(count: int = 2) -> SpillWAL:
    wal = SpillWAL()
    wal.append([{"syscall": "write", "tid": 1, "time": 10}], now_ns=100)
    if count > 1:
        wal.append([{"syscall": "read", "tid": 2, "time": 20},
                    {"syscall": "close", "tid": 2, "time": 30}],
                   now_ns=200, reason="breaker-open")
    return wal


def _first_frame_end() -> int:
    """Where the second segment's frame starts: an append-only image
    grows by whole frames."""
    return len(_wal_with_segments(1).to_bytes())


def test_spill_wal_round_trips():
    wal = _wal_with_segments()
    recovered, report = SpillWAL.recover(wal.to_bytes())
    assert report["header_ok"]
    assert report["segments_recovered"] == 2
    assert report["docs_recovered"] == 3
    assert report["torn_bytes_dropped"] == 0
    assert list(recovered._segments) == list(wal._segments)
    assert [s.reason for s in recovered._segments] == \
        ["retries-exhausted", "breaker-open"]
    # Sequence numbering continues where the old WAL left off.
    assert recovered._next_seq == wal._next_seq


@pytest.mark.parametrize("cut_back", range(1, 40))
def test_spill_wal_survives_any_truncation(cut_back):
    """The last 39 cut points of the image, pinned one by one (the
    shared property in test_record_logs.py samples the rest)."""
    wal = _wal_with_segments()
    blob = wal.to_bytes()
    boundaries = [_first_frame_end(), len(blob)]
    cut = len(blob) - cut_back
    recovered, report = SpillWAL.recover(blob[:cut])
    complete = sum(1 for boundary in boundaries if boundary <= cut)
    # Exactly the frames wholly inside the prefix, never an invention.
    assert list(recovered._segments) == list(wal._segments)[:complete]
    assert report["segments_recovered"] == complete
    if complete:
        assert report["torn_bytes_dropped"] == cut - boundaries[complete - 1]


def test_spill_wal_mid_record_truncation_drops_only_tail():
    blob = _wal_with_segments().to_bytes()
    # Cut into the middle of the second segment's frame.
    cut = (_first_frame_end() + len(blob)) // 2
    recovered, report = SpillWAL.recover(blob[:cut])
    assert report["segments_recovered"] == 1
    assert report["torn_bytes_dropped"] == cut - _first_frame_end()
    assert recovered._segments[0].docs[0]["syscall"] == "write"


def test_spill_wal_duplicate_replay_applies_once():
    blob = _wal_with_segments().to_bytes()
    # A crashed appender may rewrite the last segment on restart.
    doubled = blob + blob[_first_frame_end():]
    recovered, report = SpillWAL.recover(doubled)
    assert report["records_recovered"] == 3
    assert report["segments_recovered"] == 2
    assert report["duplicates_dropped"] == 1
    assert recovered.pending_records == 3
    assert recovered._next_seq == 2


def test_spill_wal_recovers_empty_file():
    recovered, report = SpillWAL.recover(b"")
    assert not report["header_ok"]
    assert recovered.pending_batches == 0
    # The recovered WAL is usable.
    recovered.append([{"x": 1}], now_ns=0)
    assert recovered.pending_records == 1


def test_spill_wal_rejects_corrupt_header():
    wal = _wal_with_segments()
    blob = wal.to_bytes()
    # A foreign magic (here: the store journal's): nothing after it is
    # trusted, however well-framed.
    bad = JOURNAL_MAGIC + blob[len(SPILL_MAGIC):]
    recovered, report = SpillWAL.recover(bad)
    assert not report["header_ok"]
    assert report["torn_bytes_dropped"] == len(bad)
    assert recovered.pending_batches == 0


def test_spill_wal_header_only_garbage():
    recovered, report = SpillWAL.recover(b"\x00\xff garbage \x7f")
    assert not report["header_ok"]
    assert recovered.pending_batches == 0
    recovered.append([{"x": 1}], now_ns=0)
    assert recovered.pending_records == 1


# ----------------------------------------------------------------------
# Session file recovery


def _store_with_session(n: int = 6) -> DocumentStore:
    store = DocumentStore()
    store.ensure_index("dio_trace",
                       indexed_fields=("syscall", "session", "time"))
    docs = [{"syscall": "write", "tid": 7, "time": 100 + i,
             "ret": 64, "pid": 7, "proc_name": "w",
             "session": "cap"} for i in range(n)]
    store.bulk("dio_trace", docs)
    return store


def test_import_session_rejects_corrupt_data_line(tmp_path):
    path = tmp_path / "s.jsonl"
    export_session(_store_with_session(), "cap", path)
    blob = path.read_text(encoding="utf-8")
    lines = blob.rstrip("\n").split("\n")
    lines[3] = lines[3][: len(lines[3]) // 2]  # tear one line mid-record
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    fresh = DocumentStore()
    with pytest.raises(SessionError) as excinfo:
        import_session(fresh, path)
    # The strict importer names the corrupt line instead of leaking a
    # raw JSONDecodeError.
    assert "corrupt data line 4" in str(excinfo.value)


def test_import_session_rejects_non_object_line(tmp_path):
    path = tmp_path / "s.jsonl"
    export_session(_store_with_session(), "cap", path)
    blob = path.read_text(encoding="utf-8")
    lines = blob.rstrip("\n").split("\n")
    lines[2] = "[1, 2, 3]"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SessionError):
        import_session(DocumentStore(), path)


def test_recover_session_tolerates_mid_record_truncation(tmp_path):
    path = tmp_path / "s.jsonl"
    export_session(_store_with_session(6), "cap", path)
    blob = path.read_bytes()
    torn = tmp_path / "torn.jsonl"
    torn.write_bytes(blob[: len(blob) - len(blob) // 4])
    store = DocumentStore()
    report = recover_session(store, torn)
    assert report["header_ok"]
    assert 0 < report["imported"] < 6
    assert report["count_mismatch"]  # header promised 6
    assert store.count("dio_trace") == report["imported"]


def test_recover_session_drops_duplicates_within_file(tmp_path):
    path = tmp_path / "s.jsonl"
    export_session(_store_with_session(4), "cap", path)
    lines = path.read_text(encoding="utf-8").rstrip("\n").split("\n")
    doubled = "\n".join([lines[0]] + lines[1:] + lines[1:]) + "\n"
    dup = tmp_path / "dup.jsonl"
    dup.write_text(doubled, encoding="utf-8")
    store = DocumentStore()
    report = recover_session(store, dup)
    assert report["imported"] == 4
    assert report["dropped_duplicates"] == 4
    assert store.count("dio_trace") == 4


def test_recover_session_corrupt_header_imports_nothing(tmp_path):
    path = tmp_path / "s.jsonl"
    export_session(_store_with_session(3), "cap", path)
    blob = path.read_text(encoding="utf-8")
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json at all\n" + blob.split("\n", 1)[1],
                   encoding="utf-8")
    store = DocumentStore()
    report = recover_session(store, bad)
    assert not report["header_ok"]
    assert report["imported"] == 0
    # Nothing was imported, so the index was never even created.
    assert "dio_trace" not in store.index_names()


def test_recover_session_empty_file(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    report = recover_session(DocumentStore(), empty)
    assert not report["header_ok"]
    assert report["imported"] == 0


def test_recover_session_rename(tmp_path):
    path = tmp_path / "s.jsonl"
    export_session(_store_with_session(3), "cap", path)
    store = DocumentStore()
    report = recover_session(store, path, rename_to="relabelled")
    assert report["imported"] == 3
    assert store.count("dio_trace",
                       {"term": {"session": "relabelled"}}) == 3


# ----------------------------------------------------------------------
# Consumer kill/restart (driven through the DST runner)


def _crashing_consumer_scenario() -> Scenario:
    from repro.kernel.syscalls import O_CREAT, O_WRONLY

    ops = [{"sc": "open", "p": 0, "fl": O_CREAT | O_WRONLY}]
    ops += [{"sc": "write", "f": 0, "n": 64, "d": 150_000}
            for _ in range(20)]
    ops += [{"sc": "close", "f": 0, "d": 150_000}]
    return Scenario(seed=990002, ncpus=1, batch_size=4,
                    consumer_crashes=[1_000_000],
                    consumer_restart_delay_ns=500_000,
                    processes=[{"name": "w", "traced": True,
                                "ops": ops}])


def test_consumer_kill_and_restart_accounts_for_losses():
    run = execute_pipeline(_crashing_consumer_scenario())
    stats = run.tracer.stats
    produced = run.tracer.ring.stats.produced
    # Whatever was staged at kill time is counted, never silently gone.
    assert stats.shipped + stats.crash_lost == produced
    assert len(run.docs) == stats.shipped
    # The restarted consumer shipped the post-crash events.
    assert stats.shipped > 0


def test_consumer_kill_is_idempotent():
    from repro.backend import DocumentStore as Store
    from repro.kernel.syscalls import Kernel
    from repro.sim import Environment
    from repro.tracer import DIOTracer, TracerConfig

    env = Environment()
    kernel = Kernel(env, ncpus=1)
    tracer = DIOTracer(env, kernel, Store(), TracerConfig())
    tracer.attach()

    def main():
        yield env.timeout(1_000)
        tracer.kill_consumer()
        assert tracer.kill_consumer() == 0  # second kill is a no-op
        tracer.restart_consumer()
        with pytest.raises(RuntimeError):
            tracer.restart_consumer()  # double restart refused
        yield from tracer.shutdown()

    env.run(until=env.process(main()))


def test_dst_seed_with_consumer_and_store_crashes_is_clean():
    # Seed 18 schedules both crash kinds; the full harness (including
    # exactly-once and recovery invariants) must hold.
    scenario = generate(18)
    assert scenario.consumer_crashes and scenario.store_crashes
    run = execute_pipeline(scenario)
    assert run.crashing is not None
    assert run.crashing.rebuilds_consistent


def test_store_wal_contains_exactly_stored_docs():
    scenario = generate(18)
    run = execute_pipeline(scenario)
    payloads, end = scan_frames(run.crashing.journal_bytes(),
                                len(JOURNAL_MAGIC))
    assert end == len(run.crashing.journal_bytes())
    journal_docs = sum(len(json.loads(payload)[1]) for payload in payloads)
    # Every accepted bulk is journaled before being acknowledged.
    assert journal_docs == len(run.docs)
