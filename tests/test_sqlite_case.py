"""Tests for the MiniSQLite application and its DIO case study."""

import pytest

from repro.analysis import diagnose_session
from repro.analysis.detectors import (FailedSyscallDetector,
                                      ShortLivedFileDetector)
from repro.apps.sqlitedb import (JOURNAL_DELETE, JOURNAL_WAL, MiniSQLite,
                                 PAGE_SIZE)
from repro.experiments.sqlite_case import run_both_modes, run_sqlite_case
from repro.kernel import Kernel
from repro.sim import Environment


def make_db(mode, **kwargs):
    env = Environment()
    kernel = Kernel(env, ncpus=2)
    task = kernel.spawn_process("sqlite-app").threads[0]
    db = MiniSQLite(kernel, "/test.db", journal_mode=mode, **kwargs)
    return env, kernel, task, db


def run(env, gen):
    return env.run(until=env.process(gen))


class TestDeleteJournalMode:
    def test_journal_created_and_deleted_per_transaction(self):
        env, kernel, task, db = make_db(JOURNAL_DELETE)

        def scenario():
            yield from db.open(task)
            for i in range(5):
                yield from db.write_transaction(task, [i, i + 1])
                # Journal must be gone after each commit.
                assert kernel.vfs.lookup("/test.db-journal") is None
            yield from db.close(task)

        run(env, scenario())
        assert db.stats.journals_created == 5
        assert db.stats.journals_deleted == 5
        assert db.stats.transactions == 5

    def test_two_fsyncs_per_transaction(self):
        env, kernel, task, db = make_db(JOURNAL_DELETE)

        def scenario():
            yield from db.open(task)
            for i in range(4):
                yield from db.write_transaction(task, [i])
            yield from db.close(task)

        run(env, scenario())
        assert db.stats.fsyncs == 8

    def test_pages_written_to_db_file(self):
        env, kernel, task, db = make_db(JOURNAL_DELETE)

        def scenario():
            yield from db.open(task)
            yield from db.write_transaction(task, [0, 2])
            yield from db.close(task)

        run(env, scenario())
        inode = kernel.vfs.resolve("/test.db")
        assert inode.size >= 3 * PAGE_SIZE
        assert inode.read_bytes(2 * PAGE_SIZE, PAGE_SIZE) == \
            b"\x42" * PAGE_SIZE

    def test_empty_transaction_is_noop(self):
        env, kernel, task, db = make_db(JOURNAL_DELETE)

        def scenario():
            yield from db.open(task)
            yield from db.write_transaction(task, [])
            yield from db.close(task)

        run(env, scenario())
        assert db.stats.transactions == 0
        assert db.stats.fsyncs == 0


class TestWALMode:
    def test_one_fsync_per_transaction_until_checkpoint(self):
        env, kernel, task, db = make_db(JOURNAL_WAL,
                                        wal_checkpoint_pages=1000)

        def scenario():
            yield from db.open(task)
            for i in range(4):
                yield from db.write_transaction(task, [i])

        run(env, scenario())
        assert db.stats.fsyncs == 4
        assert db.stats.journals_created == 0

    def test_checkpoint_truncates_wal(self):
        env, kernel, task, db = make_db(JOURNAL_WAL, wal_checkpoint_pages=4)

        def scenario():
            yield from db.open(task)
            for i in range(6):
                yield from db.write_transaction(task, [i])
            yield from db.close(task)

        run(env, scenario())
        assert db.stats.checkpoints >= 1
        assert kernel.vfs.resolve("/test.db-wal").size == 0

    def test_close_checkpoints_pending_frames(self):
        env, kernel, task, db = make_db(JOURNAL_WAL,
                                        wal_checkpoint_pages=1000)

        def scenario():
            yield from db.open(task)
            yield from db.write_transaction(task, [1, 2, 3])
            yield from db.close(task)

        run(env, scenario())
        assert db.stats.checkpoints == 1

    def test_checkpoint_in_delete_mode_rejected(self):
        env, kernel, task, db = make_db(JOURNAL_DELETE)

        def scenario():
            yield from db.open(task)
            with pytest.raises(RuntimeError):
                yield from db.checkpoint(task)

        run(env, scenario())

    def test_unknown_mode_rejected(self):
        env = Environment()
        kernel = Kernel(env)
        with pytest.raises(ValueError):
            MiniSQLite(kernel, "/x.db", journal_mode="truncate")


@pytest.fixture(scope="module")
def case_study():
    return run_both_modes(transactions=60)


class TestCaseStudy:
    def test_wal_commits_faster(self, case_study):
        delete = case_study[JOURNAL_DELETE]
        wal = case_study[JOURNAL_WAL]
        assert wal.mean_commit_ns < delete.mean_commit_ns * 0.7

    def test_detectors_flag_journal_churn_in_delete_mode(self, case_study):
        delete = case_study[JOURNAL_DELETE]
        findings = ShortLivedFileDetector(min_bytes=PAGE_SIZE,
                                          min_files=1).run(
            delete.store, "dio_trace", delete.session)
        assert findings, "expected short-lived journal churn finding"

    def test_wal_mode_clean_of_churn(self, case_study):
        wal = case_study[JOURNAL_WAL]
        findings = ShortLivedFileDetector(min_bytes=PAGE_SIZE,
                                          min_files=1).run(
            wal.store, "dio_trace", wal.session)
        assert findings == []

    def test_trace_shows_journal_lifecycle(self, case_study):
        delete = case_study[JOURNAL_DELETE]
        unlinks = delete.store.count("dio_trace", {"bool": {"must": [
            {"term": {"syscall": "unlink"}},
            {"term": {"session": delete.session}},
        ]}})
        assert unlinks == 60

    def test_fsync_count_visible_in_trace(self, case_study):
        delete = case_study[JOURNAL_DELETE]
        wal = case_study[JOURNAL_WAL]

        def fsyncs(case):
            return case.store.count("dio_trace", {"bool": {"must": [
                {"term": {"syscall": "fsync"}},
                {"term": {"session": case.session}},
            ]}})

        assert fsyncs(delete) > fsyncs(wal) * 1.5

    def test_no_critical_findings_either_mode(self, case_study):
        for case in case_study.values():
            report = diagnose_session(case.store, case.session)
            assert all(r.finding.severity != "critical"
                       for r in report.findings)
