"""Tests for the Fluent Bit tail-plugin simulation (§III-B)."""

import pytest

from repro.apps.fluentbit import (FLUENTBIT_BUGGY, FLUENTBIT_FIXED,
                                  FluentBit, OffsetDatabase)
from repro.apps.logger import FIRST_PAYLOAD, SECOND_PAYLOAD, LogWriterApp
from repro.kernel import Kernel
from repro.sim import Environment

SECOND = 1_000_000_000


def run_scenario(version, poll_interval_ns=5 * SECOND):
    env = Environment()
    kernel = Kernel(env, ncpus=2)
    app = LogWriterApp(kernel, path="/app.log",
                       write_delay_ns=10 * SECOND,
                       unlink_delay_ns=10 * SECOND)
    flb = FluentBit(kernel, "/app.log", version=version,
                    poll_interval_ns=poll_interval_ns)
    flb.start()

    def main():
        yield from app.run()
        # Give the tailer time for its final polls.
        yield env.timeout(3 * poll_interval_ns)
        flb.stop()

    env.run(until=env.process(main()))
    return env, kernel, app, flb


class TestOffsetDatabase:
    def test_default_offset_is_zero(self):
        db = OffsetDatabase()
        assert db.get("/f", 12) == 0

    def test_set_get_roundtrip(self):
        db = OffsetDatabase()
        db.set("/f", 12, 26)
        assert db.get("/f", 12) == 26

    def test_entries_keyed_by_name_and_inode(self):
        db = OffsetDatabase()
        db.set("/f", 12, 26)
        assert db.get("/f", 13) == 0
        assert db.get("/g", 12) == 0

    def test_delete_name_removes_all_inodes(self):
        db = OffsetDatabase()
        db.set("/f", 12, 26)
        db.set("/f", 13, 5)
        db.set("/g", 12, 7)
        assert db.delete_name("/f") == 2
        assert (db.get("/f", 12), db.get("/f", 13)) == (0, 0)
        assert db.get("/g", 12) == 7


class TestBuggyVersion:
    def test_first_file_fully_delivered(self):
        _, _, _, flb = run_scenario(FLUENTBIT_BUGGY)
        assert flb.delivered[0][1] == FIRST_PAYLOAD

    def test_second_file_content_lost(self):
        """Issue #1875: the 16 new bytes are never forwarded."""
        _, _, _, flb = run_scenario(FLUENTBIT_BUGGY)
        assert flb.delivered_bytes == len(FIRST_PAYLOAD)
        delivered_payloads = [chunk for _, chunk in flb.delivered]
        assert SECOND_PAYLOAD not in delivered_payloads

    def test_stale_db_entry_survives_unlink(self):
        _, kernel, _, flb = run_scenario(FLUENTBIT_BUGGY)
        ino = kernel.vfs.resolve("/app.log").ino
        # The stale offset (26) is still recorded for the reused inode.
        assert flb.db.get("/app.log", ino) == len(FIRST_PAYLOAD)

    def test_new_file_reuses_inode_number(self):
        env, kernel, app, flb = run_scenario(FLUENTBIT_BUGGY)
        # Precondition of the bug: same inode number for the new file.
        assert kernel.vfs.resolve("/app.log").generation > 1


class TestFixedVersion:
    def test_all_content_delivered(self):
        _, _, _, flb = run_scenario(FLUENTBIT_FIXED)
        payloads = [chunk for _, chunk in flb.delivered]
        assert payloads == [FIRST_PAYLOAD, SECOND_PAYLOAD]
        assert flb.delivered_bytes == len(FIRST_PAYLOAD) + len(SECOND_PAYLOAD)

    def test_db_entry_removed_on_delete(self):
        _, kernel, _, flb = run_scenario(FLUENTBIT_FIXED)
        # Only the live file's entry remains, at its true position.
        ino = kernel.vfs.resolve("/app.log").ino
        assert flb.db.get("/app.log", ino) == len(SECOND_PAYLOAD)

    def test_pipeline_thread_name(self):
        _, _, _, flb = run_scenario(FLUENTBIT_FIXED)
        assert flb.task.comm == "flb-pipeline"
        assert flb.process.name == "fluent-bit"

    def test_buggy_thread_name(self):
        _, _, _, flb = run_scenario(FLUENTBIT_BUGGY)
        assert flb.task.comm == "fluent-bit"


class TestRobustness:
    def test_unknown_version_rejected(self):
        env = Environment()
        kernel = Kernel(env)
        with pytest.raises(ValueError):
            FluentBit(kernel, "/f", version="9.9.9")

    def test_double_start_rejected(self):
        env = Environment()
        kernel = Kernel(env)
        flb = FluentBit(kernel, "/f")
        flb.start()
        with pytest.raises(RuntimeError):
            flb.start()

    def test_poll_with_no_file_is_quiet(self):
        env = Environment()
        kernel = Kernel(env)
        flb = FluentBit(kernel, "/never-created",
                        poll_interval_ns=SECOND)
        flb.start()

        def main():
            yield env.timeout(5 * SECOND)
            flb.stop()

        env.run(until=env.process(main()))
        assert flb.delivered == []

    def test_growing_file_tailed_incrementally(self):
        env = Environment()
        kernel = Kernel(env, ncpus=2)
        app = LogWriterApp(kernel, path="/grow.log")
        flb = FluentBit(kernel, "/grow.log", version=FLUENTBIT_FIXED,
                        poll_interval_ns=SECOND)
        flb.start()

        def producer():
            from repro.kernel import O_APPEND, O_CREAT, O_WRONLY
            fd = yield from kernel.syscall(
                app.task, "open", path="/grow.log",
                flags=O_CREAT | O_WRONLY | O_APPEND)
            for i in range(3):
                yield from kernel.syscall(app.task, "write", fd=fd,
                                          data=f"line{i}\n".encode())
                yield env.timeout(2 * SECOND)
            yield from kernel.syscall(app.task, "close", fd=fd)
            yield env.timeout(2 * SECOND)
            flb.stop()

        env.run(until=env.process(producer()))
        assert flb.delivered_bytes == len(b"line0\nline1\nline2\n")
