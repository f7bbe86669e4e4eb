"""Tests for post-mortem session storage and session comparison."""

import json

import pytest

from repro.analysis.compare import compare_sessions, session_fingerprint
from repro.apps.fluentbit import FLUENTBIT_BUGGY, FLUENTBIT_FIXED
from repro.backend import DocumentStore
from repro.backend.persistence import (SessionError, export_session,
                                       import_session, list_sessions)
from repro.experiments import run_fluentbit_case


def seed_two_sessions(store):
    store.bulk("dio_trace", [
        {"syscall": "openat", "proc_name": "app", "pid": 1, "tid": 1,
         "ret": 3, "time": 10, "session": "s1",
         "args": {"path": "/a"}, "file_tag": "7 3 10"},
        {"syscall": "write", "proc_name": "app", "pid": 1, "tid": 1,
         "ret": 26, "time": 20, "offset": 0, "session": "s1",
         "file_tag": "7 3 10"},
        {"syscall": "openat", "proc_name": "app", "pid": 2, "tid": 2,
         "ret": 3, "time": 15, "session": "s2",
         "args": {"path": "/a"}, "file_tag": "7 3 15"},
        {"syscall": "write", "proc_name": "app", "pid": 2, "tid": 2,
         "ret": 16, "time": 25, "offset": 0, "session": "s2",
         "file_tag": "7 3 15"},
        {"syscall": "close", "proc_name": "app", "pid": 2, "tid": 2,
         "ret": 0, "time": 30, "session": "s2", "file_tag": "7 3 15"},
    ])


class TestSessionListing:
    def test_summaries(self):
        store = DocumentStore()
        seed_two_sessions(store)
        sessions = {s["session"]: s for s in list_sessions(store)}
        assert sessions["s1"]["events"] == 2
        assert sessions["s2"]["events"] == 3
        assert sessions["s1"]["first_ns"] == 10
        assert sessions["s1"]["last_ns"] == 20
        assert sessions["s2"]["processes"] == ["app"]

    def test_missing_index_raises(self):
        with pytest.raises(SessionError):
            list_sessions(DocumentStore(), index="nope")


class TestExportImport:
    def test_roundtrip(self, tmp_path):
        store = DocumentStore()
        seed_two_sessions(store)
        path = tmp_path / "s1.jsonl"
        assert export_session(store, "s1", path) == 2

        fresh = DocumentStore()
        name = import_session(fresh, path)
        assert name == "s1"
        hits = fresh.search("dio_trace", sort=["time"],
                            size=None)["hits"]["hits"]
        assert [h["_source"]["syscall"] for h in hits] == ["openat", "write"]

    def test_roundtrip_preserves_documents_exactly(self, tmp_path):
        """Compact data lines re-import to identical docs."""
        store = DocumentStore()
        seed_two_sessions(store)
        path = tmp_path / "s1.jsonl"
        export_session(store, "s1", path)
        originals = [h["_source"] for h in store.search(
            "dio_trace", query={"term": {"session": "s1"}},
            sort=["time"], size=None)["hits"]["hits"]]

        fresh = DocumentStore()
        import_session(fresh, path)
        reloaded = [h["_source"] for h in fresh.search(
            "dio_trace", sort=["time"], size=None)["hits"]["hits"]]
        assert reloaded == originals

    def test_export_format_compact_data_sorted_header(self, tmp_path):
        """Header keeps sorted keys (stable diffs); data lines are
        compact and keep document key order."""
        store = DocumentStore()
        seed_two_sessions(store)
        path = tmp_path / "s1.jsonl"
        export_session(store, "s1", path)
        header, *data = path.read_text().splitlines()
        assert json.loads(header) == json.loads(
            json.dumps(json.loads(header), sort_keys=True))
        assert list(json.loads(header)) == sorted(json.loads(header))
        for line in data:
            doc = json.loads(line)
            assert line == json.dumps(doc, separators=(",", ":"))

    def test_import_with_rename(self, tmp_path):
        store = DocumentStore()
        seed_two_sessions(store)
        path = tmp_path / "s1.jsonl"
        export_session(store, "s1", path)
        import_session(store, path, rename_to="s1-copy")
        sessions = {s["session"] for s in list_sessions(store)}
        assert "s1-copy" in sessions
        assert store.count("dio_trace", {"term": {"session": "s1-copy"}}) == 2

    def test_export_unknown_session(self, tmp_path):
        store = DocumentStore()
        seed_two_sessions(store)
        with pytest.raises(SessionError):
            export_session(store, "ghost", tmp_path / "x.jsonl")

    def test_import_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(SessionError):
            import_session(DocumentStore(), path)

    def test_import_rejects_truncated_file(self, tmp_path):
        store = DocumentStore()
        seed_two_sessions(store)
        path = tmp_path / "s2.jsonl"
        export_session(store, "s2", path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(SessionError):
            import_session(DocumentStore(), path)


class TestFingerprints:
    def test_fingerprint_fields(self):
        store = DocumentStore()
        seed_two_sessions(store)
        fp = session_fingerprint(store, "s2")
        assert fp["events"] == 3
        assert fp["by_syscall"] == {"openat": 1, "write": 1, "close": 1}
        assert fp["failed_syscalls"] == 0


class TestSessionComparison:
    def test_identical_sessions(self):
        store = DocumentStore()
        seed_two_sessions(store)
        # Compare s1 with a renamed copy of itself.
        import tempfile, pathlib
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "s1.jsonl"
            export_session(store, "s1", path)
            import_session(store, path, rename_to="s1b")
        comparison = compare_sessions(store, "s1", "s1b")
        assert comparison.behaviorally_identical
        assert comparison.syscall_deltas == {}

    def test_divergence_position_and_delta(self):
        store = DocumentStore()
        seed_two_sessions(store)
        comparison = compare_sessions(store, "s1", "s2")
        # Same openat, then write 26 vs write 16 -> diverge at step 1.
        assert comparison.common_prefix == 1
        assert comparison.divergence.position == 1
        assert comparison.divergence.event_a["ret"] == 26
        assert comparison.divergence.event_b["ret"] == 16
        assert comparison.syscall_deltas == {"close": 1}
        assert "write = 26" in comparison.divergence.describe()

    def test_fluentbit_versions_diverge_at_the_stale_lseek(self):
        """The paper's Fig. 2a-vs-2b comparison, automated end to end."""
        store = DocumentStore()
        for version in (FLUENTBIT_BUGGY, FLUENTBIT_FIXED):
            case = run_fluentbit_case(version)
            import tempfile, pathlib
            with tempfile.TemporaryDirectory() as tmp:
                path = pathlib.Path(tmp) / "s.jsonl"
                export_session(case.store, f"fluentbit-{version}", path)
                import_session(store, path)
        comparison = compare_sessions(
            store, f"fluentbit-{FLUENTBIT_BUGGY}",
            f"fluentbit-{FLUENTBIT_FIXED}")
        assert not comparison.behaviorally_identical
        # The buggy trace's divergent event is the stale lseek to 26.
        assert comparison.divergence.event_a["syscall"] == "lseek"
        assert comparison.divergence.event_a["ret"] == 26
        # The fixed trace reads the 16 new bytes at that step instead.
        assert comparison.divergence.event_b["syscall"] == "read"
        assert comparison.divergence.event_b["ret"] == 16
