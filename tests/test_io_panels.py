"""Tests for the per-process I/O panel."""

import pytest

from repro.backend import DocumentStore
from repro.visualizer import DIODashboards, load_predefined


@pytest.fixture()
def traced_store():
    store = DocumentStore()
    store.bulk("dio_trace", [
        {"syscall": "read", "proc_name": "reader", "pid": 1, "tid": 1,
         "ret": 4096, "time": 1, "session": "s"},
        {"syscall": "read", "proc_name": "reader", "pid": 1, "tid": 1,
         "ret": 4096, "time": 2, "session": "s"},
        {"syscall": "write", "proc_name": "writer", "pid": 2, "tid": 2,
         "ret": 100_000, "time": 3, "session": "s"},
        {"syscall": "write", "proc_name": "writer", "pid": 2, "tid": 2,
         "ret": -9, "time": 4, "session": "s"},     # failed: not counted
        {"syscall": "fsync", "proc_name": "writer", "pid": 2, "tid": 2,
         "ret": 0, "time": 5, "session": "s"},      # not a data syscall
    ])
    return store


class TestProcessIOPanel:
    def test_rows_aggregate_bytes_and_counts(self, traced_store):
        dash = DIODashboards(traced_store, session="s")
        rows = {r["proc_name"]: r for r in dash.process_io_rows()}
        assert rows["reader"]["read_syscalls"] == 2
        assert rows["reader"]["read_bytes"] == 8192
        assert rows["reader"]["write_bytes"] == 0
        assert rows["writer"]["write_syscalls"] == 1
        assert rows["writer"]["write_bytes"] == 100_000

    def test_sorted_by_total_bytes(self, traced_store):
        dash = DIODashboards(traced_store, session="s")
        names = [r["proc_name"] for r in dash.process_io_rows()]
        assert names == ["writer", "reader"]

    def test_rendered_table(self, traced_store):
        dash = DIODashboards(traced_store, session="s")
        text = dash.process_io_table()
        assert "bytes written" in text
        assert "100,000" in text

    def test_overview_dashboard_includes_panel(self, traced_store):
        text = load_predefined("overview").render(traced_store, session="s")
        assert "I/O per process" in text

    def test_process_io_panel_in_custom_spec(self, traced_store):
        from repro.visualizer import Dashboard

        dashboard = Dashboard.from_spec({
            "name": "io", "title": "io", "panels": [{"type": "process_io"}]})
        assert "reader" in dashboard.render(traced_store, session="s")
