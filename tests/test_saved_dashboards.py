"""Tests for saved/predefined dashboard specifications."""

import json

import pytest

from repro.backend import DocumentStore
from repro.visualizer import (Dashboard, DashboardError,
                              PREDEFINED_DASHBOARDS, load_predefined)

MS = 1_000_000


@pytest.fixture()
def store():
    store = DocumentStore()
    store.bulk("dio_trace", [
        {"syscall": "openat", "proc_name": "app", "pid": 1, "tid": 1,
         "ret": 3, "time": 0, "session": "s",
         "args": {"path": "/f"}, "file_tag": "7 3 0"},
        {"syscall": "write", "proc_name": "app", "pid": 1, "tid": 1,
         "ret": 100, "time": 1 * MS, "offset": 0, "session": "s",
         "file_tag": "7 3 0", "file_path": "/f"},
        {"syscall": "read", "proc_name": "worker", "pid": 2, "tid": 2,
         "ret": 100, "time": 2 * MS, "offset": 0, "session": "s",
         "file_tag": "7 3 0", "file_path": "/f"},
    ])
    return store


class TestSpecValidation:
    def test_missing_fields(self):
        with pytest.raises(DashboardError):
            Dashboard.from_spec({"name": "x", "panels": []})
        with pytest.raises(DashboardError):
            Dashboard.from_spec({"name": "x", "title": "t", "panels": []})

    def test_unknown_panel_type(self):
        with pytest.raises(DashboardError):
            Dashboard.from_spec({"name": "x", "title": "t",
                                 "panels": [{"type": "piechart"}]})

    def test_heatmap_panel_needs_target(self):
        with pytest.raises(DashboardError):
            Dashboard.from_spec({"name": "x", "title": "t",
                                 "panels": [{"type": "offset_heatmap"}]})

    def test_bad_window(self):
        with pytest.raises(DashboardError):
            Dashboard.from_spec({"name": "x", "title": "t",
                                 "panels": [{"type": "thread_sparklines",
                                             "window_ms": -5}]})

    def test_diagnosis_panel_bad_max_findings(self):
        with pytest.raises(DashboardError):
            Dashboard.from_spec({"name": "x", "title": "t",
                                 "panels": [{"type": "diagnosis",
                                             "max_findings": -1}]})

    def test_invalid_json_string(self):
        with pytest.raises(DashboardError):
            Dashboard.from_spec("{nope")

    def test_json_roundtrip(self):
        spec = PREDEFINED_DASHBOARDS["overview"]
        clone = Dashboard.from_spec(json.dumps(spec))
        assert (clone.name, clone.title, clone.panels) == (
            spec["name"], spec["title"], spec["panels"])


class TestPredefined:
    def test_all_predefined_load(self):
        for name in PREDEFINED_DASHBOARDS:
            assert load_predefined(name).name == name

    def test_unknown_predefined(self):
        with pytest.raises(DashboardError):
            load_predefined("nope")


class TestRendering:
    def test_overview_renders_counts(self, store):
        text = load_predefined("overview").render(store, session="s")
        assert "DIO overview" in text
        assert "write" in text
        assert "worker" in text

    def test_file_access_renders_fig2_table(self, store):
        text = load_predefined("file-access").render(store, session="s")
        assert "file_tag" in text
        assert "7 3 0" in text

    def test_thread_activity_renders_sparklines(self, store):
        text = load_predefined("thread-activity").render(store, session="s")
        assert "app" in text
        assert "aggregated by thread name" in text

    def test_diagnosis_dashboard_renders_report(self, store):
        text = load_predefined("diagnosis").render(store, session="s")
        assert "Automatic diagnosis" in text
        assert "diagnosis for session 's'" in text
        assert "behaviour:" in text

    def test_diagnosis_panel_truncates_findings(self, store):
        dashboard = Dashboard.from_spec({
            "name": "d", "title": "d",
            "panels": [{"type": "diagnosis", "max_findings": 0,
                        "window_events": 2}]})
        text = dashboard.render(store, session="s")
        assert "diagnosis for session 's'" in text

    def test_session_scoping(self, store):
        store.bulk("dio_trace", [
            {"syscall": "read", "proc_name": "other", "pid": 9, "tid": 9,
             "ret": 1, "time": 0, "session": "other-session"}])
        text = load_predefined("overview").render(store, session="s")
        assert "other" not in text
