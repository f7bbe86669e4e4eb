"""Saved dashboards: declarative, importable panel specifications.

The paper's deployment flow (§II-F) *imports DIO's predefined
dashboards* into the visualization component, after which users can
edit them or build their own.  This module is that mechanism: a
dashboard is a JSON-serializable spec of panels, validated on load and
rendered against any backend/session.

Panel types::

    {"type": "event_table",   "syscalls": [...], "procs": [...]}
    {"type": "syscall_histogram", "size": 20}
    {"type": "process_table"}
    {"type": "thread_sparklines", "window_ms": 100}

The paper's own dashboards ship as :data:`PREDEFINED_DASHBOARDS`.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from repro.backend.store import DocumentStore

from repro.visualizer.dashboards import DIODashboards
from repro.visualizer.render import render_histogram

#: Recognized panel types.
PANEL_TYPES = ("event_table", "syscall_histogram", "process_table",
               "thread_sparklines", "process_io",
               "diagnosis")


class DashboardError(Exception):
    """Malformed dashboard specification."""


class Dashboard:
    """A validated, renderable dashboard."""

    def __init__(self, name: str, title: str, panels: list[dict]):
        self.name = name
        self.title = title
        self.panels = panels

    # ------------------------------------------------------------------
    # Loading

    @classmethod
    def from_spec(cls, spec: dict | str) -> "Dashboard":
        """Validate and load a spec (dict or JSON string)."""
        if isinstance(spec, str):
            try:
                spec = json.loads(spec)
            except json.JSONDecodeError as exc:
                raise DashboardError(f"invalid JSON: {exc}") from exc
        if not isinstance(spec, dict):
            raise DashboardError(f"spec must be an object: {spec!r}")
        for field in ("name", "title", "panels"):
            if field not in spec:
                raise DashboardError(f"spec is missing {field!r}")
        panels = spec["panels"]
        if not isinstance(panels, list) or not panels:
            raise DashboardError("panels must be a non-empty list")
        for panel in panels:
            cls._validate_panel(panel)
        return cls(spec["name"], spec["title"], panels)

    @staticmethod
    def _validate_panel(panel: Any) -> None:
        if not isinstance(panel, dict):
            raise DashboardError(f"panel must be an object: {panel!r}")
        kind = panel.get("type")
        if kind not in PANEL_TYPES:
            raise DashboardError(
                f"unknown panel type {kind!r}; expected one of {PANEL_TYPES}")
        if kind == "thread_sparklines":
            window = panel.get("window_ms", 100)
            if not isinstance(window, (int, float)) or window <= 0:
                raise DashboardError(f"bad window_ms {window!r}")
        if kind == "diagnosis":
            limit = panel.get("max_findings")
            if limit is not None and (not isinstance(limit, int)
                                      or limit < 0):
                raise DashboardError(f"bad max_findings {limit!r}")

    # ------------------------------------------------------------------
    # Rendering

    def render(self, store: DocumentStore, index: str = "dio_trace",
               session: Optional[str] = None) -> str:
        """Render every panel against ``store`` as one text report."""
        dash = DIODashboards(store, index, session=session)
        blocks = [f"==== {self.title} ===="
                  + (f"  (session: {session})" if session else "")]
        for panel in self.panels:
            blocks.append(self._render_panel(panel, dash))
        return "\n\n".join(blocks)

    def _render_panel(self, panel: dict, dash: DIODashboards) -> str:
        kind = panel["type"]
        title = panel.get("title", kind)
        body: str
        if kind == "event_table":
            body = dash.file_access_table(
                procs=panel.get("procs"),
                syscalls=panel.get("syscalls"),
                path=panel.get("path"))
        elif kind == "syscall_histogram":
            response = dash.store.search(
                dash.index, query=dash._base_query(), size=0,
                aggs={"s": {"terms": {"field": "syscall",
                                      "size": panel.get("size", 20)}}})
            buckets = [(b["key"], b["doc_count"])
                       for b in response["aggregations"]["s"]["buckets"]]
            body = render_histogram(buckets)
        elif kind == "process_table":
            body = dash.process_summary()
        elif kind == "process_io":
            body = dash.process_io_table()
        elif kind == "thread_sparklines":
            window_ns = int(panel.get("window_ms", 100) * 1_000_000)
            body = dash.syscalls_over_time_chart(window_ns)
        elif kind == "diagnosis":
            from repro.analysis.diagnose import diagnose_session

            report = diagnose_session(
                dash.store, dash.session, dash.index,
                window_events=panel.get("window_events", 64))
            if panel.get("max_findings") is not None:
                report.findings = report.findings[:panel["max_findings"]]
            body = report.render()
        else:  # pragma: no cover - validated at load time
            raise DashboardError(f"unknown panel type {kind!r}")
        return f"-- {title} --\n{body}"


#: The dashboards DIO ships with (paper §II-F / the figures of §III).
PREDEFINED_DASHBOARDS: dict[str, dict] = {
    "overview": {
        "name": "overview",
        "title": "DIO overview",
        "panels": [
            {"type": "syscall_histogram", "title": "events per syscall"},
            {"type": "process_table", "title": "events per process"},
            {"type": "process_io", "title": "I/O per process"},
        ],
    },
    "file-access": {
        "name": "file-access",
        "title": "File access table (Fig. 2)",
        "panels": [
            {"type": "event_table",
             "title": "storage syscalls by time",
             "syscalls": ["open", "openat", "creat", "read", "write",
                          "close", "unlink", "lseek"]},
        ],
    },
    "thread-activity": {
        "name": "thread-activity",
        "title": "Per-thread syscall activity (Fig. 4)",
        "panels": [
            {"type": "thread_sparklines", "window_ms": 100,
             "title": "syscalls over time by thread"},
        ],
    },
    "diagnosis": {
        "name": "diagnosis",
        "title": "Automatic diagnosis",
        "panels": [
            {"type": "diagnosis",
             "title": "ranked findings, DFG phases, and evidence"},
            {"type": "process_table", "title": "events per process"},
        ],
    },
}


def load_predefined(name: str) -> Dashboard:
    """Load one of DIO's shipped dashboards by name."""
    try:
        return Dashboard.from_spec(PREDEFINED_DASHBOARDS[name])
    except KeyError:
        raise DashboardError(
            f"no predefined dashboard {name!r}; "
            f"available: {sorted(PREDEFINED_DASHBOARDS)}") from None
