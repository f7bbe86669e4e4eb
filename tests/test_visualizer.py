"""Tests for text rendering and the predefined DIO dashboards."""

from repro.backend import DocumentStore
from repro.visualizer import (DIODashboards, render_histogram,
                              render_sparkline_grid, render_table,
                              render_timeseries)
from repro.visualizer.render import sparkline

MS = 1_000_000


class TestRenderTable:
    def test_alignment_and_header_rule(self):
        text = render_table(["a", "long_header"], [[1, "x"], [22, "yy"]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4
        # Columns align: every row has the second column at same position.
        position = lines[0].index("long_header")
        assert lines[2][position] == "x"

    def test_truncates_wide_cells(self):
        text = render_table(["c"], [["z" * 100]], max_col_width=10)
        assert "z" * 11 not in text

    def test_none_rendered_empty(self):
        text = render_table(["c", "d"], [[None, 1]])
        assert text.splitlines()[2].strip().startswith("1") or "1" in text


class TestCharts:
    def test_histogram_scales_bars(self):
        text = render_histogram([("a", 100), ("b", 50), ("c", 0)], width=20)
        lines = text.splitlines()
        assert lines[0].count("#") == 20
        assert lines[1].count("#") == 10
        assert lines[2].count("#") == 0

    def test_histogram_empty(self):
        assert render_histogram([]) == "(no data)"

    def test_sparkline_levels(self):
        line = sparkline([0, 1, 4, 8], maximum=8)
        assert len(line) == 4
        assert line[0] == " "
        assert line[3] == "█"

    def test_sparkline_grid_shared_scale(self):
        text = render_sparkline_grid(
            [0, 10], {"hot": {0: 100, 10: 100}, "cold": {0: 1}})
        lines = dict(line.split(" ", 1) for line in text.splitlines())
        assert "█" in lines["hot"]
        assert "█" not in lines["cold"]
        assert "(101)" not in text  # totals are per row
        assert "(200)" in text
        assert "(1)" in text

    def test_timeseries_has_peak_column(self):
        text = render_timeseries([(0, 1.0), (1, 10.0), (2, 2.0)], height=5)
        assert "max=10" in text
        assert "█" in text

    def test_timeseries_empty(self):
        assert render_timeseries([]) == "(no data)"


def seeded_dashboards():
    store = DocumentStore()
    store.bulk("dio_trace", [
        {"syscall": "openat", "proc_name": "app", "pid": 1, "tid": 1,
         "ret": 3, "time": 0, "file_tag": "7 12 0", "session": "s1",
         "args": {"path": "/app.log"}},
        {"syscall": "write", "proc_name": "app", "pid": 1, "tid": 1,
         "ret": 26, "time": 1 * MS, "file_tag": "7 12 0", "offset": 0,
         "session": "s1"},
        {"syscall": "read", "proc_name": "fluent-bit", "pid": 2, "tid": 2,
         "ret": 26, "time": 2 * MS, "file_tag": "7 12 0", "offset": 0,
         "session": "s1"},
        {"syscall": "read", "proc_name": "other-session", "pid": 9, "tid": 9,
         "ret": 1, "time": 3 * MS, "session": "s2"},
    ])
    return store, DIODashboards(store, "dio_trace", session="s1")


class TestDashboards:
    def test_file_access_table_fig2_columns(self):
        _, dash = seeded_dashboards()
        text = dash.file_access_table()
        assert "proc_name" in text
        assert "file_tag" in text
        assert "offset" in text
        assert "fluent-bit" in text
        assert "7 12 0" in text

    def test_session_scoping_excludes_other_sessions(self):
        _, dash = seeded_dashboards()
        assert "other-session" not in dash.file_access_table()

    def test_proc_and_syscall_filters(self):
        _, dash = seeded_dashboards()
        rows = dash.file_access_rows(procs=["app"], syscalls=["write"])
        assert len(rows) == 1
        assert rows[0]["syscall"] == "write"

    def test_rows_sorted_by_time(self):
        _, dash = seeded_dashboards()
        times = [r["time"] for r in dash.file_access_rows()]
        assert times == sorted(times)

    def test_syscalls_over_time_chart(self):
        _, dash = seeded_dashboards()
        text = dash.syscalls_over_time_chart(window_ns=MS)
        assert "app" in text
        assert "fluent-bit" in text
        assert "aggregated by thread name" in text

    def test_latency_timeline(self):
        operations = [(i * MS, 100_000 + (i % 3) * 50_000, "read", 1)
                      for i in range(30)]
        text = DIODashboards.latency_timeline(operations, window_ns=5 * MS)
        assert "p99" in text
        assert "█" in text

    def test_summaries(self):
        _, dash = seeded_dashboards()
        syscall_text = dash.syscall_summary()
        assert "read" in syscall_text
        proc_text = dash.process_summary()
        assert "fluent-bit" in proc_text
