"""Edge cases for the renderers and the session comparator.

The DST dashboards render whatever a scenario produced — including
nothing at all, a single bucket, or unicode paths — so the renderers
and :mod:`repro.analysis.compare` must behave on degenerate inputs,
not just on the happy paths the figure tests exercise.
"""

from repro.analysis.compare import (compare_sessions, session_fingerprint)
from repro.backend import DocumentStore
from repro.visualizer.render import (render_histogram, render_sparkline_grid,
                                     render_table, render_timeseries,
                                     sparkline)

UNICODE_PATH = "/data/журнал-日誌.log"


# ----------------------------------------------------------------------
# Renderers

def test_histogram_empty():
    assert render_histogram([]) == "(no data)"


def test_histogram_single_bucket():
    out = render_histogram([(UNICODE_PATH, 3)])
    assert UNICODE_PATH in out
    assert "###" not in out.split(UNICODE_PATH)[0]
    assert "#" in out


def test_histogram_all_zero_counts():
    out = render_histogram([("a", 0), ("b", 0)])
    # No division-by-zero; zero rows render without bars.
    assert "#" not in out


def test_table_empty_rows():
    out = render_table(("col", "другой"), [])
    lines = out.split("\n")
    assert len(lines) == 2  # header + rule, no data rows
    assert "другой" in lines[0]


def test_table_row_wider_than_headers():
    out = render_table(("a",), [("x", "overflow")])
    assert "x" in out


def test_sparkline_empty_and_flat():
    assert sparkline([]) == ""
    flat = sparkline([0, 0, 0])
    assert len(flat) == 3


def test_sparkline_grid_empty_windows():
    assert render_sparkline_grid([], {"t": {0: 1.0}}) == "(no data)"


def test_sparkline_grid_single_window():
    out = render_sparkline_grid([0], {"поток": {0: 5.0}})
    assert "поток" in out
    assert "(5)" in out


def test_timeseries_empty_and_single_point():
    assert render_timeseries([]) == "(no data)"
    out = render_timeseries([(100, 1.0)])
    assert "t: 100 .. 100" in out


def test_timeseries_all_zero():
    out = render_timeseries([(0, 0.0), (1, 0.0)])
    assert "max=" in out


# ----------------------------------------------------------------------
# Session comparison

def _store_with(events_by_session: dict) -> DocumentStore:
    store = DocumentStore()
    store.ensure_index("dio_trace",
                       indexed_fields=("syscall", "session", "time",
                                       "proc_name"))
    for session, events in events_by_session.items():
        docs = [dict(event, session=session) for event in events]
        if docs:
            store.bulk("dio_trace", docs)
    return store


def _event(i, syscall="write", ret=64, proc="w", **extra):
    return dict({"syscall": syscall, "ret": ret, "proc_name": proc,
                 "pid": 1, "tid": 1, "time": 1000 + i * 10}, **extra)


def test_fingerprint_of_empty_session():
    store = _store_with({"real": [_event(0)]})
    fp = session_fingerprint(store, "ghost")
    assert fp["events"] == 0
    assert fp["by_syscall"] == {}
    assert fp["failed_syscalls"] == 0


def test_compare_empty_vs_empty_is_identical():
    store = _store_with({"real": [_event(0)]})
    comparison = compare_sessions(store, "ghost-a", "ghost-b")
    assert comparison.behaviorally_identical
    assert comparison.common_prefix == 0
    assert comparison.syscall_deltas == {}


def test_compare_empty_vs_nonempty_diverges_at_zero():
    store = _store_with({"real": [_event(0)]})
    comparison = compare_sessions(store, "ghost", "real")
    assert not comparison.behaviorally_identical
    assert comparison.divergence.position == 0
    assert comparison.divergence.event_a is None
    assert "(sequence ended)" in comparison.divergence.describe()


def test_compare_single_event_sessions():
    store = _store_with({
        "a": [_event(0, ret=64)],
        "b": [_event(0, ret=-5)],
    })
    comparison = compare_sessions(store, "a", "b")
    assert not comparison.behaviorally_identical
    assert comparison.common_prefix == 0
    assert comparison.syscall_deltas == {}  # same mix, different rets


def test_compare_unicode_paths_in_divergence():
    store = _store_with({
        "a": [_event(0, syscall="open",
                     args={"path": UNICODE_PATH}, offset=None)],
        "b": [_event(0, syscall="unlink",
                     args={"path": UNICODE_PATH}, offset=None)],
    })
    comparison = compare_sessions(store, "a", "b")
    assert not comparison.behaviorally_identical
    # describe() renders cleanly with unicode args present.
    assert "open" in comparison.divergence.describe()


def test_compare_renamed_processes_still_align():
    store = _store_with({
        "a": [_event(i, proc="fluent-bit") for i in range(3)],
        "b": [_event(i, proc="flb-pipeline") for i in range(3)],
    })
    comparison = compare_sessions(store, "a", "b")
    assert comparison.behaviorally_identical
