"""DIO's visualizer: the Kibana substitute.

Renders the predefined visualizations the paper's figures come from —
tabular file-access views (Fig. 2), per-thread syscall activity over
time (Fig. 4), latency timelines (Fig. 3) — as plain text, plus
generic table/histogram/sparkline primitives for custom dashboards.
"""

from repro.visualizer.render import (render_table, render_histogram,
                                     render_sparkline_grid,
                                     render_timeseries)
from repro.visualizer.dashboards import DIODashboards, SelfMonitoringDashboard
from repro.visualizer.saved import (Dashboard, DashboardError,
                                    PREDEFINED_DASHBOARDS, load_predefined)

__all__ = [
    "render_table",
    "render_histogram",
    "render_sparkline_grid",
    "render_timeseries",
    "DIODashboards",
    "SelfMonitoringDashboard",
    "Dashboard",
    "DashboardError",
    "PREDEFINED_DASHBOARDS",
    "load_predefined",
]
