"""Text rendering primitives for dashboards.

All functions return strings; nothing touches a display.  Numeric
scaling uses eight block glyphs for sparklines and ``#`` bars for
histograms, so output stays readable in any terminal and in test
output.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

#: Eight-level block glyphs for sparklines.
_BLOCKS = " ▁▂▃▄▅▆▇█"


def _stringify(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def render_table(headers: Sequence[str],
                 rows: Iterable[Sequence[Any]],
                 max_col_width: int = 40) -> str:
    """Render an aligned text table with a header rule."""
    rendered_rows = [[_stringify(cell)[:max_col_width] for cell in row]
                     for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))

    def format_row(cells: Sequence[str]) -> str:
        # Cells beyond the header count render unpadded rather than
        # crashing the dashboard on a malformed row.
        return "  ".join(
            cell.ljust(widths[i]) if i < len(widths) else cell
            for i, cell in enumerate(cells)).rstrip()

    lines = [format_row(list(headers)),
             format_row(["-" * w for w in widths])]
    lines.extend(format_row(row) for row in rendered_rows)
    return "\n".join(lines)


def render_histogram(buckets: Iterable[tuple[Any, int]],
                     width: int = 50) -> str:
    """Render ``(label, count)`` buckets as horizontal bars."""
    buckets = list(buckets)
    if not buckets:
        return "(no data)"
    top = max(count for _, count in buckets) or 1
    label_width = max(len(_stringify(label)) for label, _ in buckets)
    lines = []
    for label, count in buckets:
        bar = "#" * max(1 if count else 0, round(count / top * width))
        lines.append(f"{_stringify(label).rjust(label_width)} "
                     f"{str(count).rjust(8)} {bar}")
    return "\n".join(lines)


def sparkline(values: Sequence[float],
              maximum: Optional[float] = None) -> str:
    """One-line block-glyph series scaled to ``maximum``."""
    if not values:
        return ""
    top = maximum if maximum is not None else max(values)
    if top <= 0:
        return _BLOCKS[0] * len(values)
    out = []
    for value in values:
        level = 0 if value <= 0 else max(
            1, min(8, round(value / top * 8)))
        out.append(_BLOCKS[level])
    return "".join(out)


def render_sparkline_grid(windows: Sequence[int],
                          groups: dict[str, dict[int, float]],
                          scale_per_row: bool = False) -> str:
    """The Fig. 4 shape: one sparkline row per group over shared windows.

    ``groups`` maps a row label (e.g. thread name) to ``window -> value``.
    With ``scale_per_row=False`` all rows share one scale, so relative
    magnitudes between threads are comparable.
    """
    if not windows:
        return "(no data)"
    labels = sorted(groups)
    label_width = max((len(label) for label in labels), default=0)
    global_max = max((value for series in groups.values()
                      for value in series.values()), default=0)
    lines = []
    for label in labels:
        series = groups[label]
        values = [series.get(window, 0) for window in windows]
        maximum = max(values) if scale_per_row else global_max
        total = int(sum(values))
        lines.append(f"{label.ljust(label_width)} "
                     f"{sparkline(values, maximum)} ({total})")
    return "\n".join(lines)


def render_timeseries(points: Iterable[tuple[int, float]],
                      height: int = 10, width: int = 72,
                      unit: str = "") -> str:
    """Render an (x, y) series as a fixed-size ASCII chart."""
    points = list(points)
    if not points:
        return "(no data)"
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    top = max(ys) or 1.0
    # Downsample columns to fit the width.
    if len(points) > width:
        step = len(points) / width
        ys = [max(ys[int(i * step):max(int((i + 1) * step), int(i * step) + 1)])
              for i in range(width)]
    columns = len(ys)
    grid = [[" "] * columns for _ in range(height)]
    for col, value in enumerate(ys):
        filled = 0 if value <= 0 else max(1, round(value / top * height))
        for row in range(filled):
            grid[height - 1 - row][col] = "█"
    lines = [f"max={top:.0f}{unit}"]
    lines.extend("".join(row) for row in grid)
    lines.append(f"t: {xs[0]} .. {xs[-1]}")
    return "\n".join(lines)
