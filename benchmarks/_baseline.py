"""Shared loader for the ``BENCH_*.json`` trajectory baselines.

Every benchmark appends its run to a repo-root trajectory file so
perf history is held across PRs.  A malformed baseline must fail the
job loudly *before* the benchmark spends minutes running — a corrupt
file that silently started a fresh trajectory would erase the history
the whole scheme exists to keep.

Current baselines (see docs/TESTING.md for the gate each enforces):
``BENCH_resilience.json``, ``BENCH_diagnosis.json``,
``BENCH_storage.json`` (segment-store save, cold start and footprint),
``BENCH_sharding.json`` (scatter-gather scaling curve across shard
counts), and ``BENCH_uring.json`` (io_uring blind spot).

Trajectories are *lists*: every run appends an entry, so a file grows
one row per benchmark invocation.  ``render_trajectory`` turns the
whole history into an aligned text table (run it directly:
``python benchmarks/_baseline.py BENCH_storage.json``) — entries may
have differing keys across PRs as benchmarks evolve; the renderer
takes the union of columns instead of assuming a single entry shape.
"""

import json
from pathlib import Path


class BaselineError(RuntimeError):
    """A ``BENCH_*.json`` baseline exists but cannot be used."""


def load_trajectory(path) -> list:
    """The baseline's entry list; ``[]`` only when the file is absent.

    Raises :class:`BaselineError` on unreadable, non-JSON, or
    non-list content — never silently discards history.
    """
    path = Path(path)
    if not path.exists():
        return []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise BaselineError(
            f"cannot read benchmark baseline {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise BaselineError(
            f"benchmark baseline {path} is not valid JSON ({exc}); "
            f"fix or delete the file — refusing to overwrite "
            f"trajectory history") from exc
    if not isinstance(data, list):
        raise BaselineError(
            f"benchmark baseline {path} must hold a JSON list of "
            f"trajectory entries, found {type(data).__name__}")
    return data


def append_trajectory(path, entry: dict) -> None:
    """Validate the baseline, append ``entry``, write it back."""
    path = Path(path)
    trajectory = load_trajectory(path)
    trajectory.append(entry)
    path.write_text(json.dumps(trajectory, indent=2) + "\n",
                    encoding="utf-8")


def _cell(value) -> str:
    """One table cell; nested structures render as compact JSON so a
    scaling-curve entry stays on its row instead of breaking the grid."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, (dict, list)):
        return json.dumps(value, separators=(",", ":"), sort_keys=True)
    return str(value)


def render_trajectory(source, columns=None) -> str:
    """The whole trajectory as an aligned text table, one row per run.

    ``source`` is a baseline path or an already-loaded entry list.
    Entries appended by different PRs may carry different keys; the
    column set is the union in first-seen order (override with
    ``columns``).  An empty trajectory renders as a one-line notice —
    the old behaviour of assuming exactly one entry is exactly the bug
    this replaces.
    """
    if isinstance(source, (str, Path)):
        entries = load_trajectory(source)
    else:
        entries = list(source)
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise BaselineError(
                f"trajectory entry #{i} is {type(entry).__name__}, "
                f"expected an object")
    if not entries:
        return "(empty trajectory)"
    if columns is None:
        columns = []
        for entry in entries:
            for key in entry:
                if key not in columns:
                    columns.append(key)
    header = ["run", *columns]
    rows = [[str(i + 1), *(_cell(entry.get(col)) for col in columns)]
            for i, entry in enumerate(entries)]
    widths = [max(len(row[i]) for row in [header, *rows])
              for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(header)),
        "  ".join("-" * widths[i] for i in range(len(header))),
    ]
    lines.extend("  ".join(cell.ljust(widths[i])
                           for i, cell in enumerate(row)).rstrip()
                 for row in rows)
    return "\n".join(line.rstrip() for line in lines)


if __name__ == "__main__":
    import sys
    for arg in sys.argv[1:] or sorted(
            str(p) for p in Path(__file__).resolve().parent.parent.glob(
                "BENCH_*.json")):
        print(f"== {arg}")
        print(render_trajectory(arg))
        print()
