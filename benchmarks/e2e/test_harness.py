"""Tests of the benchmark harness itself.

``python -m pytest benchmarks/e2e -q`` — smoke sizes, under a minute.
They hold the contract file, the metric table and what ``run.py``
prints in step, and prove that the checker checks: a store that
returns one wrong count must show up in ``failed``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import core  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
ROW = re.compile(r"^  (?P<name>[A-Za-z0-9_.-]+)\s+(?P<value>[-\d.,]+) "
                 r"(?P<unit>\S+)$")


def cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args], cwd=cwd,
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONHASHSEED="0"))


SMOKE = ("--seed", "11", "--seconds", "0.2", "--smoke")


@pytest.fixture(scope="module")
def smoke_runs() -> dict:
    """Per workload: one untraced and one traced smoke run's output."""
    runs = {}
    for workload in core.MODULES:
        outputs = [cli("--workload", workload, *SMOKE, "--trace", trace)
                   for trace in "01"]
        for output in outputs:
            assert output.returncode == 0, output.stderr
        runs[workload] = [o.stdout.splitlines() for o in outputs]
    return runs


@pytest.fixture(scope="module")
def all_workloads(tmp_path_factory) -> tuple[Path, list[str]]:
    """The analyst's one command at smoke sizes: the result file it
    wrote and the lines it printed."""
    out = tmp_path_factory.mktemp("all") / "results.json"
    done = cli(*SMOKE, "--traced", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return out, done.stdout.splitlines()


def printed(lines: list[str]) -> dict[str, str]:
    """``metric name -> unit`` of the human-readable rows."""
    return {m["name"]: m["unit"] for m in map(ROW.match, lines) if m}


def last_line(lines: list[str]) -> dict:
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# The contract file

def test_contract_schema():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert CONTRACT["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(CONTRACT["run_seconds"], int)
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in CONTRACT[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_contract_is_the_metric_table():
    assert [(w["name"], w["why"]) for w in CONTRACT["workloads"]] == [
        (module.NAME, module.WHY) for module in core.MODULES.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in CONTRACT["end_to_end"]] == [
        (m.name, m.unit, m.better, metrics.DRIVER_BOUND.get(m.name, m.bound))
        for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in CONTRACT["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER]
    assert set(metrics.WORKLOADS.values()) == set(core.MODULES)


# ----------------------------------------------------------------------
# What run.py prints

def test_every_declared_metric_is_printed_and_vice_versa(smoke_runs):
    declared = {m.name: m.unit for m in metrics.END_TO_END + metrics.PER_LAYER}
    seen: dict[str, str] = {}
    for workload, (untraced, traced) in smoke_runs.items():
        rows = printed(untraced) | printed(traced)
        expected = {m.name for m in metrics.END_TO_END + metrics.PER_LAYER
                    if metrics.applies(m, workload)}
        assert set(rows) == expected, workload
        seen |= rows
    assert seen == declared


def test_driver_line_has_exactly_the_declared_metrics(smoke_runs):
    for workload, (untraced, traced) in smoke_runs.items():
        for lines, declared in ((untraced, metrics.END_TO_END),
                                (traced, metrics.PER_LAYER)):
            line = last_line(lines)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["failed"] == 0
            assert line["attempted"] >= 1
            assert {name: m["unit"] for name, m in line["metrics"].items()} \
                == {m.name: m.unit for m in declared}
        assert all(m["value"] > 0
                   for m in last_line(untraced)["metrics"].values())


def test_all_workloads_mode(all_workloads):
    out, lines = all_workloads
    report = json.loads(out.read_text(encoding="utf-8"))
    assert set(report["environment"]) == {"nproc", "python", "platform",
                                          "commit"}
    assert (report["seed"], report["smoke"]) == (11, True)
    assert list(report["workloads"]) == list(core.MODULES)
    for workload, entry in report["workloads"].items():
        assert entry["failed"] == 0 and entry["attempted"] > 0, workload
        expected = {m.name for m in metrics.END_TO_END + metrics.PHASE
                    if metrics.applies(m, workload)}
        assert expected <= set(entry["metrics"]), workload
        for name, row in entry["metrics"].items():
            assert len(row["values"]) == run.RUNS, (workload, name)
            assert row["min"] <= row["median"] <= row["max"]
        assert {m.name for m in metrics.LAYERS
                if metrics.applies(m, workload)} <= (
            set(entry["layers"]) | set(entry["metrics"]))
        assert entry["budget"], workload
    # Printed as it was written: the median with min, max and n.
    assert sum(f"n {run.RUNS}" in line for line in lines) == sum(
        len(entry["metrics"]) for entry in report["workloads"].values())
    # A result file agrees with itself.
    assert run.compare(str(out), str(out)) == 0


def test_exact_metrics_repeat_bit_for_bit(smoke_runs, all_workloads):
    """Two separate traced runs of one seed: the driver-mode one and
    the all-workloads mode's child."""
    report = json.loads(all_workloads[0].read_text(encoding="utf-8"))
    for workload, (_, traced) in smoke_runs.items():
        first = last_line(traced)["metrics"]
        second = report["workloads"][workload]["layers"]
        exact = [m.name for m in metrics.PER_LAYER
                 if m.exact and m.name in second]
        assert exact, workload
        assert {n: first[n]["value"] for n in exact} \
            == {n: second[n]["value"] for n in exact}, workload
        for name, row in report["workloads"][workload]["metrics"].items():
            if metrics.BY_NAME[name].exact:
                assert len(set(row["values"])) == 1, (workload, name)


def test_budget_closes(smoke_runs):
    for workload, (_, traced) in smoke_runs.items():
        layers = last_line(traced)["metrics"]
        assert (layers["harness.unattributed_ratio"]["value"]
                <= metrics.MAX_UNATTRIBUTED), workload
        assert layers["harness.trace_overhead_ratio"]["value"] > 0


# ----------------------------------------------------------------------
# The checker checks

class WrongCount:
    """A store that answers one ``count`` request off by one."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.lied = False

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def count(self, *args, **kwargs):
        answer = self.inner.count(*args, **kwargs)
        if not self.lied:
            self.lied = True
            return answer + 1
        return answer


def test_one_wrong_count_raises_failed_ratio(tmp_path):
    honest = core.run_workload("dashboard_serve", 11, 0.1, False, "smoke",
                               tmp_path / "honest")
    assert honest["failed"] == 0 and honest["extra"]["failed_ratio"] == 0
    lied = core.run_workload("dashboard_serve", 11, 0.1, False, "smoke",
                             tmp_path / "lied", tamper=WrongCount)
    assert lied["correct"] is False
    assert lied["failed"] == len(lied["passes"])    # one lie per pass
    assert lied["extra"]["failed_ratio"] > 0
    assert any("term_count" in note for note in lied["notes"])


def test_empty_checkout_exits_non_zero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    result = cli("--workload", "ingest_replay", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


# ----------------------------------------------------------------------
# run.py --compare

def result_file(path: Path, wall: list[float] | None, disk: float = 15.5,
                produced: int = 100) -> str:
    def entry(values, unit):
        ordered = sorted(values)
        return {"unit": unit, "median": ordered[len(ordered) // 2],
                "min": ordered[0], "max": ordered[-1], "values": values}
    reported = {"disk_bytes_per_event": entry([disk] * 3, "B")}
    if wall is not None:
        reported["wall_s"] = entry(wall, "s")
        reported["events_per_s"] = entry([1000 / w for w in wall],
                                         "events/s")
    path.write_text(json.dumps({"workloads": {"rocksdb_e2e": {
        "metrics": reported,
        "layers": {"ebpf.ring_produced": {"unit": "count", "exact": True,
                                          "value": produced}},
    }}}), encoding="utf-8")
    return str(path)


def test_compare(tmp_path, capsys):
    base = result_file(tmp_path / "a.json", [10.0, 10.1, 10.2])
    same = result_file(tmp_path / "b.json", [10.3, 10.2, 10.4])
    slower = result_file(tmp_path / "c.json", [13.5, 13.6, 13.7])
    noisy = result_file(tmp_path / "d.json", [8.0, 11.5, 13.0])
    bigger = result_file(tmp_path / "e.json", [10.0, 10.1, 10.2], disk=15.6)
    lossy = result_file(tmp_path / "f.json", [10.0, 10.1, 10.2], produced=99)
    silent = result_file(tmp_path / "g.json", None)

    def statuses(a: str, b: str) -> tuple[int, dict[str, str]]:
        """Exit code and ``metric -> status`` of one comparison."""
        code = run.compare(a, b)
        rows = [line.split() for line in capsys.readouterr().out.splitlines()
                if line.startswith("rocksdb_e2e")]
        return code, {row[1]: row[-1] for row in rows}

    # wall_s is lower-is-better, events_per_s higher-is-better.
    assert statuses(base, same) == (0, {
        "wall_s": "ok", "events_per_s": "ok", "disk_bytes_per_event": "ok"})
    assert statuses(base, slower) == (1, {
        "wall_s": "regression", "events_per_s": "regression",
        "disk_bytes_per_event": "ok"})
    assert statuses(base, noisy) == (0, {
        "wall_s": "unresolved", "events_per_s": "unresolved",
        "disk_bytes_per_event": "ok"})
    # Spread wider than the bound, but every run of one side is faster.
    faster = result_file(tmp_path / "h.json", [7.0, 9.9, 8.0])
    assert statuses(base, faster) == (0, {
        "wall_s": "better", "events_per_s": "better",
        "disk_bytes_per_event": "ok"})
    assert statuses(faster, base) == (0, {
        "wall_s": "unresolved", "events_per_s": "unresolved",
        "disk_bytes_per_event": "ok"})
    assert run.compare(base, bigger) == 1       # exact: any change counts
    assert run.compare(base, lossy) == 1
    assert "exact metric differs" in capsys.readouterr().out
    assert run.compare(base, silent) == 1       # a gate no longer reported
    assert "wall_s                 missing from B" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The harness stays outside the program

def test_no_legacy_knob_oracle_or_private_attribute():
    knobs = "|".join(f"{axis}_mode" for axis in
                     ("plan", "agg", "ingest", "storage"))
    pattern = re.compile(knobs + r"|backend\.naive|\._[a-z]")
    for path in sorted(HERE.glob("*.py")):
        for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1):
            assert not pattern.search(line), f"{path.name}:{number}: {line}"
