"""The benchmark baseline loader must fail loudly, never silently.

``benchmarks/_baseline.py`` guards the ``BENCH_*.json`` trajectory
files: a malformed baseline must abort the job with a clear message
instead of silently restarting the perf history (the regression this
suite pins down).  The module lives outside the installed package, so
it is loaded by path here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_MODULE_PATH = (Path(__file__).resolve().parent.parent
                / "benchmarks" / "_baseline.py")


@pytest.fixture(scope="module")
def baseline():
    spec = importlib.util.spec_from_file_location("_baseline",
                                                  _MODULE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_missing_baseline_starts_fresh(baseline, tmp_path):
    assert baseline.load_trajectory(tmp_path / "BENCH_x.json") == []


def test_malformed_json_fails_loudly(baseline, tmp_path):
    path = tmp_path / "BENCH_x.json"
    path.write_text('[{"run": 1}', encoding="utf-8")  # truncated
    with pytest.raises(baseline.BaselineError) as excinfo:
        baseline.load_trajectory(path)
    message = str(excinfo.value)
    assert "BENCH_x.json" in message
    assert "refusing to overwrite" in message


def test_non_list_baseline_fails_loudly(baseline, tmp_path):
    path = tmp_path / "BENCH_x.json"
    path.write_text('{"run": 1}', encoding="utf-8")
    with pytest.raises(baseline.BaselineError) as excinfo:
        baseline.load_trajectory(path)
    assert "JSON list" in str(excinfo.value)


def test_append_preserves_history(baseline, tmp_path):
    path = tmp_path / "BENCH_x.json"
    baseline.append_trajectory(path, {"run": 1})
    baseline.append_trajectory(path, {"run": 2})
    assert json.loads(path.read_text()) == [{"run": 1}, {"run": 2}]


def test_append_refuses_to_clobber_corrupt_baseline(baseline, tmp_path):
    path = tmp_path / "BENCH_x.json"
    path.write_text("not json", encoding="utf-8")
    with pytest.raises(baseline.BaselineError):
        baseline.append_trajectory(path, {"run": 1})
    # The corrupt file is left untouched for forensics.
    assert path.read_text() == "not json"


def test_render_handles_multi_entry_trajectories(baseline, tmp_path):
    path = tmp_path / "BENCH_x.json"
    baseline.append_trajectory(path, {"benchmark": "b", "events": 100,
                                      "speedup": 1.5})
    baseline.append_trajectory(path, {"benchmark": "b", "events": 1000000,
                                      "speedup": 2.25})
    table = baseline.render_trajectory(path)
    lines = table.splitlines()
    assert lines[0].split() == ["run", "benchmark", "events", "speedup"]
    assert len(lines) == 4                       # header + rule + 2 rows
    assert lines[2].split() == ["1", "b", "100", "1.5"]
    assert lines[3].split() == ["2", "b", "1000000", "2.25"]


def test_render_takes_the_union_of_entry_keys(baseline):
    # Benchmarks evolve across PRs: later entries may add columns (the
    # sharding curve) that earlier entries lack, and vice versa.
    table = baseline.render_trajectory([
        {"events": 10, "old_only": 1},
        {"events": 20, "curve": [{"shards": 4, "speedup": 2.1}]},
    ])
    lines = table.splitlines()
    assert lines[0].split() == ["run", "events", "old_only", "curve"]
    assert '[{"shards":4,"speedup":2.1}]' in lines[3]
    assert lines[2].split() == ["1", "10", "1"]  # absent cell stays blank


def test_render_of_missing_or_empty_trajectory(baseline, tmp_path):
    assert baseline.render_trajectory(
        tmp_path / "BENCH_x.json") == "(empty trajectory)"
    assert baseline.render_trajectory([]) == "(empty trajectory)"


def test_render_rejects_non_object_entries(baseline, tmp_path):
    path = tmp_path / "BENCH_x.json"
    path.write_text('[{"run": 1}, 7]', encoding="utf-8")
    with pytest.raises(baseline.BaselineError) as excinfo:
        baseline.render_trajectory(path)
    assert "entry #1" in str(excinfo.value)


def test_repo_baselines_render(baseline):
    # Every checked-in BENCH_*.json must render, whatever its length —
    # appending the 1M-event sharding runs must not break this.
    root = _MODULE_PATH.parent.parent
    for path in sorted(root.glob("BENCH_*.json")):
        table = baseline.render_trajectory(path)
        assert table.splitlines()[0].startswith("run"), path.name


def test_bench_files_use_the_shared_loader():
    bench_dir = _MODULE_PATH.parent
    for name in ("test_storage.py", "test_sharding.py",
                 "test_resilience_pipeline.py"):
        text = (bench_dir / name).read_text(encoding="utf-8")
        assert "from _baseline import append_trajectory" in text, name
