"""Tests for the ``dio`` command-line interface."""

import pytest

from repro.cli import main


class TestFluentBitCommand:
    def test_buggy_version_reports_loss(self, capsys):
        assert main(["fluentbit", "--version", "1.4.0"]) == 0
        out = capsys.readouterr().out
        assert "data lost      : 16 bytes" in out
        assert "stale-offset resume detected" in out
        assert "lseek" in out

    def test_fixed_version_reports_no_loss(self, capsys):
        assert main(["fluentbit", "--version", "2.0.5"]) == 0
        out = capsys.readouterr().out
        assert "data lost      : 0 bytes" in out
        assert "stale-offset" not in out
        assert "flb-pipeline" in out

    def test_rejects_unknown_version(self):
        with pytest.raises(SystemExit):
            main(["fluentbit", "--version", "3.0.0"])


class TestRocksDBCommand:
    def test_small_run_prints_both_figures(self, capsys):
        assert main(["rocksdb", "--duration", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out
        assert "Fig. 4" in out
        assert "db_bench" in out
        assert "rocksdb:high0" in out
        assert "ring-buffer discards" in out


class TestOverheadCommand:
    def test_prints_table2(self, capsys):
        assert main(["overhead", "--ops", "400"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        for deployment in ("vanilla", "sysdig", "dio", "strace"):
            assert deployment in out
        assert "1.00x" in out


class TestCapabilitiesCommand:
    def test_prints_matrix(self, capsys):
        assert main(["capabilities"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "f_offset" in out
        assert "TA" in out


class TestPostMortemCommands:
    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("traces")
        buggy = base / "buggy.jsonl"
        fixed = base / "fixed.jsonl"
        assert main(["fluentbit", "--version", "1.4.0",
                     "--export", str(buggy)]) == 0
        assert main(["fluentbit", "--version", "2.0.5",
                     "--export", str(fixed)]) == 0
        return buggy, fixed

    def test_export_mentions_file(self, traces, capsys):
        capsys.readouterr()
        assert traces[0].exists()
        assert traces[1].exists()

    def test_sessions_lists_both(self, traces, capsys):
        assert main(["sessions", str(traces[0]), str(traces[1])]) == 0
        out = capsys.readouterr().out
        assert "fluentbit-1.4.0" in out
        assert "fluentbit-2.0.5" in out
        assert "app" in out

    def test_analyze_flags_buggy_with_nonzero_exit(self, traces, capsys):
        assert main(["analyze", str(traces[0])]) == 1
        out = capsys.readouterr().out
        assert "critical" in out
        assert "stale-offset-resume" in out

    def test_analyze_passes_fixed(self, traces, capsys):
        assert main(["analyze", str(traces[1])]) == 0
        out = capsys.readouterr().out
        assert "critical" not in out

    def test_compare_finds_the_divergent_step(self, traces, capsys):
        assert main(["compare", str(traces[0]), str(traces[1])]) == 0
        out = capsys.readouterr().out
        assert "first divergence" in out
        assert "lseek = 26" in out
        assert "read = 16" in out

    def test_dashboard_predefined(self, traces, capsys):
        assert main(["dashboard", str(traces[0]),
                     "--name", "file-access"]) == 0
        out = capsys.readouterr().out
        assert "File access table" in out
        assert "fluent-bit" in out

    def test_replay_reports_fidelity(self, traces, capsys):
        assert main(["replay", str(traces[0])]) == 0
        out = capsys.readouterr().out
        assert "replayed" in out
        assert "fidelity" in out

    def test_dashboard_custom_spec(self, traces, capsys, tmp_path):
        spec = tmp_path / "dash.json"
        spec.write_text("""{
            "name": "mine", "title": "My panels",
            "panels": [{"type": "syscall_histogram"}]
        }""")
        assert main(["dashboard", str(traces[0]), "--spec", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "My panels" in out
        assert "write" in out


@pytest.mark.parametrize("argv", [
    ["uring", "--batch-size", "0"],
    ["uring", "--records", "-3"],
    ["overhead", "--ops", "0"],
    ["fleet", "--shards", "0"],
    ["fleet", "--tenants", "-1"],
    ["resilience", "--duration", "-1"],
    ["rocksdb", "--duration", "0"],
    ["rocksdb", "--duration", "nan"],
    ["diagnose", "--scenario", "rocksdb", "--duration", "-1"],
    ["metrics", "--scenario", "rocksdb", "--duration", "0"],
    ["dst", "run", "--seeds", "0"],
    ["overhead", "--ops", "1.5"],
])
def test_counts_and_durations_must_be_positive(argv, capsys):
    # A usage error (exit 2) before any work: no traceback, no run
    # that analyses nothing and exits 0.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: dio" in err and "Traceback" not in err


def test_no_command_errors():
    with pytest.raises(SystemExit):
        main([])


class TestMetricsCommand:
    def test_prometheus_output(self, capsys):
        assert main(["metrics", "--scenario", "fluentbit"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE dio_ring_produced_total counter" in out
        assert "# TYPE dio_span_duration_ns histogram" in out
        assert "dio_health_drop_ratio" in out

    def test_json_output(self, capsys):
        import json

        assert main(["metrics", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        names = {metric["name"] for metric in data["metrics"]}
        assert "dio_shipper_events_total" in names

    def test_query_planner_counters_exported(self, capsys):
        # End-to-end: the scenario's stop-time correlation runs planned
        # queries, so the planner decision counters must be live.
        assert main(["metrics", "--scenario", "fluentbit"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE dio_store_plan_exact_total counter" in out
        assert "dio_store_plan_pruning_ratio" in out
        planned = {
            mode: value
            for mode in ("exact", "pruned", "fullscan")
            for line in out.splitlines()
            if line.startswith(f"dio_store_plan_{mode}_total ")
            for value in [float(line.split()[-1])]
        }
        assert sum(planned.values()) > 0
        assert planned["exact"] > 0


class TestHealthCommand:
    def test_text_report_lists_stages(self, capsys):
        assert main(["health", "--scenario", "fluentbit"]) == 0
        out = capsys.readouterr().out
        for stage in ("kernel_filter", "ring_buffer", "consumer",
                      "shipper", "store", "correlator"):
            assert stage in out
        assert "p95" in out
        assert "drop ratio" in out

    def test_json_report(self, capsys):
        import json

        assert main(["health", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "stages" in report and "derived" in report
        assert report["stages"][1]["name"] == "ring_buffer"


class TestDstCommand:
    def test_run_campaign(self, capsys, tmp_path):
        summary_path = tmp_path / "summary.json"
        assert main(["dst", "run", "--seeds", "3",
                     "--json", str(summary_path)]) == 0
        out = capsys.readouterr().out
        assert "running seeds 1..3" in out
        assert "0 failed" in out
        import json
        summary = json.loads(summary_path.read_text())
        assert summary["seeds_run"] == 3
        assert summary["seeds_failed"] == 0

    def test_repro_passing_seed(self, capsys):
        assert main(["dst", "repro", "7"]) == 0
        out = capsys.readouterr().out
        assert "seed 7 passes" in out
        assert "digest" in out

    def test_repro_scenario_file(self, capsys, tmp_path):
        from repro.dst import generate

        path = tmp_path / "s.json"
        generate(2).save(path)
        assert main(["dst", "repro", "--scenario", str(path)]) == 0
        assert "passes" in capsys.readouterr().out

    def test_repro_save_needs_shrink(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["dst", "repro", "3", "--save", str(tmp_path / "p")])
        assert exc.value.code == 2
        assert "--save" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    def test_repro_save_on_passing_seed_says_nothing_saved(self, capsys,
                                                           tmp_path):
        path = tmp_path / "p"
        assert main(["dst", "repro", "3", "--shrink",
                     "--save", str(path)]) == 0
        assert f"nothing saved to {path}" in capsys.readouterr().out
        assert not path.exists()

    def test_corpus_replays(self, capsys):
        assert main(["dst", "corpus"]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out

    def test_corpus_empty_dir(self, capsys, tmp_path):
        assert main(["dst", "corpus", "--dir", str(tmp_path)]) == 0
        assert "no corpus scenarios" in capsys.readouterr().out

    def test_failing_seed_is_reported_and_saved(self, capsys, tmp_path):
        from repro.backend.store import DocumentStore

        real_bulk = DocumentStore.bulk

        def buggy_bulk(self, index, sources, *args, **kwargs):
            kept = [s for i, s in enumerate(sources) if i % 7 != 6]
            return real_bulk(self, index, kept, *args, **kwargs)

        DocumentStore.bulk = buggy_bulk
        try:
            code = main(["dst", "run", "--seeds", "1",
                         "--save-failures", str(tmp_path / "fails")])
        finally:
            DocumentStore.bulk = real_bulk
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "dio dst repro 1" in out
        assert (tmp_path / "fails" / "seed-1.json").exists()
        assert (tmp_path / "fails" / "seed-1.failures.txt").exists()
