"""Tests for the unified diagnosis surface and ``dio diagnose``."""

import json

import pytest

from repro.analysis.diagnose import (CONFIDENCE, RankedFinding,
                                     diagnose_session, follow_session)
from repro.analysis.detectors import SEVERITY_ORDER, Finding
from repro.apps.fluentbit import FLUENTBIT_BUGGY, FLUENTBIT_FIXED
from repro.backend import DocumentStore
from repro.cli import main
from repro.experiments import run_fluentbit_case, run_rocksdb_case
from repro.experiments.rocksdb_case import RocksDBScale


@pytest.fixture(scope="module")
def buggy_case():
    return run_fluentbit_case(FLUENTBIT_BUGGY)


@pytest.fixture(scope="module")
def rocksdb_case():
    return run_rocksdb_case(RocksDBScale(duration_ns=400_000_000))


class TestMerge:
    """The report is both batteries' findings, each detector run once:
    a finding's source is its detector's battery."""

    @pytest.fixture(scope="class")
    def report(self, rocksdb_case):
        return diagnose_session(rocksdb_case.store, rocksdb_case.session,
                                latency_records=rocksdb_case.bench.records())

    def test_streaming_only_keeps_emit_ns(self, report):
        assert {ranked.source for ranked in report.findings} == {
            "batch", "streaming"}
        for ranked in report.findings:
            assert (ranked.emit_ns is not None) == (
                ranked.source == "streaming")
        sources = {}
        for ranked in report.findings:
            assert sources.setdefault(ranked.finding.detector,
                                      ranked.source) == ranked.source

    def test_ranked_by_severity_then_confidence(self, report):
        keys = [(SEVERITY_ORDER[ranked.finding.severity], -ranked.confidence)
                for ranked in report.findings]
        assert keys == sorted(keys)
        assert len({key[0] for key in keys}) > 1
        assert len({key[1] for key in keys}) > 1


class TestDiagnoseSession:
    def test_fluentbit_buggy_surfaces_data_loss(self, buggy_case):
        session = buggy_case.tracer.config.session_name
        report = diagnose_session(buggy_case.store, session)
        assert report.severities.get("critical")
        stale = [r for r in report.findings
                 if "stale" in r.finding.detector]
        assert len(stale) == 1
        assert stale[0].source == "streaming"
        assert stale[0].confidence == CONFIDENCE["streaming"]
        assert stale[0].finding.evidence["event_ids"]

    def test_fluentbit_fixed_is_clean_of_criticals(self):
        case = run_fluentbit_case(FLUENTBIT_FIXED)
        report = diagnose_session(case.store,
                                  case.tracer.config.session_name)
        assert "critical" not in report.severities

    def test_rocksdb_contention_with_latency_records(self, rocksdb_case):
        report = diagnose_session(rocksdb_case.store, rocksdb_case.session,
                                  latency_records=rocksdb_case.bench.records())
        contention = [r for r in report.findings
                      if r.finding.detector == "io-contention"]
        assert len(contention) == 1
        assert contention[0].source == "batch"

    def test_fd_leak_needs_descriptors_left_open(self):
        # One process opens four files and closes all four: its
        # descriptors peaked at four, but none leaked.
        store = DocumentStore()
        calls = [("openat", 3 + n) for n in range(4)] + [("close", 0)] * 4
        store.bulk("dio_trace", [
            {"syscall": syscall, "ret": ret, "time": time_ns, "pid": 7,
             "tid": 7, "proc_name": "p", "session": "s"}
            for time_ns, (syscall, ret) in enumerate(calls)])
        report = diagnose_session(store, "s")
        assert "fd-leak" not in report.detectors_fired
        store.bulk("dio_trace", [
            {"syscall": "openat", "ret": 3 + n, "time": 10 + n, "pid": 7,
             "tid": 7, "proc_name": "p", "session": "s"}
            for n in range(4)])
        leak, = diagnose_session(store, "s").findings
        assert str(leak.finding) == ("[warning] fd-leak: pid 7: 8 opens vs "
                                     "4 closes (4 descriptors left open)")

    def test_report_has_dfg_and_phases(self, buggy_case):
        session = buggy_case.tracer.config.session_name
        report = diagnose_session(buggy_case.store, session)
        assert report.events > 0
        assert report.dfg.node_counts
        assert report.phases
        assert sum(p.events for p in report.phases) == report.events

    def test_to_json_is_deterministic(self, buggy_case):
        session = buggy_case.tracer.config.session_name
        one, two = (json.dumps(diagnose_session(buggy_case.store,
                                                session).as_dict(),
                               indent=2, sort_keys=True) for _ in range(2))
        assert one == two
        payload = json.loads(one)
        assert payload["session"] == session
        assert payload["severities"].get("critical", 0) >= 1

    def test_render_mentions_sources_and_evidence(self, buggy_case):
        session = buggy_case.tracer.config.session_name
        text = diagnose_session(buggy_case.store, session).render()
        assert f"=== diagnosis for session {session!r} ===" in text
        assert "source: streaming" in text
        assert "evidence:" in text
        assert "behaviour:" in text
        assert "phase 1:" in text


class TestFollowSession:
    def test_emits_incrementally_in_stream_order(self, buggy_case):
        session = buggy_case.tracer.config.session_name
        seen = follow_session(buggy_case.store, "dio_trace", session)
        assert seen
        assert [ns for ns, _ in seen] == sorted(ns for ns, _ in seen)
        assert any(f.detector == "stale-offset-resume" for _, f in seen)


class TestRankedFinding:
    def test_as_dict_includes_provenance(self):
        ranked = RankedFinding(Finding("d", "warning", "t", {"k": 1}),
                               "streaming", emit_ns=7)
        payload = ranked.as_dict()
        assert payload["source"] == "streaming"
        assert payload["confidence"] == CONFIDENCE["streaming"]
        assert payload["emit_ns"] == 7

    def test_rejects_unknown_source(self):
        with pytest.raises(KeyError):
            RankedFinding(Finding("d", "info", "t", {}), "psychic")
        with pytest.raises(KeyError):
            RankedFinding(Finding("d", "info", "t", {}), "both")


class TestDiagnoseCLI:
    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("diag-traces")
        buggy = base / "buggy.jsonl"
        assert main(["fluentbit", "--version", "1.4.0",
                     "--export", str(buggy)]) == 0
        return buggy

    def test_no_arguments_is_an_error(self, capsys):
        assert main(["diagnose"]) == 2
        assert "provide trace files or --scenario" in capsys.readouterr().err

    def test_diagnose_trace_file(self, traces, capsys):
        assert main(["diagnose", str(traces)]) == 0
        out = capsys.readouterr().out
        assert "diagnosis for session 'fluentbit-1.4.0'" in out
        assert "stale-offset" in out
        assert "source: streaming" in out

    def test_json_output(self, traces, capsys):
        assert main(["diagnose", str(traces), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["session"] == "fluentbit-1.4.0"
        assert "stale-offset-resume" in payload["detectors_fired"]
        kinds = {f["detector"] for f in payload["findings"]}
        assert "stale-offset-resume" in kinds

    def test_session_filter_unknown_session(self, traces, capsys):
        assert main(["diagnose", str(traces), "--session", "nope"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_follow_prints_incremental_findings(self, traces, capsys):
        assert main(["diagnose", str(traces), "--follow"]) == 0
        out = capsys.readouterr().out
        assert "--- streaming findings for session" in out
        assert "ms]" in out

    def test_follow_and_json_are_exclusive(self, traces, capsys):
        # --follow's lines before the JSON report made stdout non-JSON;
        # the report's streaming findings carry their emit_ns instead.
        with pytest.raises(SystemExit) as exit_info:
            main(["diagnose", str(traces), "--follow", "--json"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err

    def test_scenario_fluentbit_live(self, capsys):
        assert main(["diagnose", "--scenario", "fluentbit"]) == 0
        out = capsys.readouterr().out
        assert "stale-offset" in out
        assert "source: streaming" in out

    def test_scenario_rocksdb_live(self, capsys):
        assert main(["diagnose", "--scenario", "rocksdb",
                     "--duration", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "io-contention" in out

    @pytest.mark.parametrize("scenario, export", [
        (["--scenario", "fluentbit"], ["fluentbit", "--version", "1.4.0"]),
        (["--scenario", "rocksdb", "--duration", "0.4"],
         ["rocksdb", "--duration", "0.4"]),
    ], ids=["fluentbit-1.4.0", "rocksdb-0.4s"])
    def test_scenario_report_is_its_exports_report(self, scenario, export,
                                                   tmp_path, capsys):
        """A ``--scenario`` report is the report of the session it
        stored: ``diagnose`` of its export says the same, once each
        report's evidence ids are renumbered in order of appearance."""
        def report(argv):
            assert main(argv) == 0
            payload = json.loads(capsys.readouterr().out)
            numbers = {}
            for finding in payload["findings"]:
                evidence = finding["evidence"] or {}
                evidence["event_ids"] = [
                    numbers.setdefault(event_id, len(numbers))
                    for event_id in evidence.get("event_ids", ())]
            return payload

        path = tmp_path / "export.jsonl"
        assert main([*export, "--export", str(path)]) == 0
        capsys.readouterr()
        live = report(["diagnose", *scenario, "--json"])
        assert live["findings"]
        assert live == report(["diagnose", str(path), "--json"])


class TestAnalyzeCompareJSON:
    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("json-traces")
        buggy = base / "buggy.jsonl"
        fixed = base / "fixed.jsonl"
        assert main(["fluentbit", "--version", "1.4.0",
                     "--export", str(buggy)]) == 0
        assert main(["fluentbit", "--version", "2.0.5",
                     "--export", str(fixed)]) == 0
        return buggy, fixed

    def test_analyze_json(self, traces, capsys):
        assert main(["analyze", str(traces[0]), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["session"] == "fluentbit-1.4.0"
        severities = {f["severity"] for f in payload[0]["findings"]}
        assert "critical" in severities

    def test_analyze_json_exit_zero_when_clean(self, traces, capsys):
        assert main(["analyze", str(traces[1]), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(f["severity"] != "critical"
                   for f in payload[0]["findings"])

    def test_compare_json(self, traces, capsys):
        assert main(["compare", str(traces[0]), str(traces[1]),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["session_a"] == "fluentbit-1.4.0"
        assert payload["session_b"] == "fluentbit-2.0.5"
        assert payload["behaviorally_identical"] is False
        assert payload["divergence"]["position"] >= 0
        assert payload["dfg"]["distance"] > 0
