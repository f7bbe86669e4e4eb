"""Integration tests: telemetry wired through the whole pipeline."""

import json

import pytest

from repro.backend import DocumentStore
from repro.experiments import overhead, run_fluentbit_case
from repro.experiments.rocksdb_case import RocksDBScale
from repro.kernel import Kernel, O_CREAT, O_RDWR
from repro.sim import Environment
from repro.telemetry import (STAGES, MetricsRegistry, registry_as_dict,
                             to_prometheus)
from repro.telemetry.health import Conservation
from repro.tracer import DIOTracer, TracerConfig
from tests.prometheus_oracle import parse_prometheus


def stage_of(report, name):
    """One stage of a health report, by name."""
    found, = [each for each in report.stages if each.name == name]
    return found


@pytest.fixture(scope="module")
def case():
    return run_fluentbit_case("1.4.0")


@pytest.fixture(scope="module")
def telemetry(case):
    return case.tracer.telemetry


def run_small_trace(config=None):
    """A tiny end-to-end traced workload; returns the tracer."""
    env = Environment()
    kernel = Kernel(env, ncpus=2)
    store = DocumentStore()
    tracer = DIOTracer(env, kernel, store, config)
    task = kernel.spawn_process("app").threads[0]
    tracer.attach()

    def main():
        fd = yield from kernel.syscall(task, "open", path="/f",
                                       flags=O_CREAT | O_RDWR)
        for _ in range(20):
            yield from kernel.syscall(task, "write", fd=fd, data=b"x" * 64)
        yield from kernel.syscall(task, "close", fd=fd)
        yield from tracer.shutdown()

    env.run(until=env.process(main()))
    return tracer


class TestHealthReport:
    def test_all_stages_present_in_flow_order(self, telemetry):
        report = telemetry.health_report()
        assert tuple(stage.name for stage in report.stages) == STAGES

    def test_counters_are_consistent_across_stages(self, telemetry, case):
        report = telemetry.health_report()
        ring = stage_of(report, "ring_buffer").counters
        shipper = stage_of(report, "shipper").counters
        store = stage_of(report, "store").counters
        assert ring["produced"] == case.tracer.stats.produced
        assert ring["consumed"] == ring["produced"]   # fully drained
        assert shipper["shipped"] == ring["consumed"]
        assert store["docs_indexed"] == shipper["shipped"]
        assert stage_of(report, "sim").counters["events"] > 0

    def test_stage_latency_quantiles_present(self, telemetry):
        report = telemetry.health_report()
        for stage in ("consumer", "shipper"):
            latency = stage_of(report, stage).latency_ns
            assert latency is not None
            assert set(latency) == {"p50", "p95", "p99"}
            assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]

    def test_derived_gauges_match_facade(self, telemetry, case):
        derived = telemetry.health_report().derived
        assert derived["drop_ratio"] == case.tracer.stats.drop_ratio
        assert derived["consumer_lag"] == case.tracer.stats.consumer_lag
        assert derived["retry_rate"] == case.tracer.stats.retry_rate

    def test_derived_gauges_exported(self, telemetry):
        parsed = parse_prometheus(telemetry.to_prometheus())
        for name in ("dio_health_drop_ratio",
                     "dio_health_consumer_lag_records",
                     "dio_health_retry_rate",
                     "dio_health_unresolved_ratio"):
            assert name in parsed

    def test_report_as_dict_is_json_serializable(self, telemetry):
        data = telemetry.health_report().as_dict()
        assert json.loads(json.dumps(data)) == data


class TestConservation:
    def registry(self, **counts):
        registry = MetricsRegistry()
        for name, count in counts.items():
            registry.counter(name, "hand-built").inc(count)
        return registry

    def test_terms_that_add_up_hold(self):
        identity = Conservation.read(self.registry(
            dio_filter_accepted_total=10, dio_shipper_events_total=7,
            dio_ring_dropped_total=2, dio_consumer_crash_lost_total=1))
        assert identity.holds
        assert identity.line() == (
            "conservation: produced 10 = stored 7 + ring_dropped 2 + "
            "ring_pending 0 + shed 0 + staged 0 + spill_pending 0 + "
            "crash_lost 1 (holds)")

    def test_a_hand_built_registry_that_does_not_add_up(self):
        identity = Conservation.read(self.registry(
            dio_filter_accepted_total=10, dio_shipper_events_total=7,
            dio_consumer_shed_total=1))
        assert not identity.holds
        assert identity.line().endswith("(DOES NOT HOLD: off by 2)")
        assert identity.as_dict()["holds"] is False


class TestExporterRoundTrip:
    def test_prometheus_and_json_expose_the_same_state(self, telemetry):
        parsed = parse_prometheus(telemetry.to_prometheus())
        data = registry_as_dict(telemetry.registry)
        for metric in data["metrics"]:
            for sample in metric["samples"]:
                labels = tuple(sorted(sample["labels"].items()))
                if metric["type"] == "histogram":
                    assert (parsed[metric["name"] + "_count"][labels]
                            == sample["count"])
                else:
                    assert parsed[metric["name"]][labels] == sample["value"]


class TestDeterminism:
    def test_repeated_runs_produce_identical_telemetry(self):
        first = run_fluentbit_case("1.4.0", session_name="det")
        second = run_fluentbit_case("1.4.0", session_name="det")
        t1, t2 = first.tracer.telemetry, second.tracer.telemetry
        assert to_prometheus(t1.registry) == to_prometheus(t2.registry)
        assert t1.to_json() == t2.to_json()
        assert (t1.health_report().as_dict()
                == t2.health_report().as_dict())


class TestTracerStatsFacade:
    def test_facade_reads_registry_values(self):
        tracer = run_small_trace()
        registry = tracer.telemetry.registry
        assert tracer.stats.shipped == registry.value(
            "dio_shipper_events_total") == 22
        assert tracer.stats.batches == registry.value(
            "dio_consumer_batches_total")
        assert tracer.stats.ship_retries == registry.value(
            "dio_shipper_retries_total")

    def test_pipeline_spans_recorded(self):
        tracer = run_small_trace()
        names = {span.name for span in tracer.telemetry.spans.finished}
        assert {"consumer.batch", "consumer.parse", "shipper.bulk",
                "correlator.correlate"} <= names
        parse = [span for span in tracer.telemetry.spans.finished
                 if span.name == "consumer.parse"][0]
        assert parse.parent == "consumer.batch"
        assert parse.depth == 1
        # The store records its spans straight into the shared
        # histogram (it does not own the span tracer).
        family = tracer.telemetry.registry.get("dio_span_duration_ns")
        assert family.labels(span="store.bulk").count > 0

    def test_filter_accept_reject_counters(self):
        config = TracerConfig(pids=frozenset({999_999}))
        tracer = run_small_trace(config)
        registry = tracer.telemetry.registry
        assert registry.value("dio_filter_rejected_total") == 22
        assert registry.value("dio_filter_accepted_total") == 0
        assert tracer.stats.filtered_out == 22


@pytest.fixture(scope="module")
def lossy_tracer():
    """The Table II DIO deployment behind a 16 KiB ring: it drops."""
    made = []

    class Recording(DIOTracer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(overhead, "DIOTracer", Recording)
        overhead.run_overhead_comparison(
            RocksDBScale(client_threads=2, key_count=400, value_size=256),
            ops_per_thread=800, dio_ring_bytes=16 * 1024,
            deployments=("dio",))
    (tracer,) = made
    return tracer


class TestHealthTellsTheTruth:
    """A lossy run's health report shows its loss.  With telemetry
    switched off the same run once reported a drop ratio of 0.0 (the
    ring families were never bound, and an unbound family reads 0)."""

    def test_drop_ratio_is_the_rings(self, lossy_tracer):
        derived = lossy_tracer.telemetry.health_report().derived
        assert derived["drop_ratio"] == lossy_tracer.stats.drop_ratio > 0

    def test_ring_stage_counters_are_the_rings(self, lossy_tracer):
        ring = lossy_tracer.ring.stats
        report = lossy_tracer.telemetry.health_report()
        assert stage_of(report, "ring_buffer").counters == {
            "produced": ring.produced, "dropped": ring.dropped,
            "consumed": ring.consumed, "bytes": ring.bytes_produced}

    def test_conservation_names_the_ring_loss(self, lossy_tracer):
        identity = lossy_tracer.telemetry.health_report().conservation
        dropped = lossy_tracer.stats.dropped
        assert identity.losses["ring_dropped"] == dropped > 0
        assert identity.stored == lossy_tracer.stats.shipped
        assert identity.holds

    def test_telemetry_is_not_optional(self):
        """No knob turns self-telemetry off: the field is gone, and
        asking for it fails by name."""
        with pytest.raises(TypeError, match="telemetry_enabled"):
            TracerConfig(telemetry_enabled=False)
