"""Unit tests for the telemetry subsystem (registry, spans, exporters)."""

import json
import pathlib

import pytest

from repro.sim import Environment
from repro.telemetry import (DEFAULT_BUCKETS, Histogram, MetricsRegistry,
                             Telemetry, TelemetryError, registry_as_dict,
                             to_json, to_prometheus)
from tests.prometheus_oracle import parse_prometheus

GOLDEN = pathlib.Path(__file__).parent / "data" / "telemetry_golden.prom"


def sample_registry() -> MetricsRegistry:
    """A registry with one metric of each kind and fixed values."""
    registry = MetricsRegistry()
    events = registry.counter("dio_test_events_total", "Events seen.",
                              labelnames=("stage",))
    events.labels(stage="ring").inc(3)
    events.labels(stage="shipper").inc(2)
    registry.gauge("dio_test_queue_depth", "Queue depth.").set_function(
        lambda: 7)
    latency = registry.histogram("dio_test_latency_ns", "Latency.",
                                 buckets=(0, 10, 100, 1000))
    for value in (0, 5, 50, 500, 5000):
        latency.observe(value)
    return registry


class TestCounters:
    def test_unlabeled_counter_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counters_only_go_up(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(TelemetryError):
            counter.inc(-1)

    def test_callback_backed_counter_reads_live(self):
        registry = MetricsRegistry()
        box = {"n": 0}
        counter = registry.counter("c_total")
        counter.set_function(lambda: box["n"])
        box["n"] = 42
        assert counter.value == 42
        with pytest.raises(TelemetryError):
            counter.inc()

    def test_labels_create_independent_children(self):
        registry = MetricsRegistry()
        family = registry.counter("c_total", labelnames=("stage", "cpu"))
        family.labels(stage="ring", cpu="0").inc(2)
        family.labels("ring", "1").inc(5)
        assert family.labels(stage="ring", cpu="0").value == 2
        assert family.labels(stage="ring", cpu="1").value == 5

    def test_wrong_label_names_rejected(self):
        family = MetricsRegistry().counter("c_total", labelnames=("stage",))
        with pytest.raises(TelemetryError):
            family.labels(nope="x")
        with pytest.raises(TelemetryError):
            family.labels("a", "b")

    def test_unlabeled_access_on_labeled_family_rejected(self):
        family = MetricsRegistry().counter("c_total", labelnames=("stage",))
        with pytest.raises(TelemetryError):
            family.inc()

    def test_reregistration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "help", labelnames=("a",))
        second = registry.counter("c_total", "help", labelnames=("a",))
        assert first is second

    def test_conflicting_reregistration_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(TelemetryError):
            registry.gauge("m")
        with pytest.raises(TelemetryError):
            registry.counter("m", labelnames=("x",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError):
            registry.counter("0bad")
        with pytest.raises(TelemetryError):
            registry.counter("ok_total", labelnames=("bad-label",))


class TestGauges:
    def test_registry_value_reads_scalar(self):
        registry = MetricsRegistry()
        registry.gauge("g").set_function(lambda: 3)
        assert registry.value("g") == 3
        assert registry.value("missing", default=-1) == -1


class TestHistograms:
    def test_bucket_boundaries_are_inclusive_upper_bounds(self):
        h = Histogram(buckets=(0, 10, 100))
        for value in (0, 10, 11, 100, 101):
            h.observe(value)
        # le=0: {0}; le=10: {10}; le=100: {11, 100}; +Inf: {101}
        assert h.bucket_counts() == [1, 1, 2, 1]
        assert h.cumulative_counts() == [1, 2, 4, 5]
        assert h.count == 5
        assert h.sum == 222

    def test_quantile_interpolates_within_bucket(self):
        h = Histogram(buckets=(0, 100))
        for _ in range(10):
            h.observe(50)
        # All mass in (0, 100]; rank q*10 interpolates linearly.
        assert h.quantile(0.5) == pytest.approx(50.0)
        assert h.quantile(1.0) == pytest.approx(100.0)

    def test_quantile_of_zeros_is_exact(self):
        h = Histogram()
        for _ in range(5):
            h.observe(0)
        assert h.quantile(0.99) == 0.0

    def test_quantile_overflow_clamps_to_last_bound(self):
        h = Histogram(buckets=(0, 10))
        h.observe(1_000_000)
        assert h.quantile(0.5) == 10.0

    def test_quantile_without_observations_is_none(self):
        assert Histogram().quantile(0.5) is None

    def test_rejects_bad_input(self):
        with pytest.raises(TelemetryError):
            Histogram(buckets=())
        with pytest.raises(TelemetryError):
            Histogram(buckets=(10, 5))
        with pytest.raises(TelemetryError):
            Histogram().observe(-1)
        with pytest.raises(TelemetryError):
            Histogram().quantile(1.5)

    def test_default_buckets_span_ns_to_seconds(self):
        assert DEFAULT_BUCKETS[0] == 0
        assert DEFAULT_BUCKETS[-1] == 10_000_000_000


class TestSpans:
    def test_span_durations_use_the_simulated_clock(self):
        env = Environment()
        telemetry = Telemetry(clock=lambda: env.now)

        def proc():
            with telemetry.span("outer"):
                yield env.timeout(100)
                with telemetry.span("inner"):
                    yield env.timeout(50)
                yield env.timeout(25)

        env.run(until=env.process(proc()))
        inner, outer = telemetry.spans.finished
        assert inner.name == "inner" and outer.name == "outer"
        assert inner.duration_ns == 50
        assert outer.duration_ns == 175

    def test_nesting_records_parent_and_depth(self):
        env = Environment()
        telemetry = Telemetry(clock=lambda: env.now)
        with telemetry.span("a"):
            with telemetry.span("b"):
                with telemetry.span("c"):
                    pass
        by_name = {s.name: s for s in telemetry.spans.finished}
        assert by_name["a"].parent is None and by_name["a"].depth == 0
        assert by_name["b"].parent == "a" and by_name["b"].depth == 1
        assert by_name["c"].parent == "b" and by_name["c"].depth == 2

    def test_spans_feed_the_duration_histogram(self):
        env = Environment()
        telemetry = Telemetry(clock=lambda: env.now)

        def proc():
            for _ in range(4):
                with telemetry.span("stage"):
                    yield env.timeout(2_000)

        env.run(until=env.process(proc()))
        # 2 us lands in the (1 us, 10 us] bucket; the estimate stays
        # within the owning bucket's bounds.
        family = telemetry.registry.get("dio_span_duration_ns")
        assert 1_000 < family.labels(span="stage").quantile(0.5) <= 10_000
        assert family.labels(span="stage").count == 4

    def test_telemetry_has_no_off_switch(self):
        """Spans always record: neither the bundle nor the span tracer
        takes an ``enabled`` flag any more."""
        from repro.telemetry import SpanTracer

        with pytest.raises(TypeError, match="enabled"):
            Telemetry(enabled=False)
        with pytest.raises(TypeError, match="enabled"):
            SpanTracer(clock=lambda: 0, enabled=False)
        telemetry = Telemetry()
        with telemetry.span("stage"):
            pass
        assert [span.name for span in telemetry.spans.finished] == ["stage"]
        assert telemetry.registry.get("dio_span_duration_ns") is not None

    def test_finished_spans_are_bounded(self):
        from repro.telemetry import SpanTracer

        tracer = SpanTracer(clock=lambda: 0, max_finished=2)
        for _ in range(5):
            with tracer.span("s"):
                pass
        assert len(tracer.finished) == 2
        assert tracer.dropped == 3

    def test_span_exits_cleanly_on_exception(self):
        telemetry = Telemetry()
        with pytest.raises(RuntimeError):
            with telemetry.span("failing"):
                raise RuntimeError("boom")
        assert telemetry.spans.finished[0].name == "failing"
        assert telemetry.spans._stack == []


class TestExporters:
    def test_prometheus_matches_golden_file(self):
        rendered = to_prometheus(sample_registry())
        assert rendered == GOLDEN.read_text()

    def test_prometheus_and_json_roundtrip_same_state(self):
        registry = sample_registry()
        parsed = parse_prometheus(to_prometheus(registry))
        data = json.loads(to_json(registry))
        for metric in data["metrics"]:
            name = metric["name"]
            for sample in metric["samples"]:
                labels = tuple(sorted(sample["labels"].items()))
                if metric["type"] == "histogram":
                    assert parsed[name + "_count"][labels] == sample["count"]
                    assert parsed[name + "_sum"][labels] == sample["sum"]
                    for bucket in sample["buckets"]:
                        le = ("+Inf" if bucket["le"] == "+Inf"
                              else str(bucket["le"]))
                        key = tuple(sorted([*sample["labels"].items(),
                                            ("le", le)]))
                        assert (parsed[name + "_bucket"][key]
                                == bucket["count"])
                else:
                    assert parsed[name][labels] == sample["value"]

    def test_json_is_deterministic(self):
        assert to_json(sample_registry()) == to_json(sample_registry())

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labelnames=("path",)).labels(
            path='/a"b\\c\n').inc()
        text = to_prometheus(registry)
        parsed = parse_prometheus(text)
        assert parsed["c_total"][(("path", '/a"b\\c\n'),)] == 1

    def test_empty_registry_renders_empty(self):
        assert to_prometheus(MetricsRegistry()) == ""
        assert registry_as_dict(MetricsRegistry()) == {"metrics": []}

    def test_callback_gauges_render_live_values(self):
        registry = MetricsRegistry()
        box = {"n": 1}
        registry.gauge("g").set_function(lambda: box["n"])
        assert "g 1" in to_prometheus(registry)
        box["n"] = 9
        assert "g 9" in to_prometheus(registry)
