"""Unit tests for the metric registry and the Prometheus exporter."""

import pytest

from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Telemetry,
    to_prometheus,
    write_prometheus,
)


class TestInstruments:
    def test_counter_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_gauge_set_and_add(self):
        gauge = Gauge()
        gauge.set(5.0)
        gauge.add(-2.0)
        assert gauge.value == 3.0

    def test_histogram_buckets_and_mean(self):
        hist = Histogram(buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 2.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(2.55)
        assert hist.mean == pytest.approx(0.85)
        assert hist.cumulative_buckets() == [(0.1, 1), (1.0, 2)]

    def test_histogram_boundary_value_counts_into_bucket(self):
        hist = Histogram(buckets=(1.0,))
        hist.observe(1.0)  # le="1.0" is inclusive, Prometheus-style
        assert hist.cumulative_buckets() == [(1.0, 1)]


class TestFamilies:
    def test_labelled_family_children_are_independent(self):
        registry = MetricsRegistry()
        family = registry.counter("events_total", labels=("operator",))
        family.labels(operator="AP").inc(2)
        family.labels(operator="M").inc(3)
        assert family.labels(operator="AP").value == 2
        assert family.labels(operator="M").value == 3

    def test_labelless_family_delegates(self):
        registry = MetricsRegistry()
        family = registry.counter("total")
        family.inc(7)
        assert family.value == 7

    def test_wrong_labels_rejected(self):
        registry = MetricsRegistry()
        family = registry.counter("events_total", labels=("operator",))
        with pytest.raises(ValueError):
            family.labels(host="x")
        with pytest.raises(ValueError):
            family.inc()  # labelled family has no default child

    def test_reregistration_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", labels=("k",))
        b = registry.counter("x_total", labels=("k",))
        assert a is b
        with pytest.raises(ValueError):
            registry.gauge("x_total")  # kind mismatch
        with pytest.raises(ValueError):
            registry.counter("x_total", labels=("other",))  # label mismatch

    def test_samples_sorted_by_label_values(self):
        registry = MetricsRegistry()
        family = registry.gauge("depth", labels=("slice",))
        for name in ("M:2", "AP:0", "M:1"):
            family.labels(slice=name).set(1)
        assert [labels["slice"] for labels, _ in family.samples()] == [
            "AP:0", "M:1", "M:2",
        ]


class TestSnapshotAndRender:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("a_total", help="things", unit="bytes").inc(5)
        registry.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["a_total"]["kind"] == "counter"
        assert snapshot["a_total"]["samples"] == [{"labels": {}, "value": 5}]
        hist = snapshot["h_seconds"]["samples"][0]
        assert hist["count"] == 1 and hist["buckets"] == [[1.0, 1]]

    def test_render_mentions_every_family(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        registry.gauge("b", labels=("host",)).labels(host="h0").set(2)
        text = registry.render()
        assert "a_total" in text and "host=h0" in text


class TestPrometheusExport:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("events_total", help="all events").inc(3)
        registry.gauge("hosts").set(2)
        text = to_prometheus(registry)
        assert "# HELP events_total all events" in text
        assert "# TYPE events_total counter" in text
        assert "\nevents_total 3\n" in text
        assert "\nhosts 2" in text

    def test_histogram_exposition(self):
        registry = MetricsRegistry()
        hist = registry.histogram("delay_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        text = to_prometheus(registry)
        assert 'delay_seconds_bucket{le="0.1"} 1' in text
        assert 'delay_seconds_bucket{le="1"} 1' in text
        assert 'delay_seconds_bucket{le="+Inf"} 2' in text
        assert "delay_seconds_sum 5.05" in text
        assert "delay_seconds_count 2" in text

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels=("k",)).labels(k='a"b\\c').inc()
        assert 'c_total{k="a\\"b\\\\c"} 1' in to_prometheus(registry)

    def test_unit_rendered_in_help(self):
        registry = MetricsRegistry()
        registry.counter("x_total", help="bytes moved", unit="bytes").inc()
        assert "# HELP x_total bytes moved [bytes]" in to_prometheus(registry)

    def test_write_prometheus_atomic(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        path = tmp_path / "scrape.prom"
        write_prometheus(str(path), registry)
        assert path.read_text() == to_prometheus(registry)
        assert list(tmp_path.iterdir()) == [path]  # no temp litter

    def test_deterministic_output(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("z_total").inc(1)
            family = registry.gauge("depth", labels=("slice",))
            family.labels(slice="M:1").set(4)
            family.labels(slice="AP:0").set(2)
            return to_prometheus(registry)

        assert build() == build()


class TestTelemetryBundle:
    def test_enabled_bundle_declares_instruments(self):
        telemetry = Telemetry()
        assert telemetry.events_routed is not None
        assert telemetry.metrics.get("engine_events_routed_total") is not None

    def test_bind_env_drives_tracer_clock(self):
        from repro.sim import Environment

        telemetry = Telemetry()
        env = Environment()
        telemetry.bind_env(env)
        env.call_later(5.0, lambda: None)
        env.run()
        assert telemetry.tracer.start_span("probe").start == 5.0
