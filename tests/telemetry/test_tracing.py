"""Unit tests for the span tracer and its JSONL persistence."""

import pytest

from repro.telemetry import Tracer, read_jsonl


class FakeClock:
    def __init__(self):
        self.time = 0.0

    def __call__(self):
        return self.time


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock)


class TestSpanLifecycle:
    def test_start_finish_measures_interval(self, tracer, clock):
        span = tracer.start_span("migration.pre")
        clock.time = 0.25
        tracer.finish_span(span)
        assert span.start == 0.0
        assert span.end == 0.25
        assert span.duration_s == 0.25

    def test_open_span_has_zero_duration(self, tracer):
        span = tracer.start_span("open")
        assert span.end is None
        assert span.duration_s == 0.0

    def test_sequential_span_ids(self, tracer):
        first = tracer.start_span("a")
        second = tracer.start_span("b")
        assert (first.span_id, second.span_id) == (1, 2)

    def test_parenting(self, tracer):
        root = tracer.start_span("migration")
        child = tracer.start_span("migration.pre", parent=root)
        assert child.parent_id == root.span_id
        assert root.parent_id is None

    def test_finish_merges_attributes(self, tracer):
        span = tracer.start_span("migration", slice="M:1")
        tracer.finish_span(span, state_bytes=512)
        assert span.attrs == {"slice": "M:1", "state_bytes": 512}

    def test_add_span_records_premeasured_interval(self, tracer):
        span = tracer.add_span("hop.M", 1.0, 1.4, pub_id=3)
        assert span.duration_s == pytest.approx(0.4)

    def test_event_is_instant(self, tracer, clock):
        clock.time = 2.0
        span = tracer.event("enforcer.decision", rule="global_overload")
        assert span.start == span.end == 2.0
        assert span.duration_s == 0.0


class TestReadout:
    def test_find_returns_in_start_order(self, tracer, clock):
        tracer.add_span("hop.AP", 0.0, 0.1)
        tracer.add_span("hop.M", 0.1, 0.2)
        tracer.add_span("hop.AP", 0.2, 0.3)
        assert [s.start for s in tracer.find("hop.AP")] == [0.0, 0.2]

    def test_breakdown_sorted_by_total_descending(self, tracer):
        tracer.add_span("hop.M", 0.0, 0.3)
        tracer.add_span("hop.AP", 0.0, 0.1)
        tracer.add_span("hop.AP", 0.1, 0.2)
        tracer.start_span("open")  # excluded: still open
        rows = tracer.breakdown()
        assert [row[0] for row in rows] == ["hop.M", "hop.AP"]
        name, count, total, mean, maximum = rows[1]
        assert count == 2
        assert total == pytest.approx(0.2)
        assert mean == pytest.approx(0.1)
        assert maximum == pytest.approx(0.1)


class TestJsonl:
    def _sample(self, tracer, clock):
        root = tracer.start_span("migration", slice="M:1")
        clock.time = 0.5
        tracer.add_span("migration.pre", 0.0, 0.1, parent=root)
        tracer.finish_span(root, state_bytes=64)
        return tracer

    def test_roundtrip(self, tracer, clock, tmp_path):
        self._sample(tracer, clock)
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))
        records = read_jsonl(str(path))
        assert len(records) == 2
        root = records[0]
        assert root["name"] == "migration"
        assert root["span_id"] == 1
        assert root["duration_s"] == pytest.approx(0.5)
        assert root["attrs"] == {"slice": "M:1", "state_bytes": 64}
        assert records[1]["parent_id"] == root["span_id"]

    def test_byte_identical_for_identical_traces(self, tmp_path):
        paths = []
        for i in range(2):
            fresh_clock = FakeClock()
            tracer = Tracer(fresh_clock)
            self._sample(tracer, fresh_clock)
            path = tmp_path / f"trace{i}.jsonl"
            tracer.write_jsonl(str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

