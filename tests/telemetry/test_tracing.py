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

    def test_write_is_atomic(self, tracer, clock, tmp_path):
        self._sample(tracer, clock)
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))
        assert list(tmp_path.iterdir()) == [path]  # no temp litter


def generate_workload(tracer, clock, spans=200):
    """A deterministic mix of closed, nested and open-crossing spans."""
    for i in range(spans):
        clock.time = i * 0.01
        if i % 7 == 0:
            root = tracer.start_span("migration", slice=f"M:{i % 4}")
            clock.time += 0.004
            tracer.add_span("migration.pre", clock.time - 0.002, clock.time,
                            parent=root)
            tracer.finish_span(root)
        else:
            tracer.add_span(f"hop.{'AP' if i % 2 else 'M'}",
                            clock.time, clock.time + 0.003, pub_id=i)


class TestStreaming:
    def test_streamed_bytes_equal_unstreamed(self, tmp_path):
        plain_clock, stream_clock = FakeClock(), FakeClock()
        plain, streamed = Tracer(plain_clock), Tracer(stream_clock)
        stream_path = tmp_path / "streamed.jsonl"
        streamed.stream_to(str(stream_path), window_spans=16)
        generate_workload(plain, plain_clock)
        generate_workload(streamed, stream_clock)
        plain_path = tmp_path / "plain.jsonl"
        plain.write_jsonl(str(plain_path))
        streamed.write_jsonl(str(stream_path))
        assert plain_path.read_bytes() == stream_path.read_bytes()

    def test_memory_stays_flat(self, clock, tmp_path):
        tracer = Tracer(clock)
        tracer.stream_to(str(tmp_path / "flat.jsonl"), window_spans=32)
        peak = 0
        for i in range(500):
            clock.time = i * 0.01
            tracer.add_span("hop.M", clock.time, clock.time + 0.001)
            peak = max(peak, len(tracer.spans))
        assert peak <= 32
        assert tracer.flushed_spans >= 500 - 32

    def test_open_span_holds_back_the_prefix(self, tracer, clock, tmp_path):
        tracer.stream_to(str(tmp_path / "open.jsonl"), window_spans=4)
        open_span = tracer.start_span("migration")
        for i in range(10):
            tracer.add_span("hop.M", 0.0, 0.001)
        # Everything sits behind the open span: nothing may leave memory,
        # because spans stream strictly in start order.
        assert tracer.flushed_spans == 0
        assert len(tracer.spans) == 11
        tracer.finish_span(open_span)
        assert tracer.flushed_spans == 11

    def test_breakdown_covers_flushed_spans(self, tmp_path, clock):
        streamed = Tracer(clock)
        plain = Tracer(clock)
        streamed.stream_to(str(tmp_path / "t.jsonl"), window_spans=8)
        generate_workload(streamed, clock, spans=100)
        fresh = FakeClock()
        plain_tracer = Tracer(fresh)
        generate_workload(plain_tracer, fresh, spans=100)
        assert streamed.flushed_spans > 0  # stats really are merged
        assert streamed.breakdown() == plain_tracer.breakdown()

    def test_finalize_requires_the_streamed_path(self, tmp_path, tracer):
        tracer.stream_to(str(tmp_path / "a.jsonl"))
        with pytest.raises(ValueError):
            tracer.write_jsonl(str(tmp_path / "b.jsonl"))

    def test_stream_to_twice_refuses(self, tmp_path, tracer):
        tracer.stream_to(str(tmp_path / "a.jsonl"))
        with pytest.raises(RuntimeError):
            tracer.stream_to(str(tmp_path / "b.jsonl"))

    def test_window_must_be_positive(self, tmp_path, tracer):
        with pytest.raises(ValueError):
            tracer.stream_to(str(tmp_path / "a.jsonl"), window_spans=0)

    def test_finalize_is_atomic_and_complete(self, tmp_path, clock):
        tracer = Tracer(clock)
        path = tmp_path / "trace.jsonl"
        tracer.stream_to(str(path), window_spans=8)
        generate_workload(tracer, clock, spans=50)
        still_open = tracer.start_span("unfinished")
        assert not path.exists()  # nothing visible until finalize
        tracer.write_jsonl(str(path))
        assert not tracer.streaming
        records = read_jsonl(str(path))
        # Open spans serialize with end=None, like the non-streamed path.
        assert records[-1]["name"] == "unfinished"
        assert records[-1]["end"] is None
        assert len(records) == still_open.span_id
        assert [r["span_id"] for r in records] == list(
            range(1, still_open.span_id + 1)
        )
        assert list(tmp_path.iterdir()) == [path]  # no temp litter

