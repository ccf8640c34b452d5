"""Unit tests for windowed aggregation and backlog probes."""

import pytest

from repro.experiments.baseline import BacklogProbe
from repro.telemetry import WindowedSeries


class TestWindowedSeries:
    def test_windows_aggregate_by_fixed_intervals(self):
        series = WindowedSeries(window_s=30.0)
        series.add(5.0, 10.0)
        series.add(10.0, 20.0)
        series.add(35.0, 40.0)
        windows = series.windows()
        assert len(windows) == 2
        first, second = windows
        assert first.window_start == 0.0
        assert first.count == 2
        assert first.mean == pytest.approx(15.0)
        assert first.minimum == 10.0
        assert first.maximum == 20.0
        assert second.window_start == 30.0
        assert second.mean == pytest.approx(40.0)

    def test_std_within_window(self):
        series = WindowedSeries(window_s=10.0)
        series.add(1.0, 0.0)
        series.add(2.0, 2.0)
        assert series.windows()[0].std == pytest.approx(1.0)

    def test_empty_series(self):
        assert WindowedSeries().windows() == []

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            WindowedSeries(window_s=0)

    def test_len_and_samples(self):
        series = WindowedSeries()
        series.add(1.0, 2.0)
        assert len(series) == 1
        assert series.samples == [(1.0, 2.0)]


class TestBacklogProbe:
    def test_stable_when_backlog_stays_bounded(self):
        queue = {"q": lambda: 3}
        probe = BacklogProbe(queue)
        for t in range(10):
            probe.sample(float(t))
        assert probe.is_stable(bound=5)
        assert probe.max_backlog() == 3

    def test_unstable_when_backlog_grows(self):
        state = {"n": 0}

        def growing():
            state["n"] += 50
            return state["n"]

        probe = BacklogProbe({"q": growing})
        for t in range(10):
            probe.sample(float(t))
        assert not probe.is_stable(bound=100)

    def test_no_samples_is_stable(self):
        assert BacklogProbe({}).is_stable()
