"""Unit tests for delay tracking and percentiles."""

import pytest

from repro.telemetry import DelaySample, DelayStats, DelayTracker, percentile


def sample(pub_id, published, delivered, n=1):
    return DelaySample(pub_id, published, delivered, n)


def test_percentile_interpolation():
    values = [0.0, 10.0, 20.0, 30.0]
    assert percentile(values, 0.0) == 0.0
    assert percentile(values, 1.0) == 30.0
    assert percentile(values, 0.5) == pytest.approx(15.0)
    assert percentile(values, 0.25) == pytest.approx(7.5)


def test_percentile_invalid_inputs():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_tracker_collects_and_computes_stats():
    tracker = DelayTracker()
    for i, delay in enumerate([0.1, 0.2, 0.3, 0.4]):
        tracker.add(sample(i, 10.0, 10.0 + delay))
    stats = tracker.stats()
    assert stats.count == 4
    assert stats.mean == pytest.approx(0.25)
    assert stats.minimum == pytest.approx(0.1)
    assert stats.maximum == pytest.approx(0.4)
    assert stats.p50 == pytest.approx(0.25)


def test_tracker_window_filtering():
    tracker = DelayTracker()
    tracker.add(sample(1, 0.0, 5.0))
    tracker.add(sample(2, 10.0, 15.0))
    assert tracker.delays(since=0.0, until=10.0) == [5.0]
    assert tracker.stats(since=100.0) is None


def test_percentile_stack():
    tracker = DelayTracker()
    for i in range(101):
        tracker.add(sample(i, 0.0, i / 100.0))
    stack = tracker.percentile_stack([0.25, 0.5, 0.75])
    assert stack[0] == (0.25, pytest.approx(0.25))
    assert stack[1] == (0.5, pytest.approx(0.50))
    assert stack[2] == (0.75, pytest.approx(0.75))
    assert DelayTracker().percentile_stack([0.5]) == []


def test_total_notifications():
    tracker = DelayTracker()
    tracker.add(sample(1, 0.0, 1.0, n=100))
    tracker.add(sample(2, 0.0, 1.0, n=250))
    assert tracker.total_notifications() == 350


def test_delay_stats_std():
    stats = DelayStats.from_values([1.0, 1.0, 1.0])
    assert stats.std == 0.0
    stats = DelayStats.from_values([0.0, 2.0])
    assert stats.std == pytest.approx(1.0)
