"""Tests for rate profiles and the Frankfurt trace model."""

import pytest

from repro.workloads import (
    FrankfurtTraceModel,
    piecewise_linear,
    staircase,
    trapezoid,
)


class TestProfiles:
    def test_trapezoid_shape(self):
        rate = trapezoid(ramp_up_s=100, plateau_s=50, ramp_down_s=100, peak=350)
        assert rate(0) == 0.0
        assert rate(50) == pytest.approx(175.0)
        assert rate(100) == pytest.approx(350.0)
        assert rate(125) == pytest.approx(350.0)
        assert rate(200) == pytest.approx(175.0)
        assert rate(250) == 0.0
        assert rate(1000) == 0.0

    def test_trapezoid_with_floor(self):
        rate = trapezoid(10, 10, 10, peak=100, floor=20)
        assert rate(0) == 20.0
        assert rate(30) == 20.0
        with pytest.raises(ValueError):
            trapezoid(1, 1, 1, peak=5, floor=10)

    def test_piecewise_linear(self):
        rate = piecewise_linear([(0, 0), (10, 100), (20, 50)])
        assert rate(5) == pytest.approx(50.0)
        assert rate(15) == pytest.approx(75.0)
        assert rate(-5) == 0.0
        assert rate(100) == 50.0

    def test_piecewise_linear_validation(self):
        with pytest.raises(ValueError):
            piecewise_linear([(0, 1)])
        with pytest.raises(ValueError):
            piecewise_linear([(0, 1), (0, 2)])

    def test_staircase(self):
        rate = staircase([(0, 10), (100, 50), (200, 0)])
        assert rate(50) == 10
        assert rate(100) == 50
        assert rate(250) == 0
        with pytest.raises(ValueError):
            staircase([])


class TestFrankfurtTrace:
    def test_overnight_is_quiet_and_open_is_busy(self):
        trace = FrankfurtTraceModel()
        assert trace.rate_at(3.0) < 20.0
        assert trace.rate_at(10.0) > 500.0

    def test_sharp_rise_at_market_open(self):
        trace = FrankfurtTraceModel()
        before = trace.base_rate_at(8.0)
        after = trace.base_rate_at(9.3)
        assert after > 5 * before
        # The open itself multiplies volume within minutes.
        assert trace.base_rate_at(9.1) > 2 * trace.base_rate_at(8.95)

    def test_decline_after_close(self):
        trace = FrankfurtTraceModel()
        assert trace.base_rate_at(17.0) > 500.0
        assert trace.base_rate_at(18.0) < 200.0
        assert trace.base_rate_at(20.5) < 20.0

    def test_peak_magnitude_matches_figure1(self):
        trace = FrankfurtTraceModel(noise=0.0)
        peak = max(rate for _, rate in trace.series(resolution_s=30.0))
        assert 1000.0 < peak <= 1300.0

    def test_series_covers_requested_window(self):
        trace = FrankfurtTraceModel()
        series = trace.series(resolution_s=3600.0)
        assert len(series) == 24
        assert series[0][0] == 0.0

    def test_determinism(self):
        a = FrankfurtTraceModel(seed=1).series(resolution_s=600.0)
        b = FrankfurtTraceModel(seed=1).series(resolution_s=600.0)
        assert a == b
        c = FrankfurtTraceModel(seed=2).series(resolution_s=600.0)
        assert a != c

    def test_experiment_profile_scaling(self):
        trace = FrankfurtTraceModel(noise=0.0)
        profile = trace.experiment_profile(peak_rate=190.0, speedup=20.0, start_hour=6.5)
        # Experiment time covering the full day: 24 h / 20 = 4320 s window.
        rates = [profile(t) for t in range(0, 2400, 10)]
        assert max(rates) <= 190.0 * 1.01
        assert max(rates) > 150.0
        # Early experiment time corresponds to pre-open quiet trace hours.
        assert profile(0.0) < 20.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FrankfurtTraceModel(noise=-0.1)
        trace = FrankfurtTraceModel()
        with pytest.raises(ValueError):
            trace.series(resolution_s=0)
        with pytest.raises(ValueError):
            trace.experiment_profile(peak_rate=0)
