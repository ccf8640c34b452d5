"""Publication-rate profiles for the elasticity experiments.

A profile is a function ``rate(t) -> publications per second`` over the
experiment's relative time.  Figure 8 uses a trapezoid: gradual increase
to a peak, a stability period, then a gradual decrease back to idle.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

__all__ = ["trapezoid", "piecewise_linear", "staircase"]


def trapezoid(
    ramp_up_s: float,
    plateau_s: float,
    ramp_down_s: float,
    peak: float,
    floor: float = 0.0,
) -> Callable[[float], float]:
    """Figure 8's synthetic profile: ramp up, hold, ramp down."""
    if min(ramp_up_s, plateau_s, ramp_down_s) < 0:
        raise ValueError("phase durations must be non-negative")
    if peak < floor:
        raise ValueError("peak must be at least the floor")

    def rate(t: float) -> float:
        if t < 0:
            return floor
        if t < ramp_up_s:
            return floor + (peak - floor) * (t / ramp_up_s) if ramp_up_s else peak
        if t < ramp_up_s + plateau_s:
            return peak
        end = ramp_up_s + plateau_s + ramp_down_s
        if t < end and ramp_down_s:
            return peak - (peak - floor) * ((t - ramp_up_s - plateau_s) / ramp_down_s)
        return floor

    return rate


def piecewise_linear(points: Sequence[Tuple[float, float]]) -> Callable[[float], float]:
    """Linear interpolation through (time, rate) points; clamped outside."""
    if len(points) < 2:
        raise ValueError("need at least two points")
    ordered = sorted(points)
    times = [p[0] for p in ordered]
    if len(set(times)) != len(times):
        raise ValueError("duplicate time points")

    def rate(t: float) -> float:
        if t <= ordered[0][0]:
            return ordered[0][1]
        if t >= ordered[-1][0]:
            return ordered[-1][1]
        for (t0, r0), (t1, r1) in zip(ordered, ordered[1:]):
            if t0 <= t <= t1:
                if t1 == t0:
                    return r1
                return r0 + (r1 - r0) * (t - t0) / (t1 - t0)
        raise AssertionError("unreachable")

    return rate


def staircase(steps: Sequence[Tuple[float, float]]) -> Callable[[float], float]:
    """Step profile: rate of the last step whose start time ≤ t."""
    if not steps:
        raise ValueError("need at least one step")
    ordered = sorted(steps)

    def rate(t: float) -> float:
        current = ordered[0][1]
        for start, value in ordered:
            if t >= start:
                current = value
            else:
                break
        return current

    return rate
