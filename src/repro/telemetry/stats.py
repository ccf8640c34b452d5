"""Delay percentiles and fixed-window aggregates: the paper's observables.

The paper measures, for each publication, the delay between its sending by
a source operator slice and the reception of the *last* notification by
the sink operator (§VI-A), reporting averages, deviations, min/max and
stacked percentiles (Figure 6 bottom).  Its elasticity plots (Figures 8
and 9) present averages, standard deviations, minima and maxima over
periods of 30 seconds; :class:`WindowedSeries` provides exactly that
aggregation for any sampled series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "DelaySample",
    "DelayStats",
    "DelayTracker",
    "WindowStats",
    "WindowedSeries",
    "percentile",
]


class DelaySample(NamedTuple):
    """Delay of one fully notified publication."""

    pub_id: int
    published_at: float
    delivered_at: float
    notifications: int

    @property
    def delay(self) -> float:
        return self.delivered_at - self.published_at


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of an already sorted sequence."""
    if not sorted_values:
        raise ValueError("no values")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    position = fraction * (len(sorted_values) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return sorted_values[lower]
    weight = position - lower
    return sorted_values[lower] * (1 - weight) + sorted_values[upper] * weight


class DelayTracker:
    """Collects delay samples and derives summary statistics."""

    def __init__(self) -> None:
        self.samples: List[DelaySample] = []

    def add(self, sample: DelaySample) -> None:
        self.samples.append(sample)

    def __len__(self) -> int:
        return len(self.samples)

    def delays(self, since: float = 0.0, until: float = math.inf) -> List[float]:
        """Delays of samples delivered in ``[since, until)``."""
        return [
            s.delay for s in self.samples if since <= s.delivered_at < until
        ]

    def stats(self, since: float = 0.0, until: float = math.inf) -> Optional["DelayStats"]:
        values = self.delays(since, until)
        if not values:
            return None
        return DelayStats.from_values(values)

    def percentile_stack(
        self, fractions: Sequence[float], since: float = 0.0, until: float = math.inf
    ) -> List[Tuple[float, float]]:
        """(fraction, delay) pairs — the paper's stacked percentile plot."""
        values = sorted(self.delays(since, until))
        if not values:
            return []
        return [(f, percentile(values, f)) for f in fractions]

    def total_notifications(self) -> int:
        return sum(s.notifications for s in self.samples)


@dataclass(frozen=True)
class DelayStats:
    """Summary statistics of a set of delays (seconds)."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    p50: float
    p75: float
    p99: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "DelayStats":
        ordered = sorted(values)
        n = len(ordered)
        mean = sum(ordered) / n
        variance = sum((v - mean) ** 2 for v in ordered) / n
        return cls(
            count=n,
            mean=mean,
            std=math.sqrt(variance),
            minimum=ordered[0],
            maximum=ordered[-1],
            p50=percentile(ordered, 0.50),
            p75=percentile(ordered, 0.75),
            p99=percentile(ordered, 0.99),
        )


@dataclass(frozen=True)
class WindowStats:
    """Aggregate of all samples falling into one window."""

    window_start: float
    count: int
    mean: float
    std: float
    minimum: float
    maximum: float


class WindowedSeries:
    """Collects (time, value) samples and aggregates per fixed window."""

    def __init__(self, window_s: float = 30.0):
        if window_s <= 0:
            raise ValueError("window must be positive")
        self.window_s = window_s
        self._samples: List[Tuple[float, float]] = []

    def add(self, time: float, value: float) -> None:
        self._samples.append((time, value))

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> List[Tuple[float, float]]:
        return list(self._samples)

    def windows(self) -> List[WindowStats]:
        """Per-window aggregates, ordered by window start time."""
        buckets: Dict[int, List[float]] = {}
        for time, value in self._samples:
            buckets.setdefault(int(time // self.window_s), []).append(value)
        result = []
        for index in sorted(buckets):
            values = buckets[index]
            mean = sum(values) / len(values)
            variance = sum((v - mean) ** 2 for v in values) / len(values)
            result.append(
                WindowStats(
                    window_start=index * self.window_s,
                    count=len(values),
                    mean=mean,
                    std=math.sqrt(variance),
                    minimum=min(values),
                    maximum=max(values),
                )
            )
        return result
