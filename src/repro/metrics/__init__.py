"""Measurement utilities: delays, windowed aggregates, backlog probes, reports."""

from .delay import DelaySample, DelayStats, DelayTracker, percentile
from .windows import WindowStats, WindowedSeries
from .throughput import BacklogProbe
from .report import format_series, format_table
from .export import write_json

__all__ = [
    "BacklogProbe",
    "write_json",
    "DelaySample",
    "DelayStats",
    "DelayTracker",
    "WindowStats",
    "WindowedSeries",
    "format_series",
    "format_table",
    "percentile",
]
