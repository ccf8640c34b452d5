"""Workload generation: subscriptions, publications, rate profiles, traces."""

from .subscriptions import WorkloadGenerator
from .scale import ScaleWorkload
from .rates import piecewise_linear, staircase, trapezoid
from .frankfurt import FrankfurtTraceModel

__all__ = [
    "FrankfurtTraceModel",
    "ScaleWorkload",
    "WorkloadGenerator",
    "piecewise_linear",
    "staircase",
    "trapezoid",
]
