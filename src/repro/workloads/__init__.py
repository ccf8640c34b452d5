"""Workload generation: subscriptions, publications, rate profiles, traces."""

from .subscriptions import WorkloadGenerator
from .scale import ScaleWorkload
from .rates import constant, piecewise_linear, staircase, trapezoid
from .frankfurt import FrankfurtTraceModel

__all__ = [
    "FrankfurtTraceModel",
    "ScaleWorkload",
    "WorkloadGenerator",
    "constant",
    "piecewise_linear",
    "staircase",
    "trapezoid",
]
