"""Leftover: ``perfbench/runner.py`` still imports ``percentile`` from here.

It lives in :mod:`repro.telemetry`; delete this module with the next benchmark change.
"""
from .telemetry import percentile  # noqa: F401
