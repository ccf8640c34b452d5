"""Shared builders for the elasticity tests."""

from repro.elastic import Violation
from repro.elastic.signals import CpuBandEvidence


def cpu_violation(kind, utilization, host_id=""):
    """A CPU band violation as :class:`CpuBandSignal` would raise it
    (only the headline utilization matters to the enforcer)."""
    return Violation(kind, CpuBandEvidence(utilization, 0.0, 0), host_id)
