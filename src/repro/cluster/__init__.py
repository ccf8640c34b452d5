"""Simulated private-cloud substrate: hosts, CPUs, network, provider.

Stands in for the paper's 30-host / 240-core testbed (see DESIGN.md §2).
"""

from .cpu import CpuScheduler, CpuTask, CpuUsageSnapshot
from .network import Network, NicStats
from .host import Host, HostSpec
from .cloud import CloudProvider
from .failures import (
    FailureDetector,
    FaultPlan,
    Watchdog,
    crash_host,
)

__all__ = [
    "CloudProvider",
    "CpuScheduler",
    "CpuTask",
    "CpuUsageSnapshot",
    "FailureDetector",
    "FaultPlan",
    "Host",
    "HostSpec",
    "Network",
    "NicStats",
    "Watchdog",
    "crash_host",
]
