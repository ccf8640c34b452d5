"""E-STREAMHUB elasticity: probes, policy, enforcer, manager (paper §IV–V)."""

from .probes import (
    DelayWindow,
    DelayWindowAggregator,
    HostProbe,
    ProbeCollector,
    ProbeSet,
    SliceProbe,
)
from .policy import ElasticityPolicy, Violation, ViolationKind
from .signals import CpuBandSignal, DelaySloSignal, ScalingRule
from .selection import (
    SliceLoad,
    select_slices,
    select_slices_arbitrary,
    select_slices_greedy_cpu,
)
from .binpack import HostBin, NEW_HOST_PREFIX, Placement, first_fit_decreasing
from .enforcer import (
    ElasticityEnforcer,
    PlannedMigration,
    ScalingDecision,
)
from .manager import ElasticityManager, ManagerRecord
from .failover import ManagerFailover

__all__ = [
    "CpuBandSignal",
    "DelaySloSignal",
    "DelayWindow",
    "DelayWindowAggregator",
    "ElasticityEnforcer",
    "ElasticityManager",
    "ElasticityPolicy",
    "HostBin",
    "ManagerFailover",
    "HostProbe",
    "ManagerRecord",
    "NEW_HOST_PREFIX",
    "Placement",
    "PlannedMigration",
    "ProbeCollector",
    "ProbeSet",
    "ScalingDecision",
    "ScalingRule",
    "SliceLoad",
    "SliceProbe",
    "Violation",
    "ViolationKind",
    "first_fit_decreasing",
    "select_slices",
    "select_slices_arbitrary",
    "select_slices_greedy_cpu",
]
