"""E-STREAMHUB elasticity: probes, policy, enforcer, manager (paper §IV–V)."""

from .probes import (
    DelayWindow,
    DelayWindowAggregator,
    HostProbe,
    ProbeCollector,
    ProbeSet,
    SliceProbe,
)
from .policy import (
    ElasticityPolicy,
    ScalingAction,
    Violation,
    ViolationKind,
)
from .signals import (
    SIGNAL_NAMES,
    CpuBandSignal,
    DelaySloSignal,
    SignalStack,
    SignalVerdict,
    SpillPressureSignal,
)
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
    "SIGNAL_NAMES",
    "ScalingAction",
    "ScalingDecision",
    "SignalStack",
    "SignalVerdict",
    "SliceLoad",
    "SliceProbe",
    "SpillPressureSignal",
    "Violation",
    "ViolationKind",
    "first_fit_decreasing",
    "select_slices",
    "select_slices_arbitrary",
    "select_slices_greedy_cpu",
]
