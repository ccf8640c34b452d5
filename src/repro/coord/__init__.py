"""ZooKeeper-like coordination kernel (shared configuration store).

Used by the E-STREAMHUB manager to reliably store the system configuration
and to orchestrate migrations (see DESIGN.md §2 for the substitution note).
"""

from .errors import (
    BadVersionError,
    CoordError,
    NoNodeError,
    NodeExistsError,
    NotEmptyError,
    SessionClosedError,
)
from .kernel import CoordinationKernel, Session, WatchedEvent, ZNodeStat
from .recipes import LeaderElection

__all__ = [
    "LeaderElection",
    "BadVersionError",
    "CoordError",
    "CoordinationKernel",
    "NoNodeError",
    "NodeExistsError",
    "NotEmptyError",
    "Session",
    "SessionClosedError",
    "WatchedEvent",
    "ZNodeStat",
]
