"""StreamMine3G-like stream-processing runtime with live slice migration.

Operators with a fixed number of logical slices are deployed over
simulated hosts; events are routed by modulo hashing or broadcast with
per-channel sequence numbers; slices can be migrated live between hosts
with minimal service interruption (paper §IV).
"""

from .event import StreamEvent
from .handler import BROADCAST, SliceContext, SliceHandler
from .instance import SliceInstance
from .locks import RWLock
from .migration import MigrationError, MigrationReport, migrate_slice
from .runtime import EngineRuntime, LogicalSlice, MigrationCosts, OperatorInfo
from .retention import RetentionBuffer, RetentionLog
from .checkpoint import Checkpoint, CheckpointStore
from .recovery import DeadLetterQueue, RecoveryReport, ReliabilityCoordinator

__all__ = [
    "BROADCAST",
    "Checkpoint",
    "CheckpointStore",
    "DeadLetterQueue",
    "EngineRuntime",
    "LogicalSlice",
    "MigrationCosts",
    "MigrationError",
    "MigrationReport",
    "OperatorInfo",
    "RWLock",
    "RecoveryReport",
    "ReliabilityCoordinator",
    "RetentionBuffer",
    "RetentionLog",
    "SliceContext",
    "SliceHandler",
    "SliceInstance",
    "StreamEvent",
    "migrate_slice",
]
