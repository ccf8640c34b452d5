"""Transport: latency-bounded adaptive flush + per-channel circuit breaking.

This package is the engine's communication layer between the routing
logic (:mod:`repro.engine.runtime`) and the raw network fabric
(:mod:`repro.cluster.network`).  A :class:`Transport` owns one
:class:`Channel` per (source, destination-instance) pair under
``adaptive`` flush; each channel batches with a per-channel delay budget
and holds its queue while the fabric path is partitioned, as configured
by :class:`TransportConfig`.  See DESIGN.md §9 for the protocol and the
determinism argument.
"""

from .config import FLUSH_MODES, TransportConfig
from .channel import Channel, Transport

__all__ = ["Channel", "FLUSH_MODES", "Transport", "TransportConfig"]
