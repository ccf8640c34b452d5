"""Flow-controlled transport: adaptive flush + credit-based backpressure.

This package is the engine's communication layer between the routing
logic (:mod:`repro.engine.runtime`) and the raw network fabric
(:mod:`repro.cluster.network`).  A :class:`Transport` owns one
:class:`Channel` per (source, destination-instance) pair; each channel
batches with a per-channel delay budget (latency-bounded adaptive flush)
and paces itself with receiver-granted credits (backpressure), as
configured by :class:`TransportConfig` / the ``REPRO_NET_*`` environment
knobs.  See DESIGN.md §9 for the protocol and the determinism argument.
"""

from .config import FLUSH_MODES, TransportConfig
from .channel import Channel, Transport

__all__ = ["Channel", "FLUSH_MODES", "Transport", "TransportConfig"]
