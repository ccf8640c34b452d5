"""Configuration of the flow-controlled transport layer.

One :class:`TransportConfig` decides how per-destination channels batch
and pace the event plane on top of the raw network fabric
(:class:`~repro.cluster.Network`):

``flush_mode``
    ``eager`` (the default) hands every emission straight to the fabric —
    the seed behaviour, byte-identical scheduling.  ``fixed`` keeps eager
    channels but programs the fabric's per-sender flush epochs to
    ``flush_s`` (the StreamMine3G-style global micro-batching the
    experiments used before this layer existed).  ``adaptive`` batches in
    the channel itself: a channel flushes when ``flush_max_batch``
    messages are pending *or* when the oldest pending message is about to
    exceed the ``flush_s`` delay budget — so lightly loaded channels pay
    at most ``flush_s`` of batching delay while busy channels flush at
    batch boundaries, with the fabric's own epoch batching disabled.
``backpressure``
    When true, every channel starts with ``credit_window`` send credits;
    a message consumes one credit on the wire and the credit returns when
    the receiving slice instance dequeues (or drops) the message, after
    the channel's propagation latency.  A channel out of credits sheds to
    its spill queue instead of blocking the emitting worker — senders
    never stall inside ``process()``, which keeps the EP's self-addressed
    dispatch loop deadlock-free — so receiver inboxes stay bounded by
    ``credit_window`` per inbound channel and overload propagates
    upstream as spill/delay instead of unbounded memory.

The fields below are the only declaration of these knobs;
:meth:`TransportConfig.from_env`, the ``--net-*`` CLI flags and the two
variables the backpressure CI leg sets (``REPRO_NET_BACKPRESSURE``,
``REPRO_NET_CREDIT_WINDOW``) derive from them through :mod:`repro.config`,
so a test run flips flow control on without code changes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import from_env, knob

__all__ = ["FLUSH_MODES", "TransportConfig"]

#: Recognised channel flush modes.
FLUSH_MODES = ("eager", "fixed", "adaptive")


@dataclass(frozen=True)
class TransportConfig:
    """Validated knobs of the flow-controlled transport layer."""

    flush_mode: str = knob("eager", "channel flush policy", choices=FLUSH_MODES)
    #: Delay budget (``adaptive``) or fabric flush epoch (``fixed``), in
    #: simulated seconds.  Ignored by ``eager``.
    flush_s: float = knob(0.0, "per-channel flush delay budget in seconds")
    #: Pending messages that force an immediate flush in ``adaptive`` mode.
    flush_max_batch: int = knob(
        64, "flush as soon as this many messages are pending"
    )
    #: Enable credit-based backpressure on every channel.
    backpressure: bool = knob(
        False,
        "credit-based backpressure on every channel",
        env="REPRO_NET_BACKPRESSURE",
    )
    #: Send credits per channel (max in-flight + queued messages one
    #: channel may have at its receiver).
    credit_window: int = knob(
        256, "send credits per channel", env="REPRO_NET_CREDIT_WINDOW"
    )

    def __post_init__(self):
        if self.flush_mode not in FLUSH_MODES:
            raise ValueError(
                f"flush_mode must be one of {FLUSH_MODES}, "
                f"got {self.flush_mode!r}"
            )
        if self.flush_s < 0:
            raise ValueError(f"flush_s must be >= 0, got {self.flush_s}")
        if self.flush_max_batch < 1:
            raise ValueError(
                f"flush_max_batch must be >= 1, got {self.flush_max_batch}"
            )
        if self.credit_window < 1:
            raise ValueError(
                f"credit_window must be >= 1, got {self.credit_window}"
            )

    @classmethod
    def from_env(cls, **overrides) -> "TransportConfig":
        """``--net-*`` flag > ``REPRO_NET_*`` variable > default, validated
        once (see :func:`repro.config.from_env`)."""
        return from_env(cls, **overrides)
