"""Per-destination adaptive-flush channels over the network fabric.

A :class:`Channel` carries the event stream of one ``(source, destination
instance)`` pair under ``adaptive`` flush.  It owns two policies the raw
fabric does not have:

* **Latency-bounded adaptive flush** — a channel accumulates emissions
  and flushes them as one batched transfer when either
  ``flush_max_batch`` messages are pending (*full*) or the oldest pending
  message is about to exceed the ``flush_s`` delay budget (*deadline*).
  Lightly loaded channels pay at most the budget; busy channels flush at
  batch boundaries — replacing the fabric's global fixed ``batch_flush_s``
  epochs with a per-channel bound on added delay.

* **Per-channel circuit breaking** — when the fabric reports the
  channel's ``(src, dst)`` pair partitioned
  (:meth:`~repro.cluster.Network.is_partitioned`), the channel opens a
  breaker instead of flushing into a black hole: it holds its queue, and
  a timer re-probes the fabric every :data:`BREAKER_PROBE_S` until the
  partition heals, then flushes with cause ``heal``.  See RESILIENCE.md.

Per-channel FIFO order is preserved unconditionally: the pending queue is
FIFO, a flush sends all of it, and the fabric delivers batches in order
behind the shared NIC watermark — the invariant the migration protocol
relies on.  The channel's timers run on ``call_later`` callbacks of the
simulation clock, so two identical runs make identical flush decisions
and the DES stays bit-deterministic.

When the source slice migrates, subsequent enqueues re-bind the channel
to the source's new host; a remainder enqueued from the old host and
still pending is then charged to the new host's NIC on flush — a
deliberate cost-model approximation confined to the migration window.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from ..cluster import Network
from ..sim import Environment
from .config import TransportConfig

__all__ = ["Channel", "Transport"]

#: Re-probe period (simulated seconds) of a tripped circuit breaker.
BREAKER_PROBE_S = 0.5

#: Flush causes recorded per channel and in ``transport_flushes_total``.
#: ``heal`` is the flush a circuit breaker issues when the partition that
#: tripped it disappears from the fabric.
FLUSH_CAUSES = ("eager", "full", "deadline", "heal")


class Channel:
    """One adaptively flushed (source, destination-instance) event stream."""

    __slots__ = (
        "_transport",
        "env",
        "network",
        "source_key",
        "instance",
        "dst_host",
        "_budget",
        "_max_batch",
        "_pending",
        "_src_host",
        "_deadline_token",
        "_breaker_open",
        "breaker_trips",
        "flush_causes",
        "released",
    )

    def __init__(self, transport: "Transport", source_key: str, instance):
        self._transport = transport
        self.env: Environment = transport.env
        self.network: Network = transport.network
        self.source_key = source_key
        self.instance = instance
        self.dst_host: str = instance.host.host_id
        config = transport.config
        self._budget = config.flush_s
        self._max_batch = config.flush_max_batch
        self._pending: deque = deque()
        self._src_host: Optional[str] = None
        self._deadline_token = 0
        #: True while the circuit breaker holds the channel off a
        #: partitioned fabric path (pending messages stay queued).
        self._breaker_open = False
        self.breaker_trips = 0
        self.flush_causes: Dict[str, int] = dict.fromkeys(FLUSH_CAUSES, 0)
        self.released = False

    @property
    def pending_count(self) -> int:
        """Messages queued at the sender, not yet on the wire."""
        return len(self._pending)

    # -- send side ----------------------------------------------------------

    def enqueue(self, src_host: str, events) -> None:
        """Queue a run of messages emitted together; flush per the policy."""
        self._src_host = src_host
        pending = self._pending
        was_empty = not pending
        pending.extend(events)
        if was_empty and self._budget > 0.0:
            self._deadline_token += 1
            self.env.call_later(
                self._budget, self._on_deadline, self._deadline_token
            )
        if len(pending) >= self._max_batch:
            self._flush("full")
        elif self._budget <= 0.0:
            self._flush("eager")

    def _on_deadline(self, token: int) -> None:
        """Delay-budget timer: flush whatever is pending, once, if current."""
        if token != self._deadline_token or self.released:
            return
        if self._pending:
            self._flush("deadline")

    def _flush(self, cause: str) -> None:
        """Send the whole pending queue as one transfer."""
        pending = self._pending
        if not pending or self.released or self._breaker_open:
            return
        if self.network.has_partitions and self.network.is_partitioned(
            self._src_host, self.dst_host
        ):
            self._trip_breaker()
            return
        events = list(pending)
        pending.clear()
        # Any armed deadline timer now covers delivered messages.
        self._deadline_token += 1
        self.flush_causes[cause] += 1
        fam = self._transport._tel_flush
        if fam is not None:
            fam.labels(cause=cause).inc()
        deliver = self.instance.deliver
        if len(events) == 1:
            self.network.send(
                self._src_host, self.dst_host, events[0].size_bytes, events[0], deliver
            )
        else:
            self.network.send_batch(
                self._src_host,
                self.dst_host,
                [event.size_bytes for event in events],
                events,
                deliver,
            )

    # -- circuit breaker ------------------------------------------------------

    def _trip_breaker(self) -> None:
        """The fabric path is partitioned: hold the queue, re-probe later.

        Instead of retrying into a black hole (every message would be
        dropped by the fabric), the channel opens a breaker: pending
        messages stay queued, and a probe timer re-checks the fabric every
        :data:`BREAKER_PROBE_S` until the partition heals, then flushes
        with cause ``heal``.
        """
        self._breaker_open = True
        self.breaker_trips += 1
        fam = self._transport._tel_breaker
        if fam is not None:
            fam.inc()
        self.env.call_later(BREAKER_PROBE_S, self._probe_breaker)

    def _probe_breaker(self) -> None:
        if self.released or not self._breaker_open:
            return
        if self.network.is_partitioned(self._src_host, self.dst_host):
            self.env.call_later(BREAKER_PROBE_S, self._probe_breaker)
            return
        self._breaker_open = False
        if self._pending:
            self._flush("heal")


class Transport:
    """Registry of adaptive-flush channels for one engine runtime.

    Unless the flush mode is ``adaptive``, the transport is a pure
    passthrough: :meth:`send`/:meth:`send_many` call the fabric directly
    with the receiving instance's ``deliver`` — the exact call sequence,
    and therefore the exact simulated trajectory, of the pre-transport
    engine.  Channels exist only under adaptive flush.

    Construction programs the fabric to match the flush mode: ``fixed``
    installs ``flush_s`` as the fabric's per-sender flush epoch, and
    ``adaptive`` disables fabric epochs (the channel owns batching);
    ``eager`` leaves the fabric exactly as the caller built it.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        config: Optional[TransportConfig] = None,
    ):
        self.env = env
        self.network = network
        self.config = config if config is not None else TransportConfig()
        self.passthrough = self.config.flush_mode != "adaptive"
        if self.config.flush_mode == "fixed":
            network.batch_flush_s = self.config.flush_s
        elif self.config.flush_mode == "adaptive":
            network.batch_flush_s = 0.0
        self._channels: Dict[Tuple[str, object], Channel] = {}
        self._by_instance: Dict[object, List[Channel]] = {}
        #: Pre-resolved telemetry instruments (``None`` until a bundle
        #: is bound).
        self._tel_flush = None
        self._tel_breaker = None

    def bind_telemetry(self, telemetry) -> None:
        """Attach a :class:`repro.telemetry.Telemetry` bundle.

        Channels then feed ``transport_flushes_total`` (by cause) and
        ``transport_breaker_trips_total``.
        """
        self._tel_flush = (
            telemetry.transport_flushes if telemetry is not None else None
        )
        self._tel_breaker = (
            telemetry.breaker_trips if telemetry is not None else None
        )

    # -- channel registry ---------------------------------------------------

    def channel(self, source_key: str, instance) -> Channel:
        """The channel for ``(source_key, instance)``, created on first use."""
        key = (source_key, instance)
        channel = self._channels.get(key)
        if channel is None:
            channel = Channel(self, source_key, instance)
            self._channels[key] = channel
            self._by_instance.setdefault(instance, []).append(channel)
        return channel

    def channel_count(self) -> int:
        return len(self._channels)

    def release_instance(self, instance) -> None:
        """Drop every channel delivering to ``instance`` (teardown).

        Messages still queued toward the destroyed instance are discarded
        — the same outcome as the fabric delivering to a destroyed
        instance, which drops on arrival.  Channels *from* the slice's
        logical id survive (they are keyed by source name), so emissions
        a predecessor instance queued still reach their receivers.
        """
        for channel in self._by_instance.pop(instance, ()):
            channel.released = True
            del self._channels[(channel.source_key, instance)]

    # -- data plane ---------------------------------------------------------

    def send(self, source_key: str, src_host: str, instance, event) -> None:
        """Carry one event to ``instance`` (routing already resolved)."""
        if self.passthrough:
            self.network.send(
                src_host,
                instance.host.host_id,
                event.size_bytes,
                event,
                instance.deliver,
            )
            return
        self.channel(source_key, instance).enqueue(src_host, (event,))

    def send_many(self, source_key: str, src_host: str, instance, events) -> None:
        """Carry a same-destination run of events emitted together."""
        if self.passthrough:
            if len(events) == 1:
                self.network.send(
                    src_host,
                    instance.host.host_id,
                    events[0].size_bytes,
                    events[0],
                    instance.deliver,
                )
            else:
                self.network.send_batch(
                    src_host,
                    instance.host.host_id,
                    [event.size_bytes for event in events],
                    events,
                    instance.deliver,
                )
            return
        self.channel(source_key, instance).enqueue(src_host, events)

    def on_consumed(self, instance, source_key: str, n: int = 1) -> None:
        """No-op; the engine never calls it.  Deliberate leftover:
        ``perfbench/layers.py`` wraps ``Transport.__dict__["on_consumed"]``
        (its ``transport.consumed`` span) and raises ``KeyError`` without
        it, so it goes with ``prepare_batch`` in the change that has
        ``perfbench/**`` in bounds."""

    def breaker_trips_total(self) -> int:
        """Circuit-breaker trips summed over all channels."""
        return sum(
            channel.breaker_trips for channel in self._channels.values()
        )

    def flush_cause_totals(self) -> Dict[str, int]:
        """Flush counts by cause, summed over all channels."""
        totals = dict.fromkeys(FLUSH_CAUSES, 0)
        for channel in self._channels.values():
            for cause, count in channel.flush_causes.items():
                totals[cause] += count
        return totals
