"""Per-destination flow-controlled channels over the network fabric.

A :class:`Channel` carries the event stream of one ``(source, destination
instance)`` pair.  It owns two policies the raw fabric does not have:

* **Latency-bounded adaptive flush** — in ``adaptive`` mode a channel
  accumulates emissions and flushes as one batched transfer when either
  ``flush_max_batch`` messages are pending (*full*) or the oldest pending
  message is about to exceed the ``flush_s`` delay budget (*deadline*).
  Lightly loaded channels pay at most the budget; busy channels flush at
  batch boundaries — replacing the fabric's global fixed ``batch_flush_s``
  epochs with a per-channel bound on added delay.

* **Credit-based backpressure** — with ``backpressure`` on, a channel
  starts with ``credit_window`` credits; each message on the wire consumes
  one, and the credit is granted back (after the channel's propagation
  latency) when the receiving instance dequeues or drops the message.  A
  channel out of credits *sheds to its spill queue* rather than blocking
  the emitting worker, so receiver inboxes are bounded by the credit
  window per inbound channel, no message is ever lost, and senders never
  stall inside ``process()`` — which keeps self-addressed delivery loops
  (the EP dispatch) deadlock-free.

* **Per-channel circuit breaking** — when the fabric reports the
  channel's ``(src, dst)`` pair partitioned
  (:meth:`~repro.cluster.Network.is_partitioned`), the channel opens a
  breaker instead of flushing into a black hole: pending messages shed
  to the spill queue (same accounting as credit starvation) and a timer
  re-probes the fabric every :data:`BREAKER_PROBE_S` until the partition
  heals, then flushes with cause ``heal``.  See RESILIENCE.md.

Per-channel FIFO order is preserved unconditionally: the pending queue is
FIFO, a flush always sends a prefix, and the fabric delivers batches in
order behind the shared NIC watermark — the invariant the migration
protocol relies on.  The channel's flow machinery runs on ``call_later``
callbacks of the simulation clock, so two identical runs make identical
flush/grant decisions and the DES stays bit-deterministic.

When the source slice migrates, subsequent enqueues re-bind the channel
to the source's new host; a credit-starved remainder enqueued from the
old host is then charged to the new host's NIC on flush — a deliberate
cost-model approximation confined to the migration window.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from ..cluster import Network
from ..sim import Environment
from .config import TransportConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.instance import SliceInstance

__all__ = ["Channel", "Transport"]

#: Re-probe period (simulated seconds) of a tripped circuit breaker.
BREAKER_PROBE_S = 0.5

#: Flush causes recorded per channel and in ``transport_flushes_total``.
#: ``heal`` is the flush a circuit breaker issues when the partition that
#: tripped it disappears from the fabric.
FLUSH_CAUSES = ("eager", "full", "deadline", "credit", "heal")


class Channel:
    """One flow-controlled (source, destination-instance) event stream."""

    __slots__ = (
        "_transport",
        "env",
        "network",
        "source_key",
        "instance",
        "dst_host",
        "_adaptive",
        "_budget",
        "_max_batch",
        "_bp",
        "credit_window",
        "credits",
        "_pending",
        "_src_host",
        "_deadline_token",
        "_starved_since",
        "_breaker_open",
        "breaker_trips",
        "stall_seconds_total",
        "stall_count",
        "messages_sent",
        "messages_spilled",
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
        self._adaptive = config.flush_mode == "adaptive"
        self._budget = config.flush_s
        self._max_batch = config.flush_max_batch
        self._bp = config.backpressure
        self.credit_window = config.credit_window
        #: Remaining send credits (meaningless unless backpressure is on).
        self.credits = config.credit_window
        self._pending: deque = deque()
        self._src_host: Optional[str] = None
        self._deadline_token = 0
        #: Simulated time since when the channel has pending messages it
        #: cannot send for lack of credits (``None`` = not starved).
        self._starved_since: Optional[float] = None
        #: True while the circuit breaker holds the channel off a
        #: partitioned fabric path (pending messages shed to spill).
        self._breaker_open = False
        self.breaker_trips = 0
        self.stall_seconds_total = 0.0
        self.stall_count = 0
        self.messages_sent = 0
        #: Messages that entered the pending queue while starved.
        self.messages_spilled = 0
        self.flush_causes: Dict[str, int] = dict.fromkeys(FLUSH_CAUSES, 0)
        self.released = False

    # -- introspection ------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Messages queued at the sender, not yet on the wire."""
        return len(self._pending)

    @property
    def starved(self) -> bool:
        """True while pending messages wait for credits."""
        return self._starved_since is not None

    @property
    def credits_outstanding(self) -> int:
        """Credits consumed by in-flight or not-yet-dequeued messages."""
        return self.credit_window - self.credits if self._bp else 0

    # -- send side ----------------------------------------------------------

    def enqueue(self, src_host: str, event) -> None:
        """Queue one message; flush per the channel's policy."""
        self._src_host = src_host
        pending = self._pending
        pending.append(event)
        if self._starved_since is not None:
            self.messages_spilled += 1
        if not self._adaptive:
            self._flush("eager")
            return
        if len(pending) == 1 and self._budget > 0.0:
            self._deadline_token += 1
            self.env.call_later(
                self._budget, self._on_deadline, self._deadline_token
            )
        if len(pending) >= self._max_batch:
            self._flush("full")
        elif self._budget <= 0.0:
            self._flush("eager")

    def enqueue_many(self, src_host: str, events) -> None:
        """Queue a run of messages emitted together (one routing pass)."""
        self._src_host = src_host
        pending = self._pending
        was_empty = not pending
        if self._starved_since is not None:
            self.messages_spilled += len(events)
        pending.extend(events)
        if not self._adaptive:
            self._flush("eager")
            return
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
        """Send the longest credit-covered prefix of the pending queue."""
        pending = self._pending
        if not pending or self.released or self._breaker_open:
            return
        if self.network.has_partitions and self.network.is_partitioned(
            self._src_host, self.dst_host
        ):
            self._trip_breaker()
            return
        n = len(pending)
        if self._bp:
            credits = self.credits
            if credits <= 0:
                if self._starved_since is None:
                    self._starved_since = self.env.now
                return
            if n > credits:
                n = credits
        if self._starved_since is not None:
            stall = self.env.now - self._starved_since
            self._starved_since = None
            self.stall_seconds_total += stall
            self.stall_count += 1
            hist = self._transport._tel_stall
            if hist is not None:
                hist.observe(stall)
        if n == len(pending):
            events = list(pending)
            pending.clear()
            # Any armed deadline timer now covers delivered messages.
            self._deadline_token += 1
        else:
            events = [pending.popleft() for _ in range(n)]
        if self._bp:
            self.credits -= n
        self.flush_causes[cause] += 1
        fam = self._transport._tel_flush
        if fam is not None:
            fam.labels(cause=cause).inc()
        self.messages_sent += n
        deliver = self.instance.deliver
        if n == 1:
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
        if pending and self._bp and self.credits <= 0:
            self._starved_since = self.env.now

    # -- circuit breaker ------------------------------------------------------

    def _trip_breaker(self) -> None:
        """The fabric path is partitioned: shed to spill, re-probe later.

        Instead of retrying into a black hole (every message would be
        dropped by the fabric and its credit lost for the partition's
        lifetime), the channel opens a breaker: pending messages park in
        the spill queue exactly as under credit starvation, and a probe
        timer re-checks the fabric every :data:`BREAKER_PROBE_S` until the
        partition heals, then flushes with cause ``heal``.
        """
        self._breaker_open = True
        self.breaker_trips += 1
        if self._starved_since is None:
            self._starved_since = self.env.now
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

    # -- receive side (credit grants) ---------------------------------------

    def consumed(self, n: int = 1) -> None:
        """The receiver dequeued/dropped ``n`` messages: grant credits back.

        The grant travels upstream with the channel's propagation latency
        (loopback for intra-host channels), mirroring a real credit frame.
        """
        if not self._bp or self.released:
            return
        latency = (
            self.network.loopback_latency
            if self._src_host == self.dst_host
            else self.network.latency
        )
        self.env.call_later(latency, self._on_grant, n)

    def _on_grant(self, n: int) -> None:
        if self.released:
            return
        # Cap at the window: an event a halted origin drops and later
        # re-splices on resume() returns its credit twice (see
        # SliceInstance.resume), and the cap absorbs the surplus.
        self.credits = min(self.credits + n, self.credit_window)
        if self._pending:
            self._flush("credit")


class Transport:
    """Registry of flow-controlled channels for one engine runtime.

    With the default configuration (``eager`` flush, no backpressure) the
    transport is a pure passthrough: :meth:`send`/:meth:`send_many` call
    the fabric directly with the receiving instance's ``deliver`` — the
    exact call sequence, and therefore the exact simulated trajectory, of
    the pre-transport engine.  Channels engage only when adaptive flush
    or backpressure is configured.

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
        self.config = config if config is not None else TransportConfig.from_env()
        self.passthrough = (
            self.config.flush_mode != "adaptive" and not self.config.backpressure
        )
        if self.config.flush_mode == "fixed":
            network.batch_flush_s = self.config.flush_s
        elif self.config.flush_mode == "adaptive":
            network.batch_flush_s = 0.0
        self._channels: Dict[Tuple[str, object], Channel] = {}
        self._by_instance: Dict[object, List[Channel]] = {}
        self._by_source: Dict[str, List[Channel]] = {}
        #: Pre-resolved telemetry instruments (``None`` until a bundle
        #: is bound).
        self._tel_flush = None
        self._tel_stall = None
        self._tel_breaker = None

    @property
    def backpressure(self) -> bool:
        return self.config.backpressure

    def bind_telemetry(self, telemetry) -> None:
        """Attach a :class:`repro.telemetry.Telemetry` bundle.

        Channels then feed ``transport_flushes_total`` (by cause) and the
        ``transport_stall_seconds`` histogram; the outstanding-credit and
        spill-depth gauges are sampled on the probe heartbeat instead
        (see :class:`repro.elastic.ProbeCollector`).
        """
        self._tel_flush = (
            telemetry.transport_flushes if telemetry is not None else None
        )
        self._tel_stall = (
            telemetry.transport_stall if telemetry is not None else None
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
            self._by_source.setdefault(source_key, []).append(channel)
        return channel

    def channel_count(self) -> int:
        return len(self._channels)

    def release_instance(self, instance) -> None:
        """Drop every channel delivering to ``instance`` (teardown).

        Spilled messages toward the destroyed instance are discarded —
        the same outcome as the fabric delivering to a destroyed
        instance, which drops on arrival.  Channels *from* the slice's
        logical id survive (they are keyed by source name), so emissions
        a predecessor instance spilled still reach their receivers.
        """
        for channel in self._by_instance.pop(instance, ()):
            channel.released = True
            del self._channels[(channel.source_key, instance)]
            self._by_source[channel.source_key].remove(channel)

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
        self.channel(source_key, instance).enqueue(src_host, event)

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
        self.channel(source_key, instance).enqueue_many(src_host, events)

    def on_consumed(self, instance, source_key: str, n: int = 1) -> None:
        """The receiver dequeued/dropped ``n`` messages of ``source_key``."""
        channel = self._channels.get((source_key, instance))
        if channel is not None:
            channel.consumed(n)

    # -- enforcer / probe signals -------------------------------------------

    def outbound_stats(self, source_key: str) -> Dict[str, float]:
        """Aggregated send-side flow state of one source's channels.

        ``spill_depth`` counts messages parked behind starved channels —
        the probe signal that upstream pressure, not local CPU, is the
        slice's bottleneck; ``starved_channels`` and the cumulative
        ``stall_seconds_total`` qualify it.
        """
        spill = 0
        starved = 0
        stall = 0.0
        for channel in self._by_source.get(source_key, ()):
            if channel.starved:
                starved += 1
                spill += channel.pending_count
            stall += channel.stall_seconds_total
        return {
            "spill_depth": spill,
            "starved_channels": starved,
            "stall_seconds_total": stall,
        }

    def inbound_credits_outstanding(self, instance) -> int:
        """Credits held by in-flight/queued messages toward ``instance``."""
        return sum(
            channel.credits_outstanding
            for channel in self._by_instance.get(instance, ())
        )

    def inbound_channel_count(self, instance) -> int:
        return len(self._by_instance.get(instance, ()))

    def pending_total(self) -> int:
        """Messages parked in channel queues anywhere in the runtime.

        The transport-held complement to instance inbox lengths: a
        stability probe that only watches inboxes would miss backlog
        that backpressure pushed back into spill queues.  Zero under
        the default passthrough (no channels exist).
        """
        return sum(
            channel.pending_count for channel in self._channels.values()
        )

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
