"""Simulated switched network fabric.

The paper's testbed interconnects hosts with a 1 Gbps switched network.  We
model each host's NIC as a FIFO serialization point: an outgoing message
occupies the NIC for ``size / bandwidth`` seconds behind any earlier
messages, then arrives after a propagation latency.  This yields both the
transfer times that dominate operator-state migration and queueing delay
under load.

The implementation is deliberately O(1) kernel steps per message (a single
scheduled arrival call, no event object): the engine moves hundreds of
thousands of messages per experiment, so per-message process machinery
would dominate the run time.  FIFO NIC occupancy is tracked analytically
via a ``free_at`` watermark per NIC, which is exactly equivalent to a
non-preemptive single-server queue.

Intra-host messages bypass the NIC and are delivered after a small
loopback latency.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Dict, Sequence, Set, Tuple

from ..sim import Environment

__all__ = ["Network", "NicStats"]


class NicStats:
    """Cumulative counters of one host's NIC."""

    def __init__(self) -> None:
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        self.messages_received = 0
        #: Batched group transfers sent (each carries >= 1 messages).
        self.batches_sent = 0


class Network:
    """A full-bisection switched fabric connecting simulated hosts.

    ``bandwidth_bytes_per_s`` is the per-NIC capacity (1 Gbps ≈ 1.25e8 B/s);
    ``latency_s`` the one-way propagation + protocol latency between two
    hosts; ``loopback_latency_s`` the cost of an intra-host hop.
    """

    def __init__(
        self,
        env: Environment,
        bandwidth_bytes_per_s: float = 1.25e8,
        latency_s: float = 0.5e-3,
        loopback_latency_s: float = 0.05e-3,
    ):
        if bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if latency_s < 0 or loopback_latency_s < 0:
            raise ValueError("latencies must be non-negative")
        self.env = env
        self.bandwidth = bandwidth_bytes_per_s
        self.latency = latency_s
        self.loopback_latency = loopback_latency_s
        #: Per-sender micro-batching: inter-host messages depart at the
        #: sender's next flush epoch (StreamMine3G batches channel events
        #: for throughput; this is where most of the paper's steady-state
        #: notification delay comes from).  Flush epochs are per sender and
        #: phase-shifted, so per-channel FIFO order is preserved — which
        #: the migration protocol relies on.  0 disables batching; the
        #: transport layer programs it (``flush_mode="fixed"``).
        self.batch_flush_s = 0.0
        self._flush_phase: Dict[str, float] = {}
        #: Simulated time until which each attached NIC is busy sending.
        self._nic_free_at: Dict[str, float] = {}
        self._stats: Dict[str, NicStats] = {}
        #: Ordered (src, dst) host pairs whose link is currently cut.
        #: Checked at send time only — transfers already in flight when
        #: the partition starts still arrive (they left the sender's NIC).
        self._partitions: Set[Tuple[str, str]] = set()
        #: Messages dropped at send time by an active partition.
        self.partition_drops = 0
        #: Pre-resolved telemetry counters (``None`` until a bundle is
        #: bound; the unbound cost is one ``is None``).
        self._tel_messages = None
        self._tel_batches = None
        self._tel_bytes = None
        self._tel_partition_drops = None

    def bind_telemetry(self, telemetry) -> None:
        """Attach a :class:`repro.telemetry.Telemetry` bundle.

        ``send``/``send_batch`` then also feed the fabric-wide
        ``net_messages_sent_total`` / ``net_batches_sent_total`` /
        ``net_bytes_sent_total`` counters (the per-host ``NicStats``
        counters are unconditional and unchanged).
        """
        self._tel_messages = telemetry.net_messages if telemetry is not None else None
        self._tel_batches = telemetry.net_batches if telemetry is not None else None
        self._tel_bytes = telemetry.net_bytes if telemetry is not None else None
        self._tel_partition_drops = (
            telemetry.partition_drops if telemetry is not None else None
        )

    def attach(self, host_id: str) -> None:
        """Register a host NIC on the fabric (idempotent)."""
        self._nic_free_at.setdefault(host_id, self.env.now)

    def detach(self, host_id: str) -> None:
        """Remove a host NIC (released hosts)."""
        self._nic_free_at.pop(host_id, None)

    def is_attached(self, host_id: str) -> bool:
        return host_id in self._nic_free_at

    # -- link partitions -----------------------------------------------------

    def partition(self, group_a: Sequence[str], group_b: Sequence[str]) -> None:
        """Cut every link between ``group_a`` and ``group_b`` (both ways).

        Partitioned sends are dropped at the sender — the transfer is
        charged to the NIC as usual but no delivery is scheduled, exactly
        like frames vanishing inside a dead switch.  Loopback (src == dst)
        is never partitioned.  Idempotent; heal with :meth:`heal`.
        """
        for a in group_a:
            for b in group_b:
                if a == b:
                    continue
                self._partitions.add((a, b))
                self._partitions.add((b, a))

    def heal(self, group_a: Sequence[str] = None, group_b: Sequence[str] = None) -> None:
        """Restore cut links.

        With no arguments every partition heals; with two groups only the
        links between them are restored.
        """
        if group_a is None and group_b is None:
            self._partitions.clear()
            return
        for a in group_a or ():
            for b in group_b or ():
                self._partitions.discard((a, b))
                self._partitions.discard((b, a))

    def is_partitioned(self, src: str, dst: str) -> bool:
        """True when messages from ``src`` to ``dst`` are being dropped."""
        return (src, dst) in self._partitions

    @property
    def has_partitions(self) -> bool:
        return bool(self._partitions)

    def _drop_partitioned(self, count: int) -> None:
        self.partition_drops += count
        if self._tel_partition_drops is not None:
            self._tel_partition_drops.inc(count)

    def stats(self, host_id: str) -> NicStats:
        """Byte counters for ``host_id`` (counters survive detach)."""
        if host_id not in self._stats:
            self._stats[host_id] = NicStats()
        return self._stats[host_id]

    def transfer_time(self, size_bytes: int) -> float:
        """Pure serialization time of ``size_bytes`` at NIC bandwidth."""
        return size_bytes / self.bandwidth

    def send(
        self,
        src: str,
        dst: str,
        size_bytes: int,
        payload: Any,
        deliver: Callable[[Any], None],
    ) -> float:
        """Schedule an asynchronous message transfer.

        ``deliver(payload)`` is invoked at the destination at the returned
        arrival time.  The caller does not block.
        """
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        now = self.env.now
        src_stats = self.stats(src)
        src_stats.bytes_sent += size_bytes
        src_stats.messages_sent += 1
        if self._tel_messages is not None:
            self._tel_messages.inc()
            self._tel_bytes.inc(size_bytes)
        arrival = self._arrival_time(src, dst, size_bytes, now)
        if self._partitions and (src, dst) in self._partitions:
            self._drop_partitioned(1)
            return arrival
        # ``now + (arrival - now)`` is not always ``arrival``; the schedule
        # keeps the rounding every recorded delay was measured with.
        self.env.call_later(
            arrival - now, _arrive, self.stats(dst), size_bytes, payload, deliver
        )
        return arrival

    def ship(self, src: str, dst: str, size_bytes: int):
        """Send ``size_bytes`` of bulk state; returns its arrival event.

        State copies, checkpoints and replays yield on it.  A partitioned
        link drops the transfer like any other send, so the event never
        fires: a caller that must not hang checks :meth:`is_partitioned`
        first.
        """
        arrived = self.env.event()
        self.send(src, dst, size_bytes, None, arrived.succeed)
        return arrived

    def send_batch(
        self,
        src: str,
        dst: str,
        sizes: Sequence[int],
        payloads: Sequence[Any],
        deliver: Callable[[Any], None],
    ) -> float:
        """Send a group of messages as *one* batched transfer.

        The group occupies the sender's NIC for the summed serialization
        time and pays the propagation latency once; every payload is
        delivered in order at the same arrival time.  FIFO ordering with
        surrounding :meth:`send` calls is preserved through the shared NIC
        watermark.  Byte/message counters account each message of the
        group individually; ``batches_sent`` counts the group once.
        """
        if len(sizes) != len(payloads):
            raise ValueError("sizes and payloads must have the same length")
        if not payloads:
            raise ValueError("cannot send an empty batch")
        if min(sizes) < 0:
            raise ValueError("size_bytes must be non-negative")
        total = sum(sizes)
        now = self.env.now
        src_stats = self.stats(src)
        src_stats.bytes_sent += total
        src_stats.messages_sent += len(payloads)
        src_stats.batches_sent += 1
        if self._tel_messages is not None:
            self._tel_messages.inc(len(payloads))
            self._tel_batches.inc()
            self._tel_bytes.inc(total)
        arrival = self._arrival_time(src, dst, total, now)
        if self._partitions and (src, dst) in self._partitions:
            self._drop_partitioned(len(payloads))
            return arrival
        self.env.call_later(
            arrival - now, _arrive_batch, self.stats(dst), total, payloads, deliver
        )
        return arrival

    def _arrival_time(self, src: str, dst: str, size_bytes: int, now: float) -> float:
        """Arrival time of one transfer, advancing the sender's NIC FIFO."""
        if src == dst:
            return now + self.loopback_latency
        serialization = size_bytes / self.bandwidth
        free_at = self._nic_free_at.get(src, now)
        departure = max(self._next_flush(src, now), free_at) + serialization
        if src in self._nic_free_at:
            # Attached senders occupy their NIC FIFO; external clients
            # (not attached) only pay their own serialization time.
            self._nic_free_at[src] = departure
        return departure + self.latency

    def nic_busy_until(self, host_id: str) -> float:
        """Watermark until which the NIC of ``host_id`` is busy sending."""
        return max(self._nic_free_at.get(host_id, self.env.now), self.env.now)

    def _next_flush(self, src: str, now: float) -> float:
        """Earliest departure honoring the sender's flush epochs."""
        interval = self.batch_flush_s
        if interval <= 0.0:
            return now
        phase = self._flush_phase.get(src)
        if phase is None:
            # Deterministic per-sender phase shift in [0, interval).
            # (zlib.crc32 is stable across processes, unlike str hashing.)
            phase = (zlib.crc32(src.encode("utf-8")) % 997) / 997.0 * interval
            self._flush_phase[src] = phase
        epochs = int((now - phase) / interval) + 1
        return phase + epochs * interval


def _arrive(stats: NicStats, size_bytes: int, payload: Any, deliver: Callable[[Any], None]) -> None:
    """A transfer reaches its destination NIC: count it in, hand it over."""
    stats.bytes_received += size_bytes
    stats.messages_received += 1
    deliver(payload)


def _arrive_batch(
    stats: NicStats,
    total_bytes: int,
    payloads: Sequence[Any],
    deliver: Callable[[Any], None],
) -> None:
    stats.bytes_received += total_bytes
    stats.messages_received += len(payloads)
    for payload in payloads:
        deliver(payload)
