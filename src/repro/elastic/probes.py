"""Load probes: per-slice and per-host resource usage (paper §IV-B).

Hosts send heartbeats carrying, for each slice, CPU, memory and network
usage; the manager aggregates them per slice and per host and forwards
them to the elasticity enforcer.  In the simulation the collector samples
the exact busy-time integrals of each host's CPU scheduler and the
engine's slice statistics at a fixed heartbeat interval.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..cluster import Host
from ..engine import EngineRuntime
from ..filtering import CostModel
from ..telemetry import percentile

__all__ = [
    "SliceProbe",
    "HostProbe",
    "DelayWindow",
    "DelayWindowAggregator",
    "ProbeSet",
    "ProbeCollector",
]


@dataclass(frozen=True)
class SliceProbe:
    """Aggregated usage of one logical slice over the last window."""

    slice_id: str
    host_id: str
    #: Average CPU cores consumed by the slice during the window.
    cpu_cores: float
    #: State footprint (bytes) — the migration cost signal.
    memory_bytes: int
    queue_length: int
    #: Events processed during the window.
    processed_delta: int = 0

    def demand_cores(
        self, window_s: float, cap_cores: float = 16.0, drain_windows: float = 3.0
    ) -> float:
        """Estimated cores needed to keep up *and* drain the backlog.

        Under saturation the measured ``cpu_cores`` is capped by the host's
        capacity and under-reports the offered load; the queue length says
        how far behind the slice is.  The estimate adds the cores needed to
        drain the queued events within ``drain_windows`` probe windows
        (draining over several windows tempers over-provisioning spikes),
        using the slice's own measured per-event cost.
        """
        if self.queue_length == 0:
            return self.cpu_cores
        if self.processed_delta > 0:
            per_event_core_s = self.cpu_cores * window_s / self.processed_delta
            drain = self.queue_length * per_event_core_s / (window_s * drain_windows)
        else:
            # Nothing processed but a backlog exists: at least double.
            drain = max(self.cpu_cores, 0.5)
        return min(self.cpu_cores + drain, cap_cores)


@dataclass(frozen=True)
class HostProbe:
    """Aggregated usage of one host over the last window."""

    host_id: str
    cores: int
    #: Average utilization in [0, 1] across all cores.
    cpu_utilization: float
    net_bytes_sent: int
    net_bytes_received: int


@dataclass(frozen=True)
class DelayWindow:
    """Notification-delay summary over the trailing probe window.

    Attached to a :class:`ProbeSet` when the collector was given a delay
    tracker (the p99 scale-in veto requires it); ``None`` otherwise.
    """

    #: Width of the sliding window (seconds).
    window_s: float
    #: Delay samples delivered inside the window.
    count: int
    p50_s: float
    p99_s: float
    max_s: float


#: Sliding window (simulated seconds) the p99 scale-in veto reads.
DELAY_WINDOW_S = 30.0


class DelayWindowAggregator:
    """Sliding p50/p99 over a :class:`~repro.telemetry.DelayTracker`.

    Consumes the tracker's append-only sample list incrementally (an
    index, never a rescan), keeps only samples delivered within the
    trailing :data:`DELAY_WINDOW_S`, and summarizes on demand.  Purely an
    observer: it never mutates the tracker.
    """

    def __init__(self, tracker):
        self.tracker = tracker
        self.window_s = DELAY_WINDOW_S
        self._next_index = 0
        self._window = deque()  # (delivered_at, delay) pairs, in order

    def window_at(self, now: float) -> Optional[DelayWindow]:
        """The delay window as of ``now`` (``None`` when it is empty)."""
        samples = self.tracker.samples
        while self._next_index < len(samples):
            sample = samples[self._next_index]
            self._next_index += 1
            self._window.append((sample.delivered_at, sample.delay))
        horizon = now - self.window_s
        window = self._window
        while window and window[0][0] < horizon:
            window.popleft()
        if not window:
            return None
        delays = sorted(delay for _, delay in window)
        return DelayWindow(
            window_s=self.window_s,
            count=len(delays),
            p50_s=percentile(delays, 0.50),
            p99_s=percentile(delays, 0.99),
            max_s=delays[-1],
        )


@dataclass(frozen=True)
class ProbeSet:
    """One complete heartbeat round: all hosts, all slices."""

    time: float
    window_s: float
    hosts: Dict[str, HostProbe]
    slices: Dict[str, SliceProbe]
    #: Trailing notification-delay window, when the collector aggregates
    #: one (see :class:`DelayWindowAggregator`); ``None`` otherwise.
    delay: Optional[DelayWindow] = None

    def average_utilization(self) -> float:
        """Average CPU load across hosts (the global-rule metric)."""
        if not self.hosts:
            return 0.0
        return sum(h.cpu_utilization for h in self.hosts.values()) / len(self.hosts)

    def total_load_cores(self) -> float:
        """Total busy cores across all hosts."""
        return sum(h.cpu_utilization * h.cores for h in self.hosts.values())

    def slices_on(self, host_id: str) -> List[SliceProbe]:
        return [s for s in self.slices.values() if s.host_id == host_id]


class ProbeCollector:
    """Samples hosts/slices every ``interval_s`` and notifies subscribers."""

    def __init__(
        self,
        runtime: EngineRuntime,
        managed_slices: List[str],
        hosts_fn: Callable[[], List[Host]],
        cost_model: Optional[CostModel] = None,
        interval_s: float = 5.0,
        telemetry=None,
        delay_tracker=None,
    ):
        """``telemetry`` is an optional :class:`repro.telemetry.Telemetry`
        bundle; each heartbeat then also refreshes the per-slice/per-host
        gauges and bumps ``heartbeats_total`` (see OBSERVABILITY.md).
        ``delay_tracker`` is an optional :class:`~repro.telemetry.DelayTracker`;
        probe sets then carry a :class:`DelayWindow` over the trailing
        :data:`DELAY_WINDOW_S` seconds (required by the p99 scale-in
        veto)."""
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        self.runtime = runtime
        self.env = runtime.env
        self.managed_slices = list(managed_slices)
        self.hosts_fn = hosts_fn
        self.cost_model = cost_model or CostModel()
        self.interval_s = interval_s
        self.telemetry = telemetry
        self.delay_aggregator = (
            DelayWindowAggregator(delay_tracker)
            if delay_tracker is not None
            else None
        )
        self.subscribers: List[Callable[[ProbeSet], None]] = []
        self._cpu_snapshots: Dict[str, object] = {}
        self._net_snapshots: Dict[str, object] = {}
        self._processed_counts: Dict[str, int] = {}
        self._process = None

    def subscribe(self, callback: Callable[[ProbeSet], None]) -> None:
        self.subscribers.append(callback)

    def start(self) -> None:
        if self._process is not None:
            raise RuntimeError("collector already started")
        self._process = self.env.process(self._run())

    def stop(self) -> None:
        """Stop the heartbeat loop (manager shutdown/failure)."""
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("stopped")
        self._process = None

    def collect_now(self) -> ProbeSet:
        """One heartbeat round (also used directly in tests)."""
        hosts = {}
        slice_cores: Dict[str, float] = {}
        for host in self.hosts_fn():
            cpu = host.cpu
            previous = self._cpu_snapshots.get(host.host_id)
            current = cpu.snapshot()
            if previous is not None:
                utilization = cpu.utilization_between(previous, current)
                per_tag = cpu.tag_core_usage_between(previous, current)
            else:
                utilization = 0.0
                per_tag = {}
            self._cpu_snapshots[host.host_id] = current
            slice_cores.update(per_tag)

            net = self.runtime.network.stats(host.host_id)
            previous_net = self._net_snapshots.get(host.host_id)
            sent = net.bytes_sent - (previous_net.bytes_sent if previous_net else 0)
            received = net.bytes_received - (
                previous_net.bytes_received if previous_net else 0
            )
            self._net_snapshots[host.host_id] = net.snapshot()

            hosts[host.host_id] = HostProbe(
                host_id=host.host_id,
                cores=host.spec.cores,
                cpu_utilization=min(1.0, utilization),
                net_bytes_sent=sent,
                net_bytes_received=received,
            )

        slices = {}
        for slice_id in self.managed_slices:
            stats = self.runtime.slice_stats(slice_id)
            previous_processed = self._processed_counts.get(slice_id, 0)
            self._processed_counts[slice_id] = stats["processed"]
            slices[slice_id] = SliceProbe(
                slice_id=slice_id,
                host_id=stats["host"],
                cpu_cores=slice_cores.get(slice_id, 0.0),
                memory_bytes=stats["state_bytes"] + self.cost_model.slice_base_bytes,
                queue_length=stats["queue_length"],
                processed_delta=max(0, stats["processed"] - previous_processed),
            )
        delay = (
            self.delay_aggregator.window_at(self.env.now)
            if self.delay_aggregator is not None
            else None
        )
        probe_set = ProbeSet(
            time=self.env.now,
            window_s=self.interval_s,
            hosts=hosts,
            slices=slices,
            delay=delay,
        )
        telemetry = self.telemetry
        if telemetry is not None:
            self._sample_telemetry(telemetry, probe_set)
        return probe_set

    def _sample_telemetry(self, telemetry, probe_set: ProbeSet) -> None:
        """Mirror one heartbeat round into the metric registry's gauges."""
        telemetry.heartbeats.inc()
        for host in probe_set.hosts.values():
            telemetry.host_cpu_utilization.labels(host=host.host_id).set(
                host.cpu_utilization
            )
        for probe in probe_set.slices.values():
            telemetry.slice_queue_depth.labels(slice=probe.slice_id).set(
                probe.queue_length
            )
            telemetry.slice_cpu_cores.labels(slice=probe.slice_id).set(
                probe.cpu_cores
            )
            telemetry.slice_state_bytes.labels(slice=probe.slice_id).set(
                probe.memory_bytes
            )

    def _run(self):
        from ..sim import Interrupt

        # Prime the snapshots so the first delivered window is meaningful.
        self.collect_now()
        try:
            while True:
                yield self.env.timeout(self.interval_s)
                probe_set = self.collect_now()
                for subscriber in list(self.subscribers):
                    subscriber(probe_set)
        except Interrupt:
            return
