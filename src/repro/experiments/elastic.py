"""Figures 8 and 9: elastic scaling under varying workloads.

Both experiments share the same shape (paper §VI-E): the system starts on
a *single* host running all 32 slices (8 AP + 16 M + 8 EP), is loaded with
100 K encrypted subscriptions, and is then driven by a publication-rate
profile — a synthetic trapezoid ramping to 350 publications/s for Figure 8
and the Frankfurt Stock Exchange trace (sped up, peak scaled to 190
publications/s) for Figure 9.  Four series are reported over 30-second
windows: the offered rate, the number of hosts, the min/avg/max per-host
CPU load, and the notification delays.

A ``time_scale`` parameter compresses the experiment relative to the
paper's wall-clock length (the control-loop constants — probe interval
and grace period — stay fixed, so very small scales leave the policy too
little time to converge; 0.25–1.0 preserves the dynamics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..coord import CoordinationKernel
from ..elastic import ElasticityManager, ElasticityPolicy, ManagerRecord
from ..engine import MigrationReport
from ..telemetry import WindowStats, WindowedSeries, percentile
from ..workloads import FrankfurtTraceModel, trapezoid
from .harness import Deployment, ExperimentSetup

__all__ = ["ElasticRunResult", "run_elastic", "run_figure8", "run_figure9"]


@dataclass
class ElasticRunResult:
    """Everything the elasticity plots need, in 30 s windows."""

    duration_s: float
    window_s: float
    #: (window start, offered publications/s).
    rate_series: List[Tuple[float, float]]
    #: (probe time, active engine hosts).
    host_series: List[Tuple[float, int]]
    #: (probe time, min, avg, max per-host CPU utilization).
    utilization_series: List[Tuple[float, float, float, float]]
    #: Notification delays aggregated per window.
    delay_windows: List[WindowStats]
    migration_reports: List[MigrationReport]
    decisions: List[ManagerRecord]
    published: int
    notified: int
    #: (delivered_at, delay) of every notified publication — the raw
    #: samples behind :attr:`delay_windows`, kept for percentile queries.
    delay_samples: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def max_hosts(self) -> int:
        return max((count for _, count in self.host_series), default=0)

    @property
    def final_hosts(self) -> int:
        return self.host_series[-1][1] if self.host_series else 0

    @property
    def first_scale_out_s(self) -> Optional[float]:
        """Time the first scale-out decision finished executing."""
        for record in self.decisions:
            if record.new_hosts > 0:
                return record.time
        return None

    def host_seconds(self) -> float:
        """Integral of the host count over probe time (cost proxy)."""
        total = 0.0
        for (t0, hosts), (t1, _) in zip(self.host_series, self.host_series[1:]):
            total += hosts * (t1 - t0)
        return total

    def delay_p99_s(self, since: float = 0.0) -> Optional[float]:
        """p99 of all notification delays delivered after ``since``."""
        values = sorted(
            delay for t, delay in self.delay_samples if t >= since
        )
        if not values:
            return None
        return percentile(values, 0.99)

    def utilization_envelope(self, since: float = 0.0, until: float = float("inf"),
                             min_hosts: int = 2) -> Tuple[float, float, float]:
        """(avg of mins, avg of avgs, avg of maxes) over multi-host probes.

        Single-host periods are excluded: with one host the envelope
        degenerates and the paper's 40–70% band statement concerns the
        scaled-out phases.
        """
        rows = [
            (lo, avg, hi)
            for (t, lo, avg, hi), (_, count) in zip(
                self.utilization_series, self.host_series
            )
            if since <= t < until and count >= min_hosts
        ]
        if not rows:
            return (0.0, 0.0, 0.0)
        n = len(rows)
        return (
            sum(r[0] for r in rows) / n,
            sum(r[1] for r in rows) / n,
            sum(r[2] for r in rows) / n,
        )


def run_elastic(
    rate_fn: Callable[[float], float],
    duration_s: float,
    setup: Optional[ExperimentSetup] = None,
    policy: Optional[ElasticityPolicy] = None,
    probe_interval_s: float = 5.0,
    window_s: float = 30.0,
    enforcer=None,
    drain_s: float = 30.0,
) -> ElasticRunResult:
    """Run one elastic-scaling experiment and collect its series."""
    setup = setup or ExperimentSetup()
    policy = policy or ElasticityPolicy()
    deployment = Deployment(setup)
    deployment.deploy_single_host()
    deployment.preload_subscriptions()
    env = deployment.env

    manager = ElasticityManager(
        deployment.hub,
        deployment.cloud,
        deployment.engine_hosts,
        policy=policy,
        enforcer=enforcer,
        coord=CoordinationKernel(),
        probe_interval_s=probe_interval_s,
    )
    host_series: List[Tuple[float, int]] = []
    utilization_series: List[Tuple[float, float, float, float]] = []

    def record(probes):
        utils = [h.cpu_utilization for h in probes.hosts.values()]
        if utils:
            host_series.append((probes.time, len(utils)))
            utilization_series.append(
                (probes.time, min(utils), sum(utils) / len(utils), max(utils))
            )

    manager.probe_listeners.append(record)
    manager.start()
    deployment.source.publish_profile(rate_fn, duration_s=duration_s)
    env.run(until=duration_s + drain_s)

    delay_series = WindowedSeries(window_s=window_s)
    for sample in deployment.hub.delay_tracker.samples:
        delay_series.add(sample.delivered_at, sample.delay)

    rate_series = [
        (t, rate_fn(min(t, duration_s - 1e-9)))
        for t in _window_starts(duration_s, window_s)
    ]
    return ElasticRunResult(
        duration_s=duration_s,
        window_s=window_s,
        rate_series=rate_series,
        host_series=host_series,
        utilization_series=utilization_series,
        delay_windows=delay_series.windows(),
        migration_reports=list(manager.migration_reports),
        decisions=list(manager.history),
        published=deployment.hub.published_count,
        notified=deployment.hub.notified_publications,
        delay_samples=[
            (sample.delivered_at, sample.delay)
            for sample in deployment.hub.delay_tracker.samples
        ],
    )


def _window_starts(duration_s: float, window_s: float) -> List[float]:
    starts = []
    t = 0.0
    while t < duration_s:
        starts.append(t)
        t += window_s
    return starts


def run_figure8(
    time_scale: float = 0.25,
    peak_rate: float = 350.0,
    setup: Optional[ExperimentSetup] = None,
    policy: Optional[ElasticityPolicy] = None,
) -> ElasticRunResult:
    """Synthetic benchmark: ramp 0 → ``peak_rate`` → 0 (paper Figure 8).

    At ``time_scale=1.0`` the profile matches the paper's pacing (about
    20 minutes of ramp-up, 10 of stability, 20 of ramp-down); the default
    compresses it 4× while keeping the same rates, hosts and envelopes.
    """
    if time_scale <= 0:
        raise ValueError("time_scale must be positive")
    ramp = 1200.0 * time_scale
    plateau = 600.0 * time_scale
    profile = trapezoid(ramp_up_s=ramp, plateau_s=plateau, ramp_down_s=ramp,
                        peak=peak_rate)
    duration = 2.0 * ramp + plateau + 300.0 * time_scale  # idle tail
    return run_elastic(profile, duration, setup=setup, policy=policy)


def run_figure9(
    time_scale: float = 0.5,
    peak_rate: float = 190.0,
    setup: Optional[ExperimentSetup] = None,
    policy: Optional[ElasticityPolicy] = None,
    trace: Optional[FrankfurtTraceModel] = None,
) -> ElasticRunResult:
    """Trace replay: the Frankfurt Stock Exchange day (paper Figure 9).

    At ``time_scale=1.0`` the trace is replayed at the paper's speed
    (one trace hour per three experiment minutes, 40 minutes total,
    peak scaled to 190 publications/s).
    """
    if time_scale <= 0:
        raise ValueError("time_scale must be positive")
    trace = trace or FrankfurtTraceModel()
    duration = 2400.0 * time_scale
    speedup = 20.0 / time_scale
    profile = trace.experiment_profile(
        peak_rate=peak_rate, speedup=speedup, start_hour=6.5
    )
    return run_elastic(profile, duration, setup=setup, policy=policy)
