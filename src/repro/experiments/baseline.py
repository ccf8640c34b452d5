"""Figure 6: baseline (static) STREAMHUB performance.

Top plot — maximal sustained throughput of static configurations of 2–12
engine hosts (1:2:1 AP:M:EP host split, 100 K stored subscriptions): the
highest publication rate *before events start accumulating* at the
operator inputs.  The paper measures perfectly linear scaling, reaching
422 publications/s on 12 hosts (42.2 M encrypted matching operations and
422 K notifications per second).

Bottom plot — notification delay percentiles when each configuration is
fed half its maximal throughput (the elasticity policy's target load).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..metrics import BacklogProbe, DelayStats
from .harness import Deployment, ExperimentSetup

__all__ = [
    "BaselineResult",
    "estimate_capacity",
    "is_rate_sustainable",
    "max_throughput",
    "measure_delays",
    "run_figure6",
]


@dataclass
class BaselineResult:
    """One configuration row of Figure 6."""

    hosts: int
    max_throughput: float
    delay_stats: Optional[DelayStats]
    delay_percentiles: List[Tuple[float, float]]


def estimate_capacity(total_hosts: int, setup: ExperimentSetup) -> float:
    """Analytic throughput bound from the cost model (bottleneck: M).

    Used only to seed the measurement's search interval — the reported
    numbers come from simulation.
    """
    from .harness import host_split

    split = host_split(total_hosts)
    m_cores = split["M"] * setup.host_cores
    per_slice = setup.cost_model.match_cost_s(
        setup.subscriptions // setup.m_slices
    )
    per_publication_core_s = setup.m_slices * per_slice
    return m_cores / per_publication_core_s


def _backlog_queues(deployment: Deployment):
    runtime = deployment.hub.runtime
    queues = {}
    for slice_id in deployment.hub.engine_slice_ids():
        logical = runtime.slices[slice_id]
        queues[slice_id] = (lambda inst: (lambda: inst.queue_length))(logical.active)
    return queues


def is_rate_sustainable(
    rate: float,
    setup: ExperimentSetup,
    total_hosts: int,
    window_s: float = 20.0,
    warmup_s: float = 3.0,
) -> bool:
    """Simulate ``rate`` on a fresh deployment; True if queues stay bounded."""
    deployment = Deployment(setup)
    deployment.deploy_static_split(total_hosts)
    deployment.preload_subscriptions()
    env = deployment.env
    deployment.source.publish_constant(rate, duration_s=warmup_s + window_s)
    probe = BacklogProbe(_backlog_queues(deployment))

    def sampler():
        while True:
            yield env.timeout(1.0)
            probe.sample(env.now)

    env.process(sampler())
    env.run(until=warmup_s + window_s)
    # Stability bound: two seconds' worth of in-flight fan-out events.
    influx_per_s = rate * (1 + setup.m_slices)
    return probe.is_stable(bound=int(2.0 * influx_per_s))


def max_throughput(
    total_hosts: int,
    setup: Optional[ExperimentSetup] = None,
    iterations: int = 6,
    window_s: float = 20.0,
) -> float:
    """Binary-search the saturation rate of a static configuration."""
    setup = setup or ExperimentSetup()
    estimate = estimate_capacity(total_hosts, setup)
    low, high = estimate * 0.5, estimate * 1.5
    # Widen if the seed interval misjudges the boundary.
    if is_rate_sustainable(high, setup, total_hosts, window_s):
        low, high = high, high * 2.0
    if not is_rate_sustainable(low, setup, total_hosts, window_s):
        low, high = low * 0.25, low
    for _ in range(iterations):
        mid = (low + high) / 2.0
        if is_rate_sustainable(mid, setup, total_hosts, window_s):
            low = mid
        else:
            high = mid
    return low


def measure_delays(
    total_hosts: int,
    rate: float,
    setup: Optional[ExperimentSetup] = None,
    duration_s: float = 30.0,
    warmup_s: float = 5.0,
    percentiles: Sequence[float] = (0.0, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0),
) -> Tuple[Optional[DelayStats], List[Tuple[float, float]]]:
    """Delay statistics at ``rate`` (Figure 6 bottom uses half of max)."""
    deployment = Deployment(setup or ExperimentSetup())
    deployment.deploy_static_split(total_hosts)
    deployment.preload_subscriptions()
    deployment.source.publish_constant(rate, duration_s=warmup_s + duration_s)
    deployment.env.run(until=warmup_s + duration_s + 5.0)
    tracker = deployment.hub.delay_tracker
    stats = tracker.stats(since=warmup_s)
    stack = tracker.percentile_stack(percentiles, since=warmup_s)
    return stats, stack


def run_figure6(
    host_counts: Sequence[int] = (2, 4, 6, 8, 10, 12),
    setup: Optional[ExperimentSetup] = None,
    search_iterations: int = 6,
    throughput_window_s: float = 20.0,
    delay_duration_s: float = 30.0,
) -> List[BaselineResult]:
    """Both Figure 6 panels for each static configuration."""
    setup = setup or ExperimentSetup()
    results = []
    for hosts in host_counts:
        throughput = max_throughput(
            hosts, setup, iterations=search_iterations, window_s=throughput_window_s
        )
        stats, stack = measure_delays(
            hosts, throughput / 2.0, setup, duration_s=delay_duration_s
        )
        results.append(
            BaselineResult(
                hosts=hosts,
                max_throughput=throughput,
                delay_stats=stats,
                delay_percentiles=stack,
            )
        )
    return results
