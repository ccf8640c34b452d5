"""Table I and Figure 7: operator slice migration performance.

Table I measures, over 25 migrations per operator, the time to migrate a
slice of each operator under a constant flow of 100 publications/s:
AP (stateless) ≈ 232 ± 31 ms, EP (small transient state) ≈ 275 ± 52 ms,
M with 12.5 K stored subscriptions per slice ≈ 1 497 ± 354 ms and with
50 K ≈ 2 533 ± 1 557 ms.  The configuration uses 4 AP, 8 M and 4 EP
slices on 2 + 4 + 2 hosts.

Figure 7 shows the notification delay over time while consecutively
migrating two AP slices, two M slices and one EP slice: the delay rises
from ≈ 500 ms steady state to below two seconds around the M migrations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Tuple

from ..telemetry import WindowStats, WindowedSeries
from .harness import Deployment, ExperimentSetup

__all__ = [
    "MigrationTimingRow",
    "Figure7Result",
    "migration_setup",
    "run_table1",
    "run_figure7",
]


def migration_setup(subscriptions: int = 100_000) -> ExperimentSetup:
    """The migration experiments' slice/host configuration (paper §VI-D)."""
    return ExperimentSetup(
        subscriptions=subscriptions,
        ap_slices=4,
        m_slices=8,
        ep_slices=4,
    )


@dataclass
class MigrationTimingRow:
    """One Table I row."""

    operator: str
    subscriptions_per_slice: int
    samples_ms: List[float]

    @property
    def average_ms(self) -> float:
        return sum(self.samples_ms) / len(self.samples_ms)

    @property
    def std_ms(self) -> float:
        mean = self.average_ms
        return math.sqrt(
            sum((s - mean) ** 2 for s in self.samples_ms) / len(self.samples_ms)
        )


def _safe_rate(requested: float, setup: ExperimentSetup) -> float:
    """Cap the flow below saturation for the migration deployment.

    Table I nominally uses 100 publications/s; with 50 K subscriptions per
    M slice that rate would exceed the 4 M hosts' filtering capacity (the
    paper does not state how the flow was adjusted for the 500 K workload),
    so we cap it at 45% of the analytic capacity — the same "slightly less
    than half the maximal throughput" regime the paper describes.
    """
    per_slice = setup.subscriptions // setup.m_slices
    per_publication_core_s = setup.m_slices * setup.cost_model.match_cost_s(per_slice)
    capacity = 4 * setup.host_cores / per_publication_core_s  # 4 M hosts
    return min(requested, 0.45 * capacity)


def _timed_migrations(
    deployment: Deployment,
    operator: str,
    count: int,
    rate_per_s: float,
    settle_s: float,
    seed: int,
) -> List[float]:
    """Run ``count`` random migrations of ``operator`` under constant flow."""
    from ..pubsub.source import SourceDriver

    env = deployment.env
    runtime = deployment.hub.runtime
    rng = random.Random(seed)
    durations: List[float] = []

    def migrate_loop():
        yield env.timeout(settle_s)  # let the flow reach steady state
        slice_ids = runtime.slice_ids(operator)
        for _ in range(count):
            slice_id = rng.choice(slice_ids)
            current = runtime.host_of(slice_id)
            others = [h for h in deployment.engine_hosts if h is not current]
            destination = rng.choice(others)
            report = yield runtime.migrate(slice_id, destination)
            durations.append(report.duration_s * 1000.0)
            yield env.timeout(settle_s)

    driver = env.process(migrate_loop())
    horizon = settle_s * (count + 2) + count * 10.0
    source = SourceDriver(deployment.hub, seed=seed, poisson=True)
    source.publish_constant(rate_per_s, duration_s=horizon)
    env.run(until=driver)
    return durations


def run_table1(
    migrations_per_operator: int = 25,
    rate_per_s: float = 100.0,
    subscriptions_per_m_slice: Tuple[int, ...] = (12_500, 50_000),
    settle_s: float = 2.0,
    seed: int = 11,
) -> List[MigrationTimingRow]:
    """All Table I rows (AP, M per workload size, EP)."""
    rows: List[MigrationTimingRow] = []
    m_slices = migration_setup().m_slices

    def fresh(subs: int) -> Tuple[Deployment, float]:
        setup = migration_setup(subs)
        deployment = Deployment(setup)
        deployment.deploy_groups(ap_hosts=2, m_hosts=4, ep_hosts=2)
        deployment.preload_subscriptions()
        return deployment, _safe_rate(rate_per_s, setup)

    base_subs = subscriptions_per_m_slice[0] * m_slices
    deployment, rate = fresh(base_subs)
    rows.append(
        MigrationTimingRow(
            operator="AP",
            subscriptions_per_slice=0,
            samples_ms=_timed_migrations(
                deployment, deployment.hub.AP, migrations_per_operator,
                rate, settle_s, seed,
            ),
        )
    )
    for per_slice in subscriptions_per_m_slice:
        deployment, rate = fresh(per_slice * m_slices)
        rows.append(
            MigrationTimingRow(
                operator=f"M ({per_slice / 1000:g} K)",
                subscriptions_per_slice=per_slice,
                samples_ms=_timed_migrations(
                    deployment, deployment.hub.M, migrations_per_operator,
                    rate, settle_s, seed + per_slice,
                ),
            )
        )
    deployment, rate = fresh(base_subs)
    rows.append(
        MigrationTimingRow(
            operator="EP",
            subscriptions_per_slice=0,
            samples_ms=_timed_migrations(
                deployment, deployment.hub.EP, migrations_per_operator,
                rate, settle_s, seed + 1,
            ),
        )
    )
    return rows


@dataclass
class Figure7Result:
    """Delay-over-time series with migration markers."""

    delay_windows: List[WindowStats]
    #: (time, slice id) for each migration performed.
    migration_marks: List[Tuple[float, str]]
    steady_state_mean_s: float
    peak_delay_s: float


def run_figure7(
    rate_per_s: float = 100.0,
    subscriptions: int = 100_000,
    window_s: float = 2.0,
    seed: int = 13,
) -> Figure7Result:
    """Delay impact of consecutive AP, M and EP migrations."""
    deployment = Deployment(migration_setup(subscriptions))
    deployment.deploy_groups(ap_hosts=2, m_hosts=4, ep_hosts=2)
    deployment.preload_subscriptions()
    env = deployment.env
    runtime = deployment.hub.runtime
    rng = random.Random(seed)
    marks: List[Tuple[float, str]] = []

    def pick_destination(slice_id):
        current = runtime.host_of(slice_id)
        return rng.choice([h for h in deployment.engine_hosts if h is not current])

    def migration_plan():
        # Two AP migrations, two M migrations, one EP migration, spaced out
        # (paper Figure 7's schedule).
        yield env.timeout(30.0)
        for operator, count in ((deployment.hub.AP, 2), (deployment.hub.M, 2),
                                (deployment.hub.EP, 1)):
            for _ in range(count):
                slice_id = rng.choice(runtime.slice_ids(operator))
                marks.append((env.now, slice_id))
                yield runtime.migrate(slice_id, pick_destination(slice_id))
                yield env.timeout(5.0)
            yield env.timeout(15.0)

    duration = 140.0
    deployment.source.publish_constant(rate_per_s, duration_s=duration)
    env.process(migration_plan())
    env.run(until=duration + 10.0)

    series = WindowedSeries(window_s=window_s)
    for sample in deployment.hub.delay_tracker.samples:
        series.add(sample.delivered_at, sample.delay)
    windows = series.windows()
    steady = [w.mean for w in windows if w.window_start < 28.0]
    steady_mean = sum(steady) / len(steady) if steady else 0.0
    peak = max((w.maximum for w in windows), default=0.0)
    return Figure7Result(
        delay_windows=windows,
        migration_marks=marks,
        steady_state_mean_s=steady_mean,
        peak_delay_s=peak,
    )
