"""Ablation: the grace period between enforcement actions.

The paper's policy "specifies a grace period of at least 30 seconds".
A trigger-happy enforcer (short grace) reacts to every transient probe,
producing more scaling decisions and more migrations; a long grace reacts
sluggishly to ramps.  This ablation quantifies the trade-off.
"""

from repro.experiments import run_grace_period_ablation
from repro.telemetry import format_table

from conftest import run_once


def test_grace_period_ablation(benchmark, report):
    rows = run_once(
        benchmark, lambda: run_grace_period_ablation(grace_periods_s=(5.0, 30.0, 90.0))
    )

    report()
    report("Ablation — grace period between scaling actions")
    report(
        format_table(
            ["variant", "decisions", "migrations", "state moved MB",
             "mean delay ms", "max delay ms", "max hosts"],
            [
                [
                    r.variant,
                    r.decisions,
                    r.migrations,
                    round(r.state_moved_mb, 1),
                    round(r.mean_delay_s * 1000),
                    round(r.max_delay_s * 1000),
                    r.max_hosts,
                ]
                for r in rows
            ],
        )
    )

    by_variant = {r.variant: r for r in rows}
    short, paper, long_ = (
        by_variant["grace=5s"],
        by_variant["grace=30s"],
        by_variant["grace=90s"],
    )
    # A short grace produces more (churny) decisions than the paper's 30 s.
    assert short.decisions >= paper.decisions
    # A long grace cannot decide more often than the paper's setting.
    assert long_.decisions <= paper.decisions
    # All variants elastically scale the deployment.
    for r in rows:
        assert r.max_hosts >= 3
