"""Ablation: the target (ideal) CPU utilization.

The paper packs hosts to a 50% target — headroom to absorb load changes
between enforcement rounds, at the cost of running more hosts.  This
ablation sweeps the target and reports the trade-off between host usage
(the cloud bill) and delay behaviour.
"""

from repro.experiments import run_target_utilization_ablation
from repro.telemetry import format_table

from conftest import run_once


def test_target_utilization_ablation(benchmark, report):
    rows = run_once(
        benchmark, lambda: run_target_utilization_ablation(targets=(0.35, 0.50, 0.65))
    )

    report()
    report("Ablation — target utilization (paper: 50%)")
    report(
        format_table(
            ["variant", "max hosts", "migrations", "mean delay ms", "max delay ms"],
            [
                [
                    r.variant,
                    r.max_hosts,
                    r.migrations,
                    round(r.mean_delay_s * 1000),
                    round(r.max_delay_s * 1000),
                ]
                for r in rows
            ],
        )
    )

    by_variant = {r.variant: r for r in rows}
    cool, paper, hot = (
        by_variant["target=35%"],
        by_variant["target=50%"],
        by_variant["target=65%"],
    )
    # Cooler targets buy headroom with more hosts; hotter targets pack
    # tighter.  (Weak inequalities: discrete host counts.)
    assert cool.max_hosts >= paper.max_hosts >= hot.max_hosts
    assert cool.max_hosts > hot.max_hosts
    for r in rows:
        assert r.max_hosts >= 2
