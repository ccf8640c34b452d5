"""Ablation: slice-selection strategy (paper §V design choice).

The enforcer selects slices to migrate by subset-sum DP, picking — among
all sets that shed enough CPU — the one with minimal memory, "to minimize
the cost and duration of migrations and to reduce service degradation".
This ablation runs the same elastic ramp with the paper's min-memory
selection, a greedy max-CPU selection and an arbitrary-order selection,
and compares the total state moved.
"""

from repro.experiments import run_selection_ablation
from repro.telemetry import format_table

from conftest import run_once


def test_selection_strategy_ablation(benchmark, report):
    rows = run_once(benchmark, lambda: run_selection_ablation())

    report()
    report("Ablation — slice selection strategy (same ramp, same policy)")
    report(
        format_table(
            ["variant", "migrations", "state moved MB", "decisions",
             "mean delay ms", "max hosts"],
            [
                [
                    r.variant,
                    r.migrations,
                    round(r.state_moved_mb, 1),
                    r.decisions,
                    round(r.mean_delay_s * 1000),
                    r.max_hosts,
                ]
                for r in rows
            ],
        )
    )

    by_variant = {r.variant: r for r in rows}
    paper = by_variant["min-memory (paper)"]
    greedy = by_variant["greedy-cpu"]
    # The paper's min-memory selection moves less state than the greedy
    # max-CPU selection, which preferentially grabs the state-heavy M
    # slices (the claim this design choice rests on).
    assert paper.state_moved_mb < greedy.state_moved_mb
    # All variants still scale the system (this ablation is about cost,
    # not about whether elasticity works).
    for r in rows:
        assert r.max_hosts >= 3
        assert r.migrations > 0
