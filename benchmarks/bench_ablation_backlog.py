"""Ablation: backlog-aware scale-out sizing (extension over the paper).

The paper's enforcer sizes scale-outs from measured CPU utilization only.
Under saturation the measurement is capped at host capacity, so a load
step is answered by several successive partial scale-outs (one per grace
period).  Our extension folds the probes' queue lengths into the demand
estimate (``SliceProbe.demand_cores``), letting a single decision reach
the needed host count.  The worst-case delay is similar for both (it is
dominated by the control latency before the *first* decision plus the
migration sync); what backlog-awareness buys is convergence: adequate
capacity one grace period earlier, with fewer scaling rounds.
"""

from repro.elastic import ElasticityPolicy
from repro.experiments import run_elastic
from repro.experiments.ablations import AblationRow, _ablation_setup
from repro.telemetry import format_table
from repro.workloads import staircase

from conftest import run_once


def _run(backlog_aware: bool):
    # A load step to 210 pub/s against a 1-host cold start (a single host
    # saturates at ≈ 140 pub/s with the 50 K-subscription workload).
    profile = staircase([(0.0, 210.0), (300.0, 0.0)])
    policy = ElasticityPolicy(backlog_aware_scaling=backlog_aware)
    result = run_elastic(profile, 360.0, setup=_ablation_setup(), policy=policy)
    name = "backlog-aware (ours)" if backlog_aware else "cpu-only (paper)"
    scale_outs = [d for d in result.decisions if d.kind == "global_overload"]
    last_scale_out = max((d.time for d in scale_outs), default=float("inf"))
    return AblationRow.from_result(name, result), scale_outs, last_scale_out


def test_backlog_aware_scaling_ablation(benchmark, report):
    (ours, ours_outs, ours_last), (paper, paper_outs, paper_last) = run_once(
        benchmark, lambda: [_run(True), _run(False)]
    )

    report()
    report("Ablation — scale-out sizing under a load step (0 → 210 pub/s)")
    report(
        format_table(
            ["variant", "scale-out rounds", "capacity reached at",
             "migrations", "mean delay ms", "max hosts"],
            [
                [
                    row.variant,
                    len(outs),
                    f"{last:.0f}s",
                    row.migrations,
                    round(row.mean_delay_s * 1000),
                    row.max_hosts,
                ]
                for row, outs, last in (
                    (ours, ours_outs, ours_last),
                    (paper, paper_outs, paper_last),
                )
            ],
        )
    )

    # Both variants eventually provision enough capacity.
    assert ours.max_hosts >= 3 and paper.max_hosts >= 3
    # Backlog-awareness converges in fewer scale-out rounds, finishing
    # (at least one grace period) earlier.
    assert len(ours_outs) < len(paper_outs)
    assert ours_last < paper_last
