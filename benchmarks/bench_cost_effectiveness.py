"""Cost-effectiveness of elasticity (the paper's §I motivation).

"Static provisioning of cloud resources for a pub/sub system supporting
the peak load of this application would be cost-ineffective."  This
benchmark quantifies the claim: it replays the FSE trading day elastically
and compares the consumed host-seconds with a static deployment sized for
the same day's peak.
"""

from repro.experiments import run_figure9
from repro.experiments.cost import run_cost_effectiveness
from repro.telemetry import format_table

from conftest import bench_scale, run_once

TIME_SCALE = 0.35 * bench_scale()


def test_cost_effectiveness_of_elasticity(benchmark, report):
    comparison = run_once(
        benchmark, lambda: run_cost_effectiveness(time_scale=TIME_SCALE)
    )

    report()
    report("Cost-effectiveness — elastic vs. static provisioning (FSE day)")
    report(
        format_table(
            ["provisioning", "host-seconds", "avg hosts"],
            [
                [
                    "static @ peak",
                    round(comparison.static_peak_host_seconds),
                    comparison.peak_hosts,
                ],
                [
                    "elastic (E-STREAMHUB)",
                    round(comparison.elastic_host_seconds),
                    round(comparison.average_hosts, 2),
                ],
            ],
        )
    )
    report(
        f"elasticity saves {comparison.savings_vs_static_peak:.0%} of the "
        f"static-peak bill over the trading day"
    )

    # The headline claim: elastic provisioning costs a fraction of static
    # peak provisioning on a trace that is idle most of the day.
    assert comparison.peak_hosts >= 5
    assert comparison.savings_vs_static_peak > 0.35
    assert comparison.average_hosts < comparison.peak_hosts
