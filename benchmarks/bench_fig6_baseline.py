"""Figure 6: baseline STREAMHUB performance (static configurations).

Top panel — maximal sustained throughput for 2–12 hosts with 100 K stored
ASPE subscriptions: the paper measures perfectly linear scaling up to 422
publications/s on 12 hosts (42.2 M encrypted match operations/s).

Bottom panel — notification delay percentiles at half the maximal
throughput per configuration (12 hosts: min 55 ms, p75 247 ms — dominated
by channel micro-batching; see EXPERIMENTS.md for the calibration notes).
"""

import pytest

from repro.experiments import ExperimentSetup, run_figure6
from repro.telemetry import format_table

from conftest import run_once

PAPER_THROUGHPUT = {2: 70, 4: 141, 6: 211, 8: 281, 10: 352, 12: 422}
HOST_COUNTS = (2, 4, 6, 8, 10, 12)


_CACHE = {}


def figure6_results():
    """Compute Figure 6 once per session; the first bench pays the cost."""
    if "results" not in _CACHE:
        _CACHE["results"] = run_figure6(
            host_counts=HOST_COUNTS,
            setup=ExperimentSetup(),
            search_iterations=5,
            throughput_window_s=15.0,
            delay_duration_s=20.0,
        )
    return _CACHE["results"]


def test_figure6_top_throughput_scaling(benchmark, report):
    results = run_once(benchmark, figure6_results)
    subs = ExperimentSetup().subscriptions

    report()
    report("Figure 6 (top) — maximal throughput vs. hosts, 100 K subscriptions")
    report(
        format_table(
            ["hosts", "paper pub/s", "measured pub/s", "measured Mops/s"],
            [
                [
                    r.hosts,
                    PAPER_THROUGHPUT[r.hosts],
                    round(r.max_throughput, 1),
                    round(r.max_throughput * subs / 1e6, 1),
                ]
                for r in results
            ],
        )
    )

    # Shape: linear scaling in host count (M hosts = half the total).
    by_hosts = {r.hosts: r.max_throughput for r in results}
    for hosts in HOST_COUNTS:
        expected = by_hosts[12] * hosts / 12.0
        assert by_hosts[hosts] == pytest.approx(expected, rel=0.15), (
            f"throughput at {hosts} hosts deviates from linear scaling"
        )
    # Magnitude: 12 hosts close to the paper's 422 pub/s.
    assert 340 < by_hosts[12] < 500


def test_figure6_bottom_delay_percentiles(benchmark, report):
    results = run_once(benchmark, figure6_results)

    report()
    report("Figure 6 (bottom) — delays at half max throughput")
    report("paper @12 hosts: min 55 ms, p75 <= 247 ms (percentile stack)")
    rows = []
    for r in results:
        stack = dict(r.delay_percentiles)
        rows.append(
            [
                r.hosts,
                round(r.delay_stats.minimum * 1000),
                round(stack[0.50] * 1000),
                round(stack[0.75] * 1000),
                round(stack[0.99] * 1000),
                round(r.delay_stats.maximum * 1000),
            ]
        )
    report(format_table(["hosts", "min ms", "p50 ms", "p75 ms", "p99 ms", "max ms"], rows))

    for r in results:
        stats = r.delay_stats
        assert stats is not None and stats.count > 100
        # Sub-second, stable delays at the target load for every size.
        assert stats.p99 < 1.0
        assert stats.minimum > 0.0
        # Low dispersion: the paper stresses stable latencies.
        assert stats.p99 < 4 * stats.p50
