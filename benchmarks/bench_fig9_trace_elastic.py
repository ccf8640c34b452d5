"""Figure 9: elastic scaling replaying the Frankfurt Stock Exchange trace.

Paper: the tick trace of Figure 1 is replayed sped up (one trace hour per
three experiment minutes) with the peak scaled from ≈ 1200 ticks/s to 190
publications/s over a fixed set of 100 K subscriptions.  The host count
ranges from 1 to 8, reacting to the market open and the afternoon spike
and dropping back in the evening; per-host load stays in the requested
envelope and average delays stay below a second except around abrupt load
steps.

The run is time-compressed by default (see EXPERIMENTS.md): the market
open is the hardest moment — a near-step in offered load against a
single-host deployment — and shows a transient delay spike that the
paper's gentler pacing avoids.
"""

from repro.experiments import run_figure9
from repro.telemetry import format_table

from conftest import bench_scale, run_once

TIME_SCALE = 0.5 * bench_scale()


def test_figure9_trace_elasticity(benchmark, report):
    result = run_once(benchmark, lambda: run_figure9(time_scale=TIME_SCALE))

    report()
    report(f"Figure 9 — FSE trace replay, peak 190 pub/s (time scale {TIME_SCALE:g})")
    rows = []
    for (t, count), (_, lo, avg, hi) in list(
        zip(result.host_series, result.utilization_series)
    )[:: max(1, len(result.host_series) // 20)]:
        rows.append([f"{t:.0f}s", count, f"{lo:.0%}", f"{avg:.0%}", f"{hi:.0%}"])
    report(format_table(["time", "hosts", "cpu min", "cpu avg", "cpu max"], rows))
    delay_rows = [
        [f"{w.window_start:.0f}s", round(w.mean * 1000), round(w.maximum * 1000)]
        for w in result.delay_windows[:: max(1, len(result.delay_windows) // 15)]
    ]
    report(format_table(["window", "delay mean ms", "delay max ms"], delay_rows))
    report(
        f"hosts: 1 → {result.max_hosts} → {result.final_hosts} (paper: 1 to 8); "
        f"decisions: {len(result.decisions)}; migrations: {len(result.migration_reports)}"
    )

    # Shape: host range matches the paper's 1..8.
    assert result.host_series[0][1] == 1
    assert 6 <= result.max_hosts <= 10
    assert result.final_hosts <= 3  # evening consolidation
    # The afternoon spike drives the maximum host count: it must occur in
    # the second half of the day.
    peak_time = max(result.host_series, key=lambda pair: pair[1])[0]
    assert peak_time > 0.45 * result.duration_s
    # Exactly-once delivery through all migrations.
    assert result.published == result.notified
    # Load envelope around the target while scaled out.
    lo, avg, hi = result.utilization_envelope()
    assert 0.25 < avg < 0.65
    # Delays are sub-second across the day except around the open step:
    # at least 80% of windows have sub-second means.
    means = [w.mean for w in result.delay_windows]
    sub_second = sum(1 for m in means if m < 1.0)
    assert sub_second / len(means) > 0.8
