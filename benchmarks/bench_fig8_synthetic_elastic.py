"""Figure 8: elastic scaling under a synthetic ramp workload.

Paper: starting from a single host running all 32 slices with 100 K
subscriptions, the publication rate ramps to 350/s, holds, and ramps back
to idle.  The enforcer grows the deployment to ≈ 15 hosts and shrinks it
back to one; per-host CPU load stays within a 40–70% envelope with the
average close to the 50% target, and delays stay small despite the
migrations (the 1 → 2 host migration hurts most).

The run is time-compressed (default 4×; see EXPERIMENTS.md) — rates,
host counts and envelopes are preserved, but the compressed ramp makes
the transient delay spikes near the peak larger than the paper's.
"""

from repro.experiments import run_figure8
from repro.telemetry import format_table

from conftest import bench_scale, run_once

TIME_SCALE = 0.25 * bench_scale()


def test_figure8_synthetic_elasticity(benchmark, report):
    result = run_once(benchmark, lambda: run_figure8(time_scale=TIME_SCALE))

    report()
    report(f"Figure 8 — synthetic ramp 0 → 350 → 0 pub/s (time scale {TIME_SCALE:g})")
    rows = []
    host_by_window = {}
    for t, count in result.host_series:
        host_by_window[int(t // result.window_s)] = count
    util_by_window = {}
    for t, lo, avg, hi in result.utilization_series:
        util_by_window.setdefault(int(t // result.window_s), []).append((lo, avg, hi))
    delay_by_window = {int(w.window_start // result.window_s): w for w in result.delay_windows}
    for window_start, rate in result.rate_series:
        index = int(window_start // result.window_s)
        utils = util_by_window.get(index)
        delay = delay_by_window.get(index)
        rows.append(
            [
                f"{window_start:.0f}s",
                round(rate),
                host_by_window.get(index, "-"),
                "-" if not utils else f"{min(u[0] for u in utils):.0%}",
                "-" if not utils else f"{sum(u[1] for u in utils) / len(utils):.0%}",
                "-" if not utils else f"{max(u[2] for u in utils):.0%}",
                "-" if delay is None else round(delay.mean * 1000),
            ]
        )
    report(
        format_table(
            ["window", "rate", "hosts", "cpu min", "cpu avg", "cpu max", "delay ms"],
            rows[:: max(1, len(rows) // 20)],
        )
    )
    report(
        f"hosts: 1 → {result.max_hosts} → {result.final_hosts} "
        f"(paper: 1 → ~15 → 1); decisions: {len(result.decisions)}; "
        f"migrations: {len(result.migration_reports)}"
    )

    # Shape: the system scales out near the paper's host range and fully in.
    assert 9 <= result.max_hosts <= 18
    assert result.final_hosts == 1
    assert result.host_series[0][1] == 1
    # Both directions actually happened.
    kinds = {d.kind for d in result.decisions}
    assert "global_overload" in kinds and "global_underload" in kinds
    # Migration transparency: every publication notified exactly once.
    assert result.published == result.notified
    # The average per-host load sits near the 50% target while scaled out.
    lo, avg, hi = result.utilization_envelope()
    assert 0.30 < avg < 0.65
    # Delays are sub-second in the settled scaled-out phase (plateau tail).
    plateau_end = (2.0 * 1200.0 * TIME_SCALE + 600.0 * TIME_SCALE)
    settled = [
        w.mean
        for w in result.delay_windows
        if 0.55 * plateau_end < w.window_start < 0.7 * plateau_end
    ]
    assert settled and min(settled) < 1.0
