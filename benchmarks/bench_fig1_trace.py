"""Figure 1: typical tick volume at the Frankfurt Stock Exchange.

Regenerates the trace model's day curve and checks its qualitative shape
against the plotted trace: near-silence overnight, a sharp rise at the
09:00 open, a ≈ 1 200 ticks/s peak, and a rapid decline after the 17:30
close.
"""

from repro.telemetry import format_series
from repro.workloads import FrankfurtTraceModel

from conftest import run_once


def test_figure1_tick_trace(benchmark, report):
    trace = FrankfurtTraceModel()

    def run():
        return trace.series(resolution_s=300.0)

    series = run_once(benchmark, run)

    hourly = [(t / 3600.0, rate) for t, rate in series if t % 3600 == 0]
    report()
    report("Figure 1 — FSE tick volume (synthetic reconstruction)")
    report("paper: silent overnight, sharp rise at 9:00, peak ≈ 1200/s,")
    report("       afternoon spike, sharp decline after the 17:30 close")
    report(format_series("measured (hour, ticks/s)", [(f"{h:04.1f}h", round(r)) for h, r in hourly]))

    by_time = dict(series)

    def rate_at(hour):
        return by_time[hour * 3600.0]

    # Overnight silence vs. trading-hours volume.
    assert rate_at(3.0) < 20.0
    assert rate_at(11.0) > 500.0
    # Sharp rise at the open.
    assert rate_at(9.5) > 5 * rate_at(8.0)
    # Peak magnitude near the paper's 1200 ticks/s.
    peak = max(rate for _, rate in series)
    assert 1000.0 <= peak <= 1600.0
    # Afternoon spike above the midday plateau.
    assert rate_at(15.5) > 1.5 * rate_at(13.0)
    # Decline after the close.
    assert rate_at(19.0) < 0.1 * rate_at(17.0)
