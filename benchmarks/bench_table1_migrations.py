"""Table I: operator slice migration times under a constant flow.

Paper (100 pub/s; 4 AP / 8 M / 4 EP slices on 2+4+2 hosts):

    AP          232 ±   31 ms   (stateless: no copy phase)
    M (12.5 K) 1497 ±  354 ms
    M (50 K)   2533 ± 1557 ms
    EP          275 ±   52 ms   (small transient state)

The shape to preserve: AP ≈ EP ≈ a few hundred ms, M migrations take
seconds and grow with the per-slice subscription state.
"""

from repro.experiments import run_table1
from repro.telemetry import format_table

from conftest import run_once

PAPER = {
    "AP": (232, 31),
    "M (12.5 K)": (1497, 354),
    "M (50 K)": (2533, 1557),
    "EP": (275, 52),
}


def test_table1_migration_times(benchmark, report):
    rows = run_once(benchmark, lambda: run_table1(migrations_per_operator=25))

    report()
    report("Table I — migration times over 25 migrations per operator")
    report(
        format_table(
            ["operator", "paper avg±std ms", "measured avg ms", "measured std ms"],
            [
                [
                    row.operator,
                    "%d ± %d" % PAPER[row.operator],
                    round(row.average_ms),
                    round(row.std_ms),
                ]
                for row in rows
            ],
        )
    )

    by_op = {row.operator: row for row in rows}
    ap, m_small, m_large, ep = (
        by_op["AP"],
        by_op["M (12.5 K)"],
        by_op["M (50 K)"],
        by_op["EP"],
    )
    # Stateless/transient operators migrate in a few hundred ms.
    assert 150 < ap.average_ms < 500
    assert 150 < ep.average_ms < 600
    # M migrations are dominated by state: seconds, ordered by state size.
    assert m_small.average_ms > 3 * ap.average_ms
    assert m_large.average_ms > 1.5 * m_small.average_ms
    assert m_small.average_ms < 3000
    assert m_large.average_ms < 8000
    # Small relative deviations for the (near) stateless operators.
    assert ap.std_ms < ap.average_ms
    assert ep.std_ms < ep.average_ms
    assert len(ap.samples_ms) == 25
