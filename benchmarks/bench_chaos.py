"""Chaos suite benchmark: zero-loss, duplicate-free delivery under faults.

Runs the three scenario families of the failure model (RESILIENCE.md) and
byte-compares the delivered notification multiset of every faulted run
against a fault-free baseline of the same deployment:

* correlated rack loss (every matcher host at once, recovery onto spares),
* manager crash at a chosen phase of a migration, with standby failover
  settling the interrupted decision,
* network partition + heal, with circuit breakers holding the cut links'
  queues until the heal — including across a live M-slice migration
  started inside the partition window.

Results are exported to ``BENCH_chaos.json`` (override with
``REPRO_BENCH_CHAOS_OUT``); CI archives the file.
"""

import dataclasses
import os

from repro.experiments import (
    run_manager_crash,
    run_partition_heal,
    run_rack_loss,
)
from repro.telemetry import format_table, write_json

from conftest import memory_snapshot, run_once

RACK_SIZE = 2
CRASH_PHASE = "copy"


def run_all_scenarios():
    return [
        run_rack_loss(rack_size=RACK_SIZE),
        run_manager_crash(phase=CRASH_PHASE),
        run_partition_heal(),
        run_partition_heal(migrate=True),
    ]


def test_chaos_scenarios_zero_loss(benchmark, report):
    outcomes = run_once(benchmark, run_all_scenarios)

    report()
    report(
        "Chaos suite — delivered multiset vs fault-free baseline "
        f"(rack size {RACK_SIZE}, manager crash at {CRASH_PHASE!r})"
    )
    report(
        format_table(
            ["scenario", "published", "lost", "dups suppressed",
             "multiset identical"],
            [
                [o.scenario, o.published, o.lost, o.duplicates_suppressed,
                 "yes" if o.multiset_identical else "NO"]
                for o in outcomes
            ],
        )
    )
    for o in outcomes:
        report(f"  {o.scenario}: {o.detail}")

    path = os.environ.get("REPRO_BENCH_CHAOS_OUT", "BENCH_chaos.json")
    write_json(
        path,
        {
            "workload": {
                "rack_size": RACK_SIZE,
                "crash_phase": CRASH_PHASE,
                "matching": "exact (deterministic multisets)",
            },
            "results": [dataclasses.asdict(o) for o in outcomes],
            "memory": memory_snapshot(),
        },
    )
    report(f"  exported: {path}")

    by_name = {o.scenario: o for o in outcomes}
    # (a) Correlated loss of the whole matcher rack: nothing lost, nothing
    # duplicated, content byte-identical to the fault-free run.
    rack = by_name["rack_loss"]
    assert rack.detail["hosts_lost"] == RACK_SIZE > 1
    assert rack.detail["replayed_events"] > 0
    # (b) Manager crash during a migration: a standby takes over, the
    # interrupted decision is settled (completed or rolled back), and the
    # migration's phase spans still tile its root span.
    o = by_name["manager_crash_migration"]
    assert o.detail["failovers"] == 1
    assert o.detail["outcomes"], "decision never settled"
    assert all(
        verdict in ("completed", "rolled_back")
        for _, verdict in o.detail["outcomes"]
    )
    assert o.detail["phase_spans_tile"], "phase spans leak"
    # (c) Partition + heal: the circuit breaker holds the cut links' queues
    # instead of feeding the dead fabric and flushes them on heal, so
    # nothing is dropped or duplicated — also across a live migration
    # started inside the partition window.
    assert by_name["partition_heal"].detail["breaker_trips"] > 0
    for name in ("partition_heal", "partition_heal_migrate"):
        assert by_name[name].detail["partition_drops"] == 0
        assert by_name[name].duplicates_suppressed == 0
    assert by_name["partition_heal_migrate"].detail["migrated"]
    # The headline guarantee, byte-compared for every scenario.
    for o in outcomes:
        assert o.zero_loss, f"{o.scenario}: lost {o.lost} notifications"
        assert o.multiset_identical, f"{o.scenario}: multiset diverged"
