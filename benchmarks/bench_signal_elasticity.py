"""Scale-in veto ablation: the paper's CPU rules with and without the p99 veto.

A double-surge workload — surge, trough, identical second surge — is
replayed under two policies (DESIGN.md §10).  On a *single* ramp they
are indistinguishable here: the veto only ever holds a release back.
They diverge on what happens *between* surges:

* **cpu** (the paper's §V rules) sees only the instantaneous utilization
  band.  It releases the fleet during the trough and pays the full
  grace-gated re-provisioning ladder when the second surge hits — tail
  delay explodes while the enforcer climbs back up one grace period at a
  time.
* **slo** keeps the CPU rules but vetoes scale-in while the windowed p99
  notification delay sits above the release floor.  The still-elevated
  tail from surge one holds the fleet through the trough, so surge two
  lands on a fully provisioned system (provisioning lead = the whole
  cpu re-provisioning time) — then the veto budget expires and the fleet
  still releases to one host by the end of the run.

The acceptance criterion of the ablation is asserted below: the veto
reaches the reference fleet size in surge two earlier than CPU-only,
with a lower surge-two p99, while still releasing down to one host by
the end of the run.  Results are exported to
``BENCH_signals.json`` (override with ``REPRO_BENCH_SIGNALS_OUT``).

The segment lengths are calibrated against the fixed 30 s grace period
and 5 s probe interval (the trough must outlast one release ladder);
they deliberately do **not** take ``REPRO_BENCH_SCALE``.
"""

import os

from repro.elastic import ElasticityPolicy
from repro.experiments.elastic import run_elastic
from repro.telemetry import write_json
from repro.workloads import trapezoid

from conftest import memory_snapshot, run_once

RAMP_UP_S = 50.0
PLATEAU_S = 30.0
RAMP_DOWN_S = 40.0
TROUGH_S = 50.0
TAIL_S = 60.0
PEAK_RATE = 180.0
FLOOR_RATE = 15.0
SURGE_S = RAMP_UP_S + PLATEAU_S + RAMP_DOWN_S
SURGE2_START_S = SURGE_S + TROUGH_S
DURATION_S = SURGE2_START_S + SURGE_S + TAIL_S
#: Fleet size the cpu stack needs to absorb one surge (its surge-one
#: steady state); "provisioning lead" is how much earlier a stack has
#: this many hosts running after the second surge begins.
REF_HOSTS = 4

VARIANTS = {
    "cpu": dict(),
    "slo": dict(slo_veto=True, slo_p99_s=0.5, slo_veto_max_rounds=24),
}
RESULTS = {}

_surge = trapezoid(
    ramp_up_s=RAMP_UP_S, plateau_s=PLATEAU_S, ramp_down_s=RAMP_DOWN_S,
    peak=PEAK_RATE,
)


def double_surge(t: float) -> float:
    if t < SURGE_S:
        return max(_surge(t), FLOOR_RATE)
    if t < SURGE2_START_S:
        return FLOOR_RATE
    return max(_surge(t - SURGE2_START_S), FLOOR_RATE)


def run_variant(name: str) -> dict:
    """Run one policy over the double surge (cached per module)."""
    if name in RESULTS:
        return RESULTS[name]
    policy = ElasticityPolicy(**VARIANTS[name])
    result = run_elastic(double_surge, DURATION_S, policy=policy)

    t_ref = None
    for t, hosts in result.host_series:
        if t >= SURGE2_START_S and hosts >= REF_HOSTS:
            t_ref = t - SURGE2_START_S
            break
    RESULTS[name] = {
        "published": result.published,
        "notified": result.notified,
        "max_hosts": result.max_hosts,
        "final_hosts": result.final_hosts,
        "host_seconds": result.host_seconds(),
        "first_scale_out_s": result.first_scale_out_s,
        "surge2_time_to_ref_hosts_s": t_ref,
        "surge2_p99_s": result.delay_p99_s(since=SURGE2_START_S),
        "trough_min_hosts": min(
            hosts
            for t, hosts in result.host_series
            if SURGE_S <= t < SURGE2_START_S
        ),
        "decisions": [
            {
                "time_s": record.time,
                "kind": record.kind,
                "new_hosts": record.new_hosts,
                "released_hosts": record.released_hosts,
            }
            for record in result.decisions
        ],
    }
    return RESULTS[name]


def test_slo_veto_provisions_surge_two_earlier(benchmark, report):
    cpu = run_once(benchmark, lambda: run_variant("cpu"))
    slo = run_variant("slo")

    for run in (cpu, slo):
        assert run["notified"] == run["published"]  # no content lost

    # The acceptance criterion: the veto reaches the reference
    # fleet size earlier than CPU-only on this ramp (here: immediately,
    # because the veto never let the fleet go during the trough).
    assert cpu["surge2_time_to_ref_hosts_s"] is not None
    assert slo["surge2_time_to_ref_hosts_s"] is not None
    lead = cpu["surge2_time_to_ref_hosts_s"] - slo["surge2_time_to_ref_hosts_s"]
    assert lead > 0
    assert slo["surge2_p99_s"] < cpu["surge2_p99_s"]
    # ... and the veto expiry still releases the fleet afterwards.
    assert slo["final_hosts"] == 1 == cpu["final_hosts"]

    report()
    report(
        f"Double surge ({PEAK_RATE:.0f}/s peak, {TROUGH_S:.0f}s trough, "
        f"{REF_HOSTS}-host reference fleet)"
    )
    report(
        f"  cpu : {REF_HOSTS} hosts {cpu['surge2_time_to_ref_hosts_s']:5.1f}s "
        f"after surge 2, p99 {cpu['surge2_p99_s']:6.2f}s "
        f"(trough min {cpu['trough_min_hosts']} hosts)"
    )
    report(
        f"  slo : {REF_HOSTS} hosts {slo['surge2_time_to_ref_hosts_s']:5.1f}s "
        f"after surge 2, p99 {slo['surge2_p99_s']:6.2f}s "
        f"(trough min {slo['trough_min_hosts']} hosts)"
    )
    report(f"  provisioning lead : {lead:.1f}s")


def test_signal_ablation_table_and_export(report):
    runs = {name: run_variant(name) for name in VARIANTS}

    for name, run in runs.items():
        assert run["notified"] == run["published"], name
        assert run["final_hosts"] == 1, name  # both release fully

    cpu_t = runs["cpu"]["surge2_time_to_ref_hosts_s"]
    leads = {
        name: cpu_t - run["surge2_time_to_ref_hosts_s"]
        for name, run in runs.items()
        if run["surge2_time_to_ref_hosts_s"] is not None
    }
    # The veto must beat CPU-only re-provisioning.
    assert leads["slo"] > 0

    report()
    report(
        f"{'policy':<9} {'max':>4} {'host-s':>7} {'t->%d@s2' % REF_HOSTS:>8} "
        f"{'lead':>6} {'p99@s2':>7} {'trough':>6}"
    )
    for name, run in runs.items():
        t_ref = run["surge2_time_to_ref_hosts_s"]
        report(
            f"  {name:<7} {run['max_hosts']:>4} {run['host_seconds']:>7.0f} "
            f"{t_ref if t_ref is not None else float('nan'):>8.1f} "
            f"{leads.get(name, float('nan')):>6.1f} "
            f"{run['surge2_p99_s']:>7.2f} {run['trough_min_hosts']:>6}"
        )

    path = os.environ.get("REPRO_BENCH_SIGNALS_OUT", "BENCH_signals.json")
    write_json(
        path,
        {
            "workload": {
                "profile": "double_surge",
                "peak_rate_pub_s": PEAK_RATE,
                "floor_rate_pub_s": FLOOR_RATE,
                "surge_s": SURGE_S,
                "trough_s": TROUGH_S,
                "duration_s": DURATION_S,
                "ref_hosts": REF_HOSTS,
            },
            "variants": {name: dict(VARIANTS[name]) for name in VARIANTS},
            "results": runs,
            "provisioning_lead_s": leads,
            "memory": memory_snapshot(),
        },
    )
    report(f"  exported : {path}")
