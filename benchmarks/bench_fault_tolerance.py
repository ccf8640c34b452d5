"""Extension benchmark: passive-replication recovery cost.

The paper notes its runtime supports passive/active replication but leaves
the evaluation out of scope (§III).  Our reproduction implements the
passive scheme end to end (checkpoints + upstream replay); this benchmark
characterizes it: recovery time and replay volume as a function of the
checkpoint interval, for a crash of the host carrying all M slices.
"""

from repro.cluster import CloudProvider, FailureDetector, HostSpec, crash_host
from repro.engine import ReliabilityCoordinator
from repro.filtering import CostModel
from repro.telemetry import format_table
from repro.pubsub import HubConfig, StreamHub, Subscription
from repro.pubsub.source import SourceDriver
from repro.sim import Environment

from conftest import run_once

SUBSCRIPTIONS = 20_000
RATE = 60.0


def run_crash_scenario(checkpoint_interval_s: float):
    env = Environment()
    cloud = CloudProvider(env, spec=HostSpec(cores=8), max_hosts=10)
    ap_ep = cloud.provision_now()
    m_host = cloud.provision_now()
    sink = cloud.provision_now()
    spare = cloud.provision_now()
    config = HubConfig.sampled(
        0.01, ap_slices=2, m_slices=4, ep_slices=2, sink_slices=1,
        cost_model=CostModel(),
    )
    hub = StreamHub(env, cloud.network, config)
    hub.deploy(ap_hosts=[ap_ep], m_hosts=[m_host], ep_hosts=[ap_ep],
               sink_hosts=[sink])
    coordinator = ReliabilityCoordinator(
        hub.runtime, interval_s=checkpoint_interval_s,
        replacement_host_fn=lambda: spare,
    )
    coordinator.start(hub.engine_slice_ids())
    for sub_id in range(SUBSCRIPTIONS):
        hub.subscribe(Subscription(sub_id, sub_id, None))
    env.run(until=2.0)

    source = SourceDriver(hub)
    source.publish_constant(rate_per_s=RATE, duration_s=40.0)
    detector = FailureDetector(env, detection_delay_s=1.0)
    detector.subscribe(lambda host: coordinator.handle_host_crash(host))

    def crash():
        # Crash mid-interval (but within the load window) so the
        # checkpoint lag is representative.
        yield env.timeout(2.0 + min(2.5 * checkpoint_interval_s, 28.0))
        crash_host(cloud, m_host)
        detector.report_crash(m_host)

    env.process(crash())
    env.run(until=60.0)

    reports = coordinator.recovery_reports
    return {
        "interval": checkpoint_interval_s,
        "recovery_ms": sum(r.duration_s for r in reports) / len(reports) * 1000,
        "replayed": sum(r.replayed_events for r in reports),
        "published": source.publications_sent,
        "notified": hub.notified_publications,
        "checkpoints": coordinator.store.checkpoints_stored,
    }


def test_recovery_cost_vs_checkpoint_interval(benchmark, report):
    intervals = (2.0, 8.0, 20.0)
    rows = run_once(
        benchmark, lambda: [run_crash_scenario(i) for i in intervals]
    )

    report()
    report("Extension — passive replication: crash of the M host "
           f"({SUBSCRIPTIONS} subscriptions, {RATE:g} pub/s)")
    report(
        format_table(
            ["checkpoint every", "avg recovery ms", "events replayed",
             "checkpoints taken", "published", "notified"],
            [
                [f"{r['interval']:g}s", round(r["recovery_ms"]),
                 r["replayed"], r["checkpoints"], r["published"], r["notified"]]
                for r in rows
            ],
        )
    )

    by_interval = {r["interval"]: r for r in rows}
    # Exactly-once notification survives every crash scenario.
    for r in rows:
        assert r["notified"] == r["published"]
    # Longer checkpoint intervals mean more events to replay on recovery...
    assert by_interval[20.0]["replayed"] > by_interval[2.0]["replayed"]
    # ...and fewer checkpoints taken during the run.
    assert by_interval[20.0]["checkpoints"] < by_interval[2.0]["checkpoints"]
