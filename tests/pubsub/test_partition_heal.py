"""Property: a healed partition never changes what subscribers receive.

Hypothesis generates small subscription/publication workloads and a
partition window; the delivered notification multiset of the faulted
run (cut → heal → replay, optionally with a live M-slice migration
started inside the window) must be byte-identical to a fault-free run
of the same deployment.  This is the RESILIENCE.md §2 partition-heal
guarantee, checked over random workloads instead of the one fixed
workload in ``repro.experiments.chaos``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CloudProvider, FaultPlan, HostSpec
from repro.engine import ReliabilityCoordinator
from repro.experiments.chaos import multiset_digest
from repro.filtering import BruteForceLibrary, ExactBackend, Op, Predicate, PredicateSet
from repro.pubsub import HubConfig, StreamHub, Subscription
from repro.pubsub.source import SourceDriver
from repro.sim import Environment
from repro.transport import TransportConfig

RATE = 2.0
CUT_AT_S = 3.0
HEAL_AT_S = 7.0
REPLAY_AT_S = 8.0
HORIZON_S = 30.0


def _deploy(band_lows):
    env = Environment()
    cloud = CloudProvider(env, spec=HostSpec(cores=8), max_hosts=8)
    edge = cloud.provision_now()
    m_hosts = [cloud.provision_now(), cloud.provision_now()]
    sink = cloud.provision_now()
    spare = cloud.provision_now()
    config = HubConfig(
        ap_slices=1,
        m_slices=2,
        ep_slices=1,
        sink_slices=1,
        encrypted=False,
        backend_factory=lambda index: ExactBackend(BruteForceLibrary()),
        # Adaptive transport: every hop runs through a Channel whose
        # breaker holds its queue during the partition instead of
        # feeding the dead fabric (see RESILIENCE.md §2).
        net=TransportConfig(flush_mode="adaptive"),
    )
    hub = StreamHub(env, cloud.network, config)
    hub.deploy(ap_hosts=[edge], m_hosts=m_hosts, ep_hosts=[edge],
               sink_hosts=[sink])
    for sub_id, low in enumerate(band_lows):
        hub.subscribe(Subscription(
            sub_id, sub_id,
            PredicateSet.of(Predicate(0, Op.GE, low),
                            Predicate(0, Op.LE, low + 20.0)),
        ))
    env.run()  # drain subscription propagation before the clock matters
    return env, cloud, hub, edge, m_hosts, spare


def _publish(env, hub, values):
    source = SourceDriver(hub)
    source.publish_constant(
        rate_per_s=RATE,
        duration_s=len(values) / RATE,
        # Modulo: the driver may emit one extra event at the boundary.
        payload_factory=lambda pub_id: [values[pub_id % len(values)],
                                        0.0, 0.0, 0.0],
    )
    return source


@settings(max_examples=10, deadline=None)
@given(
    band_lows=st.lists(st.floats(0, 80, allow_nan=False), min_size=1,
                       max_size=10),
    values=st.lists(st.floats(0, 100, allow_nan=False), min_size=8,
                    max_size=24),
    migrate=st.booleans(),
)
def test_partition_heal_preserves_delivered_multiset(
    band_lows, values, migrate
):
    # Fault-free baseline of the identical deployment and workload.
    env, _, hub, _, _, _ = _deploy(band_lows)
    baseline_source = _publish(env, hub, values)
    env.run(until=HORIZON_S)
    baseline = multiset_digest(hub)
    assert hub.notified_publications == baseline_source.publications_sent

    # Same deployment, with the matcher rack cut off mid-run and healed.
    env, cloud, hub, edge, m_hosts, spare = _deploy(band_lows)
    coordinator = ReliabilityCoordinator(
        hub.runtime, interval_s=4.0, replacement_host_fn=lambda: spare
    )
    coordinator.start(hub.engine_slice_ids())
    plan = FaultPlan(env, cloud=cloud)
    plan.group("rack", m_hosts)
    plan.group("edge", [edge])
    plan.partition_at(CUT_AT_S, "rack", "edge")
    plan.heal_at(HEAL_AT_S)
    if migrate:
        # Live M-slice migration started inside the partition window:
        # its sync phase drains only after heal + replay.
        env.call_later(
            (CUT_AT_S + HEAL_AT_S) / 2.0,
            lambda: hub.runtime.migrate("M:0", m_hosts[1]),
        )
    env.call_later(REPLAY_AT_S, lambda: coordinator.replay_missing())
    source = _publish(env, hub, values)
    env.run(until=HORIZON_S)

    assert [kind for _, kind, _ in plan.injected] == ["partition", "heal"]
    assert hub.notified_publications == source.publications_sent  # zero loss
    assert multiset_digest(hub) == baseline
    if migrate:
        assert hub.runtime.placement()["M:0"] == m_hosts[1].host_id
