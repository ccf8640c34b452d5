"""Manager failover: a standby takes over from shared coordination state.

The paper stores the whole manager state in ZooKeeper so that the manager
"can easily be restarted in case of failure" (§IV-B).  These tests promote
a standby through the leader-election recipe and verify it resumes elastic
control from the stored configuration.  The two that keep the manager
scaling run with the paper's policy and again with the p99 scale-in veto
on (``TestWithSloVeto``): a promoted standby consults the same veto.
"""

import pytest

from repro.cluster import CloudProvider, HostSpec
from repro.coord import CoordinationKernel
from repro.elastic import ElasticityManager, ElasticityPolicy, ManagerFailover
from repro.filtering import CostModel
from repro.pubsub import HubConfig, StreamHub, Subscription
from repro.pubsub.source import SourceDriver
from repro.sim import Environment

HEAVY_COST = CostModel(aspe_match_op_s=100e-6)


@pytest.fixture
def policy():
    """The policy of the deployment's managers: the paper's."""
    return ElasticityPolicy()


def build_deployment(subs=4000, policy=None):
    env = Environment()
    cloud = CloudProvider(env, spec=HostSpec(cores=8), max_hosts=20,
                          provisioning_delay_s=1.0)
    engine_hosts = [cloud.provision_now()]
    sink_host = cloud.provision_now()
    config = HubConfig.sampled(
        0.01, ap_slices=2, m_slices=4, ep_slices=2, sink_slices=1,
        cost_model=HEAVY_COST, policy=policy or ElasticityPolicy(),
    )
    hub = StreamHub(env, cloud.network, config)
    hub.deploy_all_on(engine_hosts, [sink_host])
    for sub_id in range(subs):
        hub.subscribe(Subscription(sub_id, sub_id, None))
    env.run()
    return env, cloud, hub, engine_hosts


def test_recover_rebuilds_manager_from_coordination_state(policy):
    env, cloud, hub, engine_hosts = build_deployment(policy=policy)
    coord = CoordinationKernel()
    primary = ElasticityManager(hub, cloud, engine_hosts, coord=coord)
    primary.start()
    SourceDriver(hub).publish_constant(rate_per_s=15.0, duration_s=80.0)
    env.run(until=85.0)
    assert primary.host_count >= 2  # it scaled out

    primary.crash()
    # No host list: the restarted manager reads everything from the kernel.
    recovered = ElasticityManager(hub, cloud, coord=coord)
    # It sees exactly the hosts the primary managed, and its history.
    assert {h.host_id for h in recovered.engine_hosts} == {
        h.host_id for h in primary.engine_hosts
    }
    assert recovered.stored_placement() == primary.stored_placement()
    assert primary.history
    assert recovered.history == primary.history


def test_standby_takes_over_via_leader_election(policy):
    env, cloud, hub, engine_hosts = build_deployment(policy=policy)
    failover = ManagerFailover(hub, cloud)
    primary = failover.start_primary(engine_hosts)
    failover.add_standby("standby")
    assert "standby" not in failover.managers  # not leader yet

    # Rising load so the standby must keep scaling after the takeover.
    SourceDriver(hub).publish_profile(
        lambda t: 15.0 if t < 100.0 else 28.0, duration_s=230.0
    )
    env.call_later(70.0, failover.crash_active)
    env.run(until=220.0)
    standby = failover.managers["standby"]
    assert failover.active is standby
    assert failover.failovers == 1
    assert standby.host_count >= 2
    env.run(until=250.0)  # drain the tail

    # The standby was promoted and continued managing the system.
    assert failover.active is standby
    # Scaling decisions happened on both sides of the failover, and the
    # standby's history continues the primary's.
    assert primary.history, "primary never acted"
    inherited = len(primary.history)
    assert standby.history[:inherited] == primary.history
    own = standby.history[inherited:]
    assert any(r.time > 70.0 for r in own), "standby never acted after takeover"
    assert all(r.time >= 70.0 for r in own)
    state, _ = failover.coord.get("/estreamhub/state")
    assert len(state["history"]) == len(standby.history)
    live = {
        k: v for k, v in hub.runtime.placement().items()
        if k in hub.engine_slice_ids()
    }
    stored = {
        k: v for k, v in standby.stored_placement().items()
        if k in hub.engine_slice_ids()
    }
    assert stored == live
    assert hub.published_count == hub.notified_publications


def test_crashed_manager_takes_no_further_decisions():
    env, cloud, hub, engine_hosts = build_deployment()
    manager = ElasticityManager(hub, cloud, engine_hosts, coord=CoordinationKernel())
    manager.start()
    manager.crash()
    SourceDriver(hub).publish_constant(rate_per_s=20.0, duration_s=60.0)
    env.run(until=70.0)
    assert manager.history == []
    assert manager.host_count == 1


class TestWithSloVeto:
    """The scaling failover cases with the p99 scale-in veto on."""

    @pytest.fixture
    def policy(self):
        return ElasticityPolicy(slo_veto=True)

    test_recover_rebuilds_manager_from_coordination_state = staticmethod(
        test_recover_rebuilds_manager_from_coordination_state
    )
    test_standby_takes_over_via_leader_election = staticmethod(
        test_standby_takes_over_via_leader_election
    )
