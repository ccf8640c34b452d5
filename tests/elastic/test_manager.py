"""Integration tests: the full elastic loop (probes → enforcer → migrations).

These use a deliberately heavy per-operation cost model so that a handful
of publications per second saturates a host — small event counts keep the
tests fast while exercising the same control loop as the paper-scale
experiments.
"""

import pytest

from repro.cluster import CloudProvider, HostSpec
from repro.coord import CoordinationKernel
from repro.elastic import ElasticityManager, ElasticityPolicy, ViolationKind
from repro.filtering import CostModel
from repro.pubsub import HubConfig, StreamHub, Subscription
from repro.pubsub.source import SourceDriver
from repro.sim import Environment
from repro.telemetry import Telemetry

HEAVY_COST = CostModel(aspe_match_op_s=100e-6)


def build(env=None, subs=4000, initial_hosts=1, policy=None, telemetry=None):
    env = env or Environment()
    cloud = CloudProvider(env, spec=HostSpec(cores=8), max_hosts=20,
                          provisioning_delay_s=2.0)
    engine_hosts = [cloud.provision_now() for _ in range(initial_hosts)]
    sink_host = cloud.provision_now()
    config = HubConfig.sampled(
        0.01,
        ap_slices=2, m_slices=4, ep_slices=2, sink_slices=1,
        cost_model=HEAVY_COST,
        telemetry=telemetry,
    )
    hub = StreamHub(env, cloud.network, config)
    hub.deploy_all_on(engine_hosts, [sink_host])
    manager = ElasticityManager(
        hub, cloud, engine_hosts,
        policy=policy or ElasticityPolicy(),
        coord=CoordinationKernel(),
        probe_interval_s=5.0,
    )
    for sub_id in range(subs):
        hub.subscribe(Subscription(sub_id, sub_id, None))
    env.run()  # drain the storage phase
    return env, cloud, hub, manager


def test_scale_out_under_sustained_load():
    env, cloud, hub, manager = build()
    manager.start()
    driver = SourceDriver(hub)
    # ≈ 15 pub/s × (4 × 0.1 s matching) ≈ 6 busy cores on one 8-core host.
    driver.publish_constant(rate_per_s=15.0, duration_s=120.0)
    env.run(until=125.0)
    assert manager.host_count >= 2
    assert any(r.kind == "global_overload" for r in manager.history)
    assert manager.migration_reports  # slices actually moved
    # The pipeline kept working through the migrations.
    assert hub.notified_publications == driver.publications_sent


def test_decision_and_execute_spans_carry_the_cpu_rule():
    telemetry = Telemetry()
    env, cloud, hub, manager = build(telemetry=telemetry)
    manager.start()
    SourceDriver(hub).publish_constant(rate_per_s=15.0, duration_s=60.0)
    env.run(until=65.0)
    decisions = telemetry.tracer.find("enforcer.decision")
    executions = telemetry.tracer.find("enforcer.execute")
    assert decisions and executions
    # Each executed decision is one the CPU rules fired and found actionable.
    fired = {span.attrs["rule"] for span in decisions if span.attrs["actionable"]}
    assert {span.attrs["kind"] for span in executions} <= fired
    assert fired <= {kind.value for kind in ViolationKind}
    assert all("cpu_threshold" in span.attrs for span in decisions)


def test_scale_out_lowers_average_utilization():
    env, cloud, hub, manager = build()
    utilizations = []
    manager.probe_listeners.append(
        lambda p: utilizations.append((p.time, p.average_utilization()))
    )
    manager.start()
    SourceDriver(hub).publish_constant(rate_per_s=15.0, duration_s=200.0)
    env.run(until=205.0)
    late = [u for t, u in utilizations if t > 150.0]
    assert late, "no probes in the settled phase"
    average = sum(late) / len(late)
    assert 0.25 < average < 0.70  # inside the policy band around the target


def test_scale_in_after_load_drops():
    env, cloud, hub, manager = build(initial_hosts=3)
    manager.start()
    driver = SourceDriver(hub)
    driver.publish_constant(rate_per_s=15.0, duration_s=60.0)
    env.run(until=300.0)  # long idle tail
    assert manager.host_count == 1
    assert any(r.kind == "global_underload" for r in manager.history)
    released = [r for r in manager.history if r.released_hosts > 0]
    assert released


def test_grace_period_spaces_actions():
    policy = ElasticityPolicy(grace_period_s=30.0)
    env, cloud, hub, manager = build(policy=policy)
    manager.start()
    SourceDriver(hub).publish_constant(rate_per_s=20.0, duration_s=150.0)
    env.run(until=155.0)
    times = [r.time for r in manager.history]
    assert all(b - a >= 29.9 for a, b in zip(times, times[1:]))


def test_released_hosts_returned_to_cloud():
    env, cloud, hub, manager = build(initial_hosts=3)
    start_active = cloud.active_count
    manager.start()
    env.run(until=200.0)  # no load at all: scale in to one host
    assert manager.host_count == 1
    # 2 engine hosts released (the sink host stays).
    assert cloud.active_count == start_active - 2
    placement_hosts = set(hub.runtime.placement().values())
    active_ids = {h.host_id for h in cloud.active_hosts}
    assert placement_hosts <= active_ids


def test_configuration_mirrored_in_coordination_kernel():
    env, cloud, hub, manager = build()
    manager.start()
    SourceDriver(hub).publish_constant(rate_per_s=15.0, duration_s=100.0)
    env.run(until=105.0)
    stored = manager.stored_placement()
    live = hub.runtime.placement()
    engine = set(hub.engine_slice_ids())
    assert {k: v for k, v in stored.items() if k in engine} == {
        k: v for k, v in live.items() if k in engine
    }
    assert set(manager.stored_hosts()) == {h.host_id for h in manager.engine_hosts}
    # Migration log survives in the kernel for a restarted manager.
    migrations = manager.coord.get_children("/estreamhub/migrations")
    assert len(migrations) == len(manager.migration_reports)


def test_manager_requires_initial_host():
    env = Environment()
    cloud = CloudProvider(env)
    config = HubConfig.sampled(0.01, ap_slices=1, m_slices=1, ep_slices=1, sink_slices=1)
    hub = StreamHub(env, cloud.network, config)
    with pytest.raises(ValueError):
        ElasticityManager(hub, cloud, [], coord=CoordinationKernel())


def test_double_start_rejected():
    env, cloud, hub, manager = build()
    manager.start()
    with pytest.raises(RuntimeError):
        manager.start()
