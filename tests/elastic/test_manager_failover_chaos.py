"""Manager crash *mid-decision*: persistence, fencing, and settlement.

test_failover.py covers the takeover of an idle manager; these tests
crash the active manager at a chosen phase of an operation it is
driving (via ``FaultPlan.crash_manager_at_phase``) and verify the
promoted standby settles the interrupted decision — completed or rolled
back, never half-applied — per RESILIENCE.md §4.
"""

import pytest

from repro.cluster import CloudProvider, FaultPlan, HostSpec
from repro.elastic import (
    ManagerFailover,
    PlannedMigration,
    ScalingDecision,
    ViolationKind,
)
from repro.experiments import phase_spans_tile
from repro.filtering import AspeLibrary, CostModel, ExactBackend
from repro.pubsub import HubConfig, Publication, StreamHub, Subscription
from repro.sim import Environment
from repro.telemetry import Telemetry
from repro.workloads import ScaleWorkload

from ..stores import on_mmap_store


class FailoverHarness:
    """Two-host hub with a primary + standby manager pair."""

    def __init__(self, store_config, subs=40, migration_timeout_s=None):
        self.env = Environment()
        self.telemetry = Telemetry(self.env)
        self.cloud = CloudProvider(self.env, spec=HostSpec(cores=8),
                                   max_hosts=10)
        self.engine_hosts = [self.cloud.provision_now(),
                             self.cloud.provision_now()]
        sink = self.cloud.provision_now()
        config = HubConfig(
            ap_slices=1, m_slices=2, ep_slices=1, sink_slices=1,
            cost_model=CostModel(aspe_match_op_s=1e-6),
            backend_factory=lambda index: ExactBackend(AspeLibrary()),
            store=store_config,
            telemetry=self.telemetry,
        )
        self.hub = StreamHub(self.env, self.cloud.network, config)
        self.hub.deploy_all_on(self.engine_hosts, [sink])
        workload = ScaleWorkload(seed=6)
        for batch in workload.subscription_batches(subs):
            for sub_id, payload in batch:
                self.hub.subscribe(Subscription(sub_id, sub_id, payload))
        self.env.run()  # drain subscriptions before any manager starts
        self.failover = ManagerFailover(
            self.hub, self.cloud,
            probe_interval_s=1000.0,  # decisions are driven explicitly
            migration_timeout_s=migration_timeout_s,
        )
        self.failover.start_primary(self.engine_hosts)
        self.failover.add_standby("standby")

    def settle(self):
        """Run well past the decision but short of the probe loops."""
        self.env.run(until=self.env.now + 500.0)

    def migration_decision(self):
        placement = self.hub.runtime.placement()
        src = placement["M:0"]
        dst = next(
            h.host_id for h in self.engine_hosts if h.host_id != src
        )
        return ScalingDecision(
            kind=ViolationKind.LOCAL_OVERLOAD,
            migrations=[PlannedMigration("M:0", src, dst)],
        ), src, dst

    def stored_state(self):
        """The manager's state znode: ``(data, stat)``."""
        return self.failover.coord.get("/estreamhub/state")


def test_decision_persisted_before_acting(store_config):
    h = FailoverHarness(store_config)
    decision, src, _ = h.migration_decision()
    h.failover.active.execute_decision(decision)
    # In the kernel while the protocol is still in flight: a step later
    # the decision record is durable, the migration is not done.
    h.env.run(until=h.env.now + 0.001)
    state, stat = h.stored_state()
    inflight = state["inflight"]
    assert inflight is not None
    assert [m["slice"] for m in inflight["migrations"]] == ["M:0"]
    h.settle()
    # Completed without a crash: the in-flight marker is cleared.
    state, after = h.stored_state()
    assert state["inflight"] is None
    assert len(state["history"]) == 1
    assert after.version > stat.version


def test_crash_mid_migration_rolls_back_and_promotes_standby(store_config):
    h = FailoverHarness(store_config)
    decision, src, _ = h.migration_decision()
    plan = FaultPlan(h.env)
    plan.crash_manager_at_phase(
        h.hub.runtime, lambda: h.failover.crash_active(kill_inflight=True),
        phase="copy",
    )
    h.failover.active.execute_decision(decision)
    h.settle()
    assert h.failover.failovers == 1
    assert h.failover.active is h.failover.managers["standby"]
    assert plan.injected[0][1] == "manager_crash"
    assert h.hub.runtime.migrations_aborted == 1
    # The slice never moved, and the standby recorded exactly that.
    assert h.hub.runtime.placement()["M:0"] == src
    assert h.failover.active.failover_outcomes == [("M:0", "rolled_back")]


def test_crash_with_surviving_orphan_classified_completed(store_config):
    h = FailoverHarness(store_config)
    decision, src, dst = h.migration_decision()
    plan = FaultPlan(h.env)
    plan.crash_manager_at_phase(
        h.hub.runtime, lambda: h.failover.crash_active(kill_inflight=False),
        phase="copy",
    )
    h.failover.active.execute_decision(decision)
    h.settle()
    assert h.failover.failovers == 1
    # The orphaned migration ran to completion; the standby awaited it
    # and settled the decision as completed.
    assert h.hub.runtime.placement()["M:0"] == dst
    assert h.hub.runtime.migrations_aborted == 0
    assert h.failover.active.failover_outcomes == [("M:0", "completed")]


PHASES = ("pre", "sync", "pause", "copy", "post")


@pytest.mark.parametrize("kill_inflight", [True, False])
@pytest.mark.parametrize("phase", PHASES, ids=lambda phase: f"migration-{phase}")
def test_crash_at_every_phase_settles_the_operation(store_config, phase, kill_inflight):
    h = FailoverHarness(store_config)
    runtime = h.hub.runtime
    decision, src, dst = h.migration_decision()
    plan = FaultPlan(h.env)
    plan.crash_manager_at_phase(
        runtime,
        lambda: h.failover.crash_active(kill_inflight=kill_inflight),
        phase=phase,
    )
    primary = h.failover.active
    primary.execute_decision(decision)
    h.settle()

    # Killed before activation → rolled back.  Crashed in post, or left
    # running as an orphan → completed.
    rolled_back = kill_inflight and phase != "post"
    outcome = "rolled_back" if rolled_back else "completed"
    standby = h.failover.active
    assert h.failover.failovers == 1
    assert standby.failover_outcomes == [("M:0", outcome)]
    assert runtime.slice_stats("M:0")["migrating"] is False
    assert runtime.placement()["M:0"] == (src if rolled_back else dst)
    assert runtime.migrations_aborted == int(rolled_back)
    assert phase_spans_tile(h.telemetry.tracer, "migration")

    # Only an orphan's report outlives the crash: the standby awaits it
    # and records it; a killed (or rolled-forward) operation has no waiter.
    assert primary.migration_reports == []
    assert len(standby.migration_reports) == (0 if kill_inflight else 1)


def test_state_copy_across_a_partitioned_link_rolls_back(store_config):
    # The fabric drops a partitioned send at the sender and nothing
    # resends it, so a copy that waited on the transfer would hang with
    # the origin halted; the copy step refuses the link instead.
    h = FailoverHarness(store_config)
    decision, src, dst = h.migration_decision()
    h.cloud.network.partition([src], [dst])
    manager = h.failover.active
    manager.execute_decision(decision)
    h.settle()
    runtime = h.hub.runtime
    assert runtime.migrations_aborted == 1
    assert runtime.placement()["M:0"] == src
    assert runtime.slice_stats("M:0")["migrating"] is False
    assert not runtime.slices["M:0"].active._halted
    assert not manager._executing
    assert manager.history[-1].failures == 1
    assert manager.migration_reports == []
    # The manager moved on: once healed, the same decision goes through.
    h.cloud.network.heal()
    manager.execute_decision(decision)
    h.settle()
    assert runtime.placement()["M:0"] == dst
    assert manager.history[-1].failures == 0
    assert len(manager.migration_reports) == 1


def blocked_decision(h):
    """A migration of M:1 whose sync phase can never drain.

    M:1's upstream AP:0 lives on the other engine host; cutting that link
    and publishing leaves sequence numbers in M:1's cutoffs that the fabric
    dropped and, with the link never healed, no replay delivers.
    """
    placement = h.hub.runtime.placement()
    upstream, host = placement["AP:0"], placement["M:1"]
    assert upstream != host
    h.cloud.network.partition([upstream], [host])
    for pub_id, payload in enumerate(ScaleWorkload(seed=6).publications(4)):
        h.hub.publish(Publication(pub_id, payload, published_at=h.env.now))
    return ScalingDecision(
        kind=ViolationKind.LOCAL_OVERLOAD,
        migrations=[PlannedMigration("M:1", host, upstream)],
    )


def test_watchdog_rolls_back_an_operation_that_cannot_drain(store_config):
    h = FailoverHarness(store_config, migration_timeout_s=30.0)
    runtime = h.hub.runtime
    src = runtime.placement()["M:1"]
    manager = h.failover.active
    started = h.env.now
    manager.execute_decision(blocked_decision(h))
    h.settle()
    assert h.telemetry.watchdog_timeouts.value == 1
    assert manager.history[-1].time == pytest.approx(started + 30.0)
    assert manager.history[-1].failures == 1
    assert runtime.placement()["M:1"] == src
    assert runtime.slice_stats("M:1")["migrating"] is False
    assert runtime.migrations_aborted == 1
    # The manager is free for its next decision.
    assert not manager._executing
    h.cloud.network.heal()
    decision, _, dst = h.migration_decision()
    manager.execute_decision(decision)
    h.settle()
    assert runtime.placement()["M:0"] == dst
    assert len(manager.migration_reports) == 1


def test_without_a_timeout_an_undrainable_operation_stays_pending(store_config):
    h = FailoverHarness(store_config)
    manager = h.failover.active
    manager.execute_decision(blocked_decision(h))
    h.settle()
    assert h.hub.runtime.slice_stats("M:1")["migrating"] is True
    assert manager._executing
    assert manager.history == []


def test_crashed_manager_is_fenced_off_stable_storage(store_config):
    h = FailoverHarness(store_config)
    decision, _, _ = h.migration_decision()
    plan = FaultPlan(h.env)
    plan.crash_manager_at_phase(
        h.hub.runtime, lambda: h.failover.crash_active(kill_inflight=True),
        phase="copy",
    )
    h.failover.active.execute_decision(decision)
    primary = h.failover.active
    h.settle()
    assert primary.crashed
    version = h.failover.coord.exists("/estreamhub/state").version
    # A zombie write from the crashed instance must be a no-op: the
    # promoted standby owns the state znode now.
    primary._persist_state(inflight={"kind": "zombie"})
    assert h.failover.coord.exists("/estreamhub/state").version == version


def test_crash_without_active_manager_rejected(store_config):
    h = FailoverHarness(store_config, subs=0)
    h.failover.crash_active()  # promotes the standby synchronously
    h.failover.crash_active()  # kills the standby; nobody is left
    with pytest.raises(RuntimeError):
        h.failover.crash_active()


TestOnMmapStore = on_mmap_store(
    test_decision_persisted_before_acting,
    test_crash_mid_migration_rolls_back_and_promotes_standby,
    test_crash_with_surviving_orphan_classified_completed,
    test_crash_at_every_phase_settles_the_operation,
    test_state_copy_across_a_partitioned_link_rolls_back,
    test_watchdog_rolls_back_an_operation_that_cannot_drain,
    test_without_a_timeout_an_undrainable_operation_stays_pending,
    test_crashed_manager_is_fenced_off_stable_storage,
    test_crash_without_active_manager_rejected,
)
