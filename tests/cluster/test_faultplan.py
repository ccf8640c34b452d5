"""Tests for the scripted chaos layer: FaultPlan, Watchdog, standing plan."""

import pytest

from repro.cluster import (
    CloudProvider,
    FailureDetector,
    FaultPlan,
    Watchdog,
)
from repro.engine import MigrationCosts, ReliabilityCoordinator
from repro.sim import Environment, Interrupt

from ..engine.helpers import CountingState, Harness

FAST = MigrationCosts(pre_s=0.01, post_s=0.01,
                      serialize_s_per_byte=1e-9, deserialize_s_per_byte=1e-9)


def make_plan(hosts=4, detection_delay_s=0.5, seed=0):
    env = Environment()
    cloud = CloudProvider(env)
    host_list = [cloud.provision_now() for _ in range(hosts)]
    detector = FailureDetector(env, detection_delay_s=detection_delay_s)
    plan = FaultPlan(env, cloud=cloud, detector=detector, seed=seed)
    return env, cloud, host_list, detector, plan


class TestGroups:
    def test_group_and_members(self):
        _, _, hosts, _, plan = make_plan()
        plan.group("rack", hosts[:2])
        assert plan.members("rack") == hosts[:2]

    def test_duplicate_group_rejected(self):
        _, _, hosts, _, plan = make_plan()
        plan.group("rack", hosts[:2])
        with pytest.raises(ValueError):
            plan.group("rack", hosts[2:])

    def test_unknown_group_rejected(self):
        _, _, _, _, plan = make_plan()
        with pytest.raises(ValueError):
            plan.members("nope")
        with pytest.raises(ValueError):
            plan.fail_group_at(1.0, "nope")

    def test_past_fault_rejected(self):
        env, _, hosts, _, plan = make_plan()
        plan.group("rack", hosts[:2])
        env.run(until=5.0)
        with pytest.raises(ValueError):
            plan.fail_group_at(1.0, "rack")


class TestCorrelatedLoss:
    def test_fail_group_kills_whole_rack_at_once(self):
        env, _, hosts, detector, plan = make_plan()
        plan.group("rack", hosts[:3])
        plan.fail_group_at(4.0, "rack")
        env.run()
        assert all(h.released for h in hosts[:3])
        assert not hosts[3].released
        assert plan.crashed == hosts[:3]
        # Detection is correlated too: every victim heard at the same time.
        assert detector.detected == hosts[:3]
        times = [t for (t, kind, _) in plan.injected]
        assert times == [4.0]
        assert plan.injected[0][1] == "rack_loss"
        assert plan.injected[0][2]["group"] == "rack"

    def test_single_crash_records_host_crash_kind(self):
        env, _, hosts, _, plan = make_plan()
        plan.group("all", hosts)
        plan.crash_host_at(2.0, hosts[1])
        env.run()
        assert plan.injected[0][1] == "host_crash"
        assert plan.crashed == [hosts[1]]

    def test_seed_picks_victim_when_unspecified(self):
        def victim(seed):
            env, _, hosts, _, plan = make_plan(seed=seed)
            plan.group("all", hosts)
            plan.crash_host_at(1.0)
            env.run()
            return plan.crashed[0].host_id, [h.host_id for h in hosts]

        picked, pool = victim(3)
        assert picked in pool
        again, _ = victim(3)
        assert again == picked  # deterministic per seed

    def test_dead_hosts_not_crashed_twice(self):
        env, _, hosts, _, plan = make_plan()
        plan.group("rack", hosts[:2])
        plan.crash_host_at(1.0, hosts[0])
        plan.fail_group_at(2.0, "rack")  # hosts[0] already gone
        env.run()
        assert plan.crashed == [hosts[0], hosts[1]]


class TestPartitions:
    def test_partition_drops_then_heal_restores(self):
        env, cloud, hosts, _, plan = make_plan()
        plan.group("left", hosts[:2])
        plan.group("right", hosts[2:])
        plan.partition_at(1.0, "left", "right")
        plan.heal_at(3.0)
        delivered = []

        def traffic():
            while env.now < 5.0:
                cloud.network.send(
                    hosts[0].host_id, hosts[2].host_id, 100, None,
                    lambda _payload: delivered.append(env.now),
                )
                yield env.timeout(0.5)

        env.process(traffic())
        env.run()
        assert cloud.network.partition_drops > 0
        # Nothing inside the window arrived; traffic after heal did.
        assert all(t < 1.0 or t > 3.0 for t in delivered)
        kinds = [kind for (_, kind, _) in plan.injected]
        assert kinds == ["partition", "heal"]
        assert plan.injected[1][2] == {"a": "*", "b": "*"}


class TestManagerCrash:
    def test_crash_manager_at_time(self):
        env, _, _, _, plan = make_plan()
        crashes = []
        plan.crash_manager_at(2.0, lambda: crashes.append(env.now))
        env.run()
        assert crashes == [2.0]
        assert plan.injected[0][1] == "manager_crash"

    def test_crash_at_phase_fires_once_for_matching_phase(self):
        env, _, _, _, plan = make_plan()
        crashes = []

        class FakeRuntime:
            migration_phase_listeners = []

        runtime = FakeRuntime()
        plan.crash_manager_at_phase(
            runtime, lambda: crashes.append(env.now), phase="copy"
        )
        (listener,) = runtime.migration_phase_listeners
        listener("M:0", "sync")    # wrong phase: ignored
        listener("M:0", "copy")    # fires
        listener("M:1", "copy")    # one-shot: ignored
        env.run()
        assert len(crashes) == 1
        assert plan.injected[0][2] == {"phase": "copy"}


class TestWatchdog:
    def test_interrupts_overrunning_process(self):
        env = Environment()
        dog = Watchdog(env)
        outcome = []

        def stuck():
            try:
                yield env.timeout(100.0)
                outcome.append("finished")
            except Interrupt as interrupt:
                outcome.append(("interrupted", interrupt.cause, env.now))

        process = env.process(stuck())
        dog.guard(process, timeout_s=5.0, cause="migration M:0")
        env.run()
        assert outcome == [("interrupted", "migration M:0", 5.0)]
        assert dog.timeouts == 1

    def test_disarm_before_deadline(self):
        env = Environment()
        dog = Watchdog(env)

        def quick():
            yield env.timeout(1.0)

        process = env.process(quick())
        disarm = dog.guard(process, timeout_s=5.0)
        env.call_later(2.0, disarm)
        env.run()
        assert dog.timeouts == 0

    def test_finished_process_not_interrupted(self):
        env = Environment()
        dog = Watchdog(env)

        def quick():
            yield env.timeout(1.0)

        env.process(quick())
        process = env.process(quick())
        dog.guard(process, timeout_s=5.0)
        env.run()
        assert dog.timeouts == 0

    def test_invalid_timeout(self):
        env = Environment()
        with pytest.raises(ValueError):
            Watchdog(env).guard(None, timeout_s=0)


class TestStandingFaultPlan:
    """The standing plan (RESILIENCE.md §6) against a real deployment,
    once per seed of the ``chaos_seed`` fixture."""

    def test_recovery_converges_under_standing_plan(self, standing_fault_plan):
        h = Harness(hosts=3, cores=4, migration_costs=FAST)
        h.runtime.add_operator(
            "S", 1, lambda i: CountingState(bytes_per_entry=200, cost_s=0.001)
        )
        h.runtime.deploy_operator("S", [h.hosts[0]])
        coordinator = ReliabilityCoordinator(
            h.runtime, interval_s=1.0, replacement_host_fn=lambda: h.hosts[2]
        )
        coordinator.start(["S:0"])
        detector = FailureDetector(h.env, detection_delay_s=0.3)
        detector.subscribe(coordinator.handle_host_crash)
        plan = standing_fault_plan(
            h.env, cloud=h.cloud, detector=detector, hosts=[h.hosts[0]]
        )
        total = 200

        def feeder():
            for i in range(total):
                h.runtime.inject("client", "S", "add", (i, i), 100, key=0)
                yield h.env.timeout(0.02)

        h.env.process(feeder())
        h.env.run(until=10.0)  # coordinator checkpoints forever; bound it
        # The plan fired, the slice moved, and no event was lost.
        assert [kind for (_, kind, _) in plan.injected] == ["host_crash"]
        assert h.runtime.placement()["S:0"] == h.hosts[2].host_id
        assert h.handler("S:0").values == {i: i for i in range(total)}
