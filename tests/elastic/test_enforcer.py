"""Tests for the two-step elasticity enforcer."""

import dataclasses

import pytest

from repro.cluster import CloudProvider, HostSpec
from repro.elastic import (
    CpuBandSignal,
    ElasticityEnforcer,
    ElasticityPolicy,
    ProbeCollector,
    ViolationKind,
)
from repro.elastic.policy import MIN_HOSTS
from repro.elastic.probes import HostProbe, ProbeSet, SliceProbe
from repro.pubsub import HubConfig, StreamHub
from repro.sim import Environment

from .conftest import cpu_violation

GIB = 1024 ** 3
MIB = 1024 ** 2


def make_probes(host_slices):
    """host_slices: {host_id: [(slice_id, cpu_cores, memory_bytes), ...]}"""
    hosts = {}
    slices = {}
    for host_id, entries in host_slices.items():
        load = sum(cpu for _, cpu, _ in entries)
        hosts[host_id] = HostProbe(host_id, 8, load / 8.0, 0, 0)
        for slice_id, cpu, mem in entries:
            slices[slice_id] = SliceProbe(slice_id, host_id, cpu, mem, 0)
    return ProbeSet(time=0.0, window_s=5.0, hosts=hosts, slices=slices)


@pytest.fixture
def enforcer():
    return ElasticityEnforcer(ElasticityPolicy(), host_cores=8, host_memory_bytes=8 * GIB)


class TestScaleOut:
    def test_figure5_example(self, enforcer):
        """Paper Figure 5: hosts at 74% and 73%; the min-memory slices (APs
        on host 1, EPs on host 2) move to one new host."""
        probes = make_probes({
            "host1": [
                ("AP:1", 1.0, 16 * MIB),
                ("AP:2", 1.0, 16 * MIB),
                ("M:1", 1.96, 400 * MIB),
                ("M:2", 1.96, 400 * MIB),
            ],
            "host2": [
                ("EP:1", 0.92, 20 * MIB),
                ("EP:2", 0.92, 20 * MIB),
                ("M:3", 2.0, 400 * MIB),
                ("M:4", 2.0, 400 * MIB),
            ],
        })
        violation = CpuBandSignal(ElasticityPolicy()).evaluate(probes)
        assert violation.kind is ViolationKind.GLOBAL_OVERLOAD
        decision = enforcer.resolve(probes, violation)
        moved = {m.slice_id for m in decision.migrations}
        assert moved == {"AP:1", "AP:2", "EP:1", "EP:2"}
        assert decision.new_hosts == 1
        assert all(m.to_host == "new-0" for m in decision.migrations)

    def test_scale_out_uses_existing_headroom_first(self, enforcer):
        probes = make_probes({
            "busy": [("M:0", 3.0, 100), ("M:1", 3.0, 100), ("AP:0", 0.8, 10)],
            "idle": [("EP:0", 0.4, 10)],
        })
        decision = enforcer.resolve(
            probes, cpu_violation(ViolationKind.GLOBAL_OVERLOAD, 0.45)
        )
        # busy at 85%: ~2.8 cores must leave; idle has 3.6 cores headroom
        # below target, so no new host should be needed.
        assert decision.new_hosts == 0
        assert all(m.to_host == "idle" for m in decision.migrations)
        assert all(m.from_host == "busy" for m in decision.migrations)

    def test_no_overloaded_host_yields_none(self, enforcer):
        probes = make_probes({"h": [("M:0", 2.0, 100)]})  # 25% util
        assert enforcer.resolve(
            probes, cpu_violation(ViolationKind.GLOBAL_OVERLOAD, 0.9)
        ) is None

    def test_migrations_never_target_origin_host(self, enforcer):
        probes = make_probes({
            "h1": [(f"M:{i}", 0.8, 100) for i in range(8)],  # 80% util
        })
        decision = enforcer.resolve(
            probes, cpu_violation(ViolationKind.GLOBAL_OVERLOAD, 0.8)
        )
        assert decision is not None
        assert all(m.to_host != "h1" for m in decision.migrations)


class TestScaleIn:
    def test_releases_least_loaded_host(self, enforcer):
        probes = make_probes({
            "h1": [("M:0", 1.2, 100)],
            "h2": [("M:1", 1.0, 100)],
            "h3": [("AP:0", 0.2, 10)],
        })
        decision = enforcer.resolve(
            probes, cpu_violation(ViolationKind.GLOBAL_UNDERLOAD, 0.1)
        )
        # Total 2.4 cores needs ceil(2.4/4) = 1 host; two can go; the least
        # loaded (h3 then h2) are chosen.
        assert set(decision.release_hosts) == {"h3", "h2"}
        assert {m.slice_id for m in decision.migrations} == {"AP:0", "M:1"}
        for migration in decision.migrations:
            assert migration.to_host not in decision.release_hosts

    def test_no_release_when_load_requires_all_hosts(self, enforcer):
        probes = make_probes({
            "h1": [("M:0", 3.2, 100)],
            "h2": [("M:1", 3.2, 100)],
        })
        # 6.4 cores / 4-core target capacity = 2 hosts: no excess.
        assert enforcer.resolve(
            probes, cpu_violation(ViolationKind.GLOBAL_UNDERLOAD, 0.4)
        ) is None

    def test_never_goes_below_min_hosts(self, enforcer):
        probes = make_probes({
            "h1": [("M:0", 0.1, 10)],
            "h2": [("M:1", 0.1, 10)],
            "h3": [("AP:0", 0.1, 10)],
        })
        decision = enforcer.resolve(
            probes, cpu_violation(ViolationKind.GLOBAL_UNDERLOAD, 0.0125)
        )
        assert len(probes.hosts) - len(decision.release_hosts) == MIN_HOSTS
        single = make_probes({"h1": [("M:0", 0.1, 10)]})
        assert enforcer.resolve(
            single, cpu_violation(ViolationKind.GLOBAL_UNDERLOAD, 0.0125)
        ) is None

    def test_empty_host_released_without_migrations(self, enforcer):
        probes = make_probes({
            "h1": [("M:0", 1.0, 100)],
            "h2": [],
        })
        decision = enforcer.resolve(
            probes, cpu_violation(ViolationKind.GLOBAL_UNDERLOAD, 0.0625)
        )
        assert decision.release_hosts == ["h2"]
        assert decision.migrations == []


class TestLocalRule:
    def test_local_overload_rebalances_to_existing_hosts(self, enforcer):
        probes = make_probes({
            "hot": [("M:0", 4.0, 100), ("M:1", 3.3, 100)],  # ≈ 91%
            "cold": [("AP:0", 0.4, 10)],  # 5%
        })
        decision = enforcer.resolve(
            probes, cpu_violation(ViolationKind.LOCAL_OVERLOAD, 0.9125, "hot")
        )
        assert decision.kind is ViolationKind.LOCAL_OVERLOAD
        assert decision.new_hosts == 0
        assert all(m.from_host == "hot" and m.to_host == "cold"
                   for m in decision.migrations)

    def test_local_overload_opens_new_host_as_last_resort(self, enforcer):
        probes = make_probes({
            "hot": [("M:0", 4.0, 100), ("M:1", 3.2, 100)],
            "alsohot": [("M:2", 3.9, 100)],
        })
        decision = enforcer.resolve(
            probes, cpu_violation(ViolationKind.LOCAL_OVERLOAD, 0.9, "hot")
        )
        assert decision.new_hosts == 1

    def test_unmovable_hot_slices_yield_no_decision(self, enforcer):
        """Slices are static partitions: when no selection of a hot host's
        M slices fits elsewhere, the round yields nothing to execute.

        The probes come from a live hub's collector, so they carry
        whatever it reports for real matcher slices.
        """
        env = Environment()
        cloud = CloudProvider(env, spec=HostSpec(cores=8))
        hot, full, sink = (cloud.provision_now() for _ in range(3))
        hub = StreamHub(env, cloud.network, HubConfig.sampled(m_slices=3))
        hub.deploy(ap_hosts=[full], m_hosts=[hot], ep_hosts=[full],
                   sink_hosts=[sink])
        collected = ProbeCollector(
            hub.runtime, hub.engine_slice_ids(), hosts_fn=lambda: [hot, full]
        ).collect_now()
        # The hot host runs three 2.6-core M slices and must shed 3.8 cores:
        # two slices.  The other host is full and the one fresh host a
        # local overload may open holds only one of them.
        slices = {
            slice_id: dataclasses.replace(
                probe, cpu_cores=2.6 if slice_id.startswith("M:") else 1.0
            )
            for slice_id, probe in collected.slices.items()
        }
        hosts = {
            hot.host_id: dataclasses.replace(
                collected.hosts[hot.host_id], cpu_utilization=7.8 / 8
            ),
            full.host_id: dataclasses.replace(
                collected.hosts[full.host_id], cpu_utilization=1.0
            ),
        }
        probes = dataclasses.replace(collected, hosts=hosts, slices=slices)
        assert enforcer.resolve(
            probes,
            cpu_violation(ViolationKind.LOCAL_OVERLOAD, 7.8 / 8, hot.host_id),
        ) is None

    def test_unknown_host_yields_none(self, enforcer):
        probes = make_probes({"h": [("M:0", 1.0, 100)]})
        assert enforcer.resolve(
            probes, cpu_violation(ViolationKind.LOCAL_OVERLOAD, 0.9, "ghost")
        ) is None


def test_invalid_construction():
    with pytest.raises(ValueError):
        ElasticityEnforcer(ElasticityPolicy(), host_cores=0)
