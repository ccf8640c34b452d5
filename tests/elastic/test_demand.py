"""Tests for backlog-aware demand estimation and the scale-out step cap."""

import pytest

from repro.elastic import ElasticityEnforcer, ElasticityPolicy, ViolationKind
from repro.elastic.policy import Violation
from repro.elastic.probes import HostProbe, ProbeSet, SliceProbe

GIB = 1024 ** 3


def probe(slice_id, host, cpu, queue=0, processed=0, mem=100):
    return SliceProbe(slice_id, host, cpu, mem, queue, processed)


def probes_for(host_slices):
    hosts = {}
    slices = {}
    for host_id, entries in host_slices.items():
        load = sum(p.cpu_cores for p in entries)
        hosts[host_id] = HostProbe(host_id, 8, min(1.0, load / 8.0), 0, 0)
        for p in entries:
            slices[p.slice_id] = p
    return ProbeSet(time=0.0, window_s=5.0, hosts=hosts, slices=slices)


class TestDemandCores:
    def test_no_queue_returns_measured_cpu(self):
        p = probe("M:0", "h", 1.5)
        assert p.demand_cores(5.0) == 1.5

    def test_backlog_adds_drain_cores(self):
        # 1000 queued events; 500 processed in a 5 s window at 2 cores:
        # per-event cost 0.02 core-s → drain over 3 windows = 20/15 cores.
        p = probe("M:0", "h", 2.0, queue=1000, processed=500)
        expected = 2.0 + 1000 * (2.0 * 5.0 / 500) / (5.0 * 3.0)
        assert p.demand_cores(5.0) == pytest.approx(expected)

    def test_demand_capped(self):
        p = probe("M:0", "h", 8.0, queue=10 ** 6, processed=1)
        assert p.demand_cores(5.0, cap_cores=16.0) == 16.0

    def test_no_progress_with_backlog_at_least_doubles(self):
        p = probe("M:0", "h", 1.0, queue=50, processed=0)
        assert p.demand_cores(5.0) == 2.0

    def test_drain_windows_temper_the_estimate(self):
        p = probe("M:0", "h", 2.0, queue=1000, processed=500)
        fast = p.demand_cores(5.0, drain_windows=1.0)
        slow = p.demand_cores(5.0, drain_windows=5.0)
        assert fast > slow > 2.0


class TestScaleOutStepCap:
    def make_enforcer(self, factor=4.0, backlog=True):
        policy = ElasticityPolicy(
            backlog_aware_scaling=backlog, max_scale_out_factor=factor
        )
        return ElasticityEnforcer(policy, host_cores=8, host_memory_bytes=8 * GIB)

    def test_extreme_backlog_bounded_by_step_factor(self):
        # One saturated host with an absurd backlog on every slice.
        entries = [
            probe(f"M:{i}", "h", 1.0, queue=100_000, processed=10) for i in range(8)
        ]
        probes = probes_for({"h": entries})
        enforcer = self.make_enforcer(factor=2.0)
        decision = enforcer.resolve(
            probes, Violation(ViolationKind.GLOBAL_OVERLOAD, 1.0)
        )
        # Fleet may at most double: 1 host → at most 1 extra.
        assert decision.new_hosts <= 2

    def test_larger_factor_allows_bigger_jump(self):
        entries = [
            probe(f"M:{i}", "h", 1.0, queue=100_000, processed=10) for i in range(8)
        ]
        probes = probes_for({"h": entries})
        small = self.make_enforcer(factor=2.0).resolve(
            probes, Violation(ViolationKind.GLOBAL_OVERLOAD, 1.0)
        )
        large = self.make_enforcer(factor=6.0).resolve(
            probes, Violation(ViolationKind.GLOBAL_OVERLOAD, 1.0)
        )
        assert large.new_hosts > small.new_hosts

    def test_cpu_only_ignores_queues(self):
        busy = [probe(f"M:{i}", "h", 0.74, queue=10_000, processed=10)
                for i in range(8)]
        probes = probes_for({"h": busy})
        backlog_aware = self.make_enforcer(backlog=True).resolve(
            probes, Violation(ViolationKind.GLOBAL_OVERLOAD, 0.74)
        )
        cpu_only = self.make_enforcer(backlog=False).resolve(
            probes, Violation(ViolationKind.GLOBAL_OVERLOAD, 0.74)
        )
        assert backlog_aware.new_hosts > cpu_only.new_hosts

    def test_policy_validates_step_factor(self):
        with pytest.raises(ValueError):
            ElasticityPolicy(max_scale_out_factor=1.0)
