"""Tests for backlog-aware demand estimation and the scale-out step cap."""

import pytest

from repro.elastic import ElasticityEnforcer, ElasticityPolicy, ViolationKind
from repro.elastic import enforcer as enforcer_module
from repro.elastic.policy import MAX_SCALE_OUT_FACTOR
from repro.elastic.probes import HostProbe, ProbeSet, SliceProbe

from .conftest import cpu_violation

GIB = 1024 ** 3


def probe(slice_id, host, cpu, queue=0, processed=0, mem=100):
    return SliceProbe(slice_id, host, cpu, mem, queue, processed)


def probes_for(host_slices):
    hosts = {}
    slices = {}
    for host_id, entries in host_slices.items():
        load = sum(p.cpu_cores for p in entries)
        hosts[host_id] = HostProbe(host_id, 8, min(1.0, load / 8.0))
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
    def make_enforcer(self, backlog=True):
        policy = ElasticityPolicy(backlog_aware_scaling=backlog)
        return ElasticityEnforcer(policy, host_cores=8, host_memory_bytes=8 * GIB)

    def test_extreme_backlog_bounded_by_step_factor(self):
        # One saturated host with an absurd backlog on every slice.
        entries = [
            probe(f"M:{i}", "h", 1.0, queue=100_000, processed=10) for i in range(8)
        ]
        probes = probes_for({"h": entries})
        decision = self.make_enforcer().resolve(
            probes, cpu_violation(ViolationKind.GLOBAL_OVERLOAD, 1.0)
        )
        # The fleet may at most grow by the step factor per decision.
        assert 1 + decision.new_hosts <= MAX_SCALE_OUT_FACTOR

    def test_larger_factor_allows_bigger_jump(self, monkeypatch):
        entries = [
            probe(f"M:{i}", "h", 1.0, queue=100_000, processed=10) for i in range(8)
        ]
        probes = probes_for({"h": entries})
        large = self.make_enforcer().resolve(
            probes, cpu_violation(ViolationKind.GLOBAL_OVERLOAD, 1.0)
        )
        monkeypatch.setattr(enforcer_module, "MAX_SCALE_OUT_FACTOR", 2.0)
        small = self.make_enforcer().resolve(
            probes, cpu_violation(ViolationKind.GLOBAL_OVERLOAD, 1.0)
        )
        assert large.new_hosts > small.new_hosts

    def test_cpu_only_ignores_queues(self):
        busy = [probe(f"M:{i}", "h", 0.74, queue=10_000, processed=10)
                for i in range(8)]
        probes = probes_for({"h": busy})
        backlog_aware = self.make_enforcer(backlog=True).resolve(
            probes, cpu_violation(ViolationKind.GLOBAL_OVERLOAD, 0.74)
        )
        cpu_only = self.make_enforcer(backlog=False).resolve(
            probes, cpu_violation(ViolationKind.GLOBAL_OVERLOAD, 0.74)
        )
        assert backlog_aware.new_hosts > cpu_only.new_hosts
