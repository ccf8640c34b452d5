"""Tests for the elasticity policy rules."""

import pytest

from repro.elastic import CpuBandSignal, ElasticityPolicy, ViolationKind
from repro.elastic.policy import MIN_HOSTS
from repro.elastic.probes import HostProbe, ProbeSet


def check(policy, probes):
    """The highest-priority CPU band violation of the round, or ``None``."""
    return CpuBandSignal(policy).evaluate(probes)


def probe_set(utils, slices=None):
    hosts = {
        f"h{i}": HostProbe(f"h{i}", 8, u) for i, u in enumerate(utils)
    }
    return ProbeSet(time=0.0, window_s=5.0, hosts=hosts, slices=slices or {})


def test_defaults_match_paper():
    policy = ElasticityPolicy()
    assert policy.target_utilization == 0.50
    assert policy.scale_out_threshold == 0.70
    assert policy.grace_period_s == 30.0


def test_global_overload_detected():
    policy = ElasticityPolicy()
    violation = check(policy, probe_set([0.74, 0.73]))
    assert violation.kind is ViolationKind.GLOBAL_OVERLOAD
    assert violation.measured == pytest.approx(0.735)


def test_global_underload_detected():
    policy = ElasticityPolicy()
    violation = check(policy, probe_set([0.1, 0.2]))
    assert violation.kind is ViolationKind.GLOBAL_UNDERLOAD


def test_underload_ignored_at_min_hosts():
    assert MIN_HOSTS == 1
    assert check(ElasticityPolicy(), probe_set([0.05])) is None


def test_in_band_average_is_fine():
    policy = ElasticityPolicy()
    assert check(policy, probe_set([0.5, 0.5])) is None


def test_local_overload_detected_when_global_ok():
    policy = ElasticityPolicy()
    violation = check(policy, probe_set([0.9, 0.2, 0.2]))
    assert violation.kind is ViolationKind.LOCAL_OVERLOAD
    assert violation.host_id == "h0"


def test_global_takes_priority_over_local():
    policy = ElasticityPolicy()
    violation = check(policy, probe_set([0.95, 0.95]))
    assert violation.kind is ViolationKind.GLOBAL_OVERLOAD


def test_empty_probe_set_is_fine():
    assert check(ElasticityPolicy(), probe_set([])) is None


def test_threshold_validation():
    with pytest.raises(ValueError):
        ElasticityPolicy(scale_in_threshold=0.6, target_utilization=0.5)
    with pytest.raises(ValueError):
        ElasticityPolicy(scale_out_threshold=0.4)
    with pytest.raises(ValueError):
        ElasticityPolicy(local_overload_threshold=0.5)
    with pytest.raises(ValueError):
        ElasticityPolicy(grace_period_s=-1)
