"""The scaling rule: CPU band evaluation, the p99 scale-in veto, spans."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.elastic import (
    CpuBandSignal,
    DelaySloSignal,
    ElasticityEnforcer,
    ElasticityPolicy,
    ScalingRule,
    Violation,
    ViolationKind,
)
from repro.elastic.probes import DelayWindow, HostProbe, ProbeSet, SliceProbe
from repro.elastic.signals import SLO_MIN_SAMPLES, CpuBandEvidence
from repro.telemetry import Telemetry


def probe_set(utils, slices=None, delay=None, time=0.0):
    hosts = {
        f"h{i}": HostProbe(f"h{i}", 8, u) for i, u in enumerate(utils)
    }
    return ProbeSet(
        time=time, window_s=5.0, hosts=hosts, slices=slices or {}, delay=delay
    )


def window(p99, count=100, window_s=30.0):
    return DelayWindow(
        window_s=window_s, count=count, p50_s=p99 / 2, p99_s=p99, max_s=p99
    )


def veto_policy(**overrides):
    return ElasticityPolicy(slo_veto=True, slo_p99_s=1.0, **overrides)


#: The release request the CPU rules raise for two idle hosts.
RELEASE = CpuBandSignal(ElasticityPolicy()).evaluate(probe_set([0.1, 0.1]))


# -- CpuBandSignal --------------------------------------------------------


class TestCpuBandSignal:
    def test_every_band_yields_its_rule(self):
        signal = CpuBandSignal(ElasticityPolicy())
        for utils, expected in (
            ([0.9, 0.9], (ViolationKind.GLOBAL_OVERLOAD, 0.9, "")),
            ([0.1, 0.1], (ViolationKind.GLOBAL_UNDERLOAD, 0.1, "")),
            ([0.9, 0.2, 0.2], (ViolationKind.LOCAL_OVERLOAD, 0.9, "h0")),
            ([0.5, 0.5], None),
            ([], None),
        ):
            violation = signal.evaluate(probe_set(utils))
            if expected is None:
                assert violation is None
            else:
                assert (
                    violation.kind, violation.measured, violation.host_id
                ) == (expected[0], pytest.approx(expected[1]), expected[2])

    def test_produces_cpu_tagged_evidence(self):
        violation = CpuBandSignal(ElasticityPolicy()).evaluate(
            probe_set([0.9, 0.9])
        )
        assert violation.evidence.utilization == pytest.approx(0.9)
        assert violation.evidence.threshold == 0.70
        assert violation.evidence_attrs()["cpu_hosts"] == 2


# -- DelaySloSignal: the veto ---------------------------------------------


class TestDelaySloSignal:
    def test_quiet_without_window_or_samples(self):
        veto = DelaySloSignal(veto_policy(slo_veto_max_rounds=1))
        few = window(9.9, count=SLO_MIN_SAMPLES - 1)
        assert not veto.vetoes(probe_set([0.1, 0.1], delay=None), RELEASE)
        assert not veto.vetoes(probe_set([0.1, 0.1], delay=few), RELEASE)
        # Too few samples also reset the budget of an expired veto.
        probes = probe_set([0.1, 0.1], delay=window(0.8))
        assert veto.vetoes(probes, RELEASE)
        assert not veto.vetoes(probes, RELEASE)  # expired
        assert not veto.vetoes(probe_set([0.1, 0.1], delay=few), RELEASE)
        assert veto.vetoes(probes, RELEASE)

    def test_vetoes_scale_in_until_release_floor(self):
        veto = DelaySloSignal(veto_policy())
        probes = probe_set([0.1, 0.1], delay=window(0.8))
        assert veto.vetoes(probes, RELEASE)
        assert not veto.vetoes(probe_set([0.1, 0.1], delay=window(0.3)), RELEASE)
        # Only a release is ever held back.
        overload = CpuBandSignal(ElasticityPolicy()).evaluate(
            probe_set([0.9, 0.9])
        )
        assert not veto.vetoes(probes, overload)
        assert not veto.vetoes(probes, None)

    def test_veto_expires_after_the_configured_budget(self):
        veto = DelaySloSignal(veto_policy(slo_veto_max_rounds=2))
        # p99 parked above the floor but below the SLO: no breach, so the
        # veto budget is never re-armed and must run out.
        probes = probe_set([0.1, 0.1], delay=window(0.8))
        assert veto.vetoes(probes, RELEASE)
        assert veto.vetoes(probes, RELEASE)
        assert not veto.vetoes(probes, RELEASE)  # expired
        # A fresh breach re-arms the budget, with or without a release.
        assert not veto.vetoes(probe_set([0.5], delay=window(2.0)), None)
        assert veto.vetoes(probes, RELEASE)
        assert veto.vetoes(probes, RELEASE)
        assert not veto.vetoes(probes, RELEASE)


# -- ScalingRule ----------------------------------------------------------


class TestScalingRule:
    def test_veto_off_rule_is_the_cpu_band_signal(self):
        policy = ElasticityPolicy()
        rule = ScalingRule(policy)
        assert rule.veto is None
        for utils in ([0.9, 0.9], [0.1, 0.1], [0.9, 0.2, 0.2], [0.5]):
            probes = probe_set(utils, delay=window(0.9))
            assert rule.evaluate(probes) == CpuBandSignal(policy).evaluate(probes)

    def test_slo_vetoes_cpu_scale_in(self):
        rule = ScalingRule(veto_policy())
        assert rule.evaluate(probe_set([0.1, 0.1], delay=window(0.9))) is None

    def test_scale_in_flows_once_the_tail_recovers(self):
        rule = ScalingRule(veto_policy())
        violation = rule.evaluate(probe_set([0.1, 0.1], delay=window(0.2)))
        assert violation.kind is ViolationKind.GLOBAL_UNDERLOAD

    def test_determinism_two_identical_rules_agree(self):
        rounds = [
            probe_set([0.9, 0.9]),
            probe_set([0.1, 0.1], delay=window(0.9)),
            probe_set([0.1, 0.1], delay=window(0.1)),
            probe_set([0.9, 0.2, 0.2], delay=window(2.0)),
        ]
        a, b = ScalingRule(veto_policy()), ScalingRule(veto_policy())
        for probes in rounds:
            assert a.evaluate(probes) == b.evaluate(probes)

    def test_telemetry_counts_every_violation_and_veto(self):
        telemetry = Telemetry()
        rule = ScalingRule(veto_policy(), telemetry=telemetry)
        rule.evaluate(probe_set([0.1, 0.1], delay=window(0.9)))
        assert telemetry.signal_violations.labels(
            kind="global_underload"
        ).value == 1
        assert telemetry.scale_in_vetoes.value == 1
        assert telemetry.slo_margin.value == pytest.approx(0.1)


ROUNDS = st.lists(
    st.tuples(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
        st.one_of(
            st.none(),
            st.tuples(st.integers(0, 2 * SLO_MIN_SAMPLES), st.floats(0.0, 2.0)),
        ),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(rounds=ROUNDS, max_rounds=st.integers(0, 3))
def test_the_veto_only_ever_withholds_a_release(rounds, max_rounds):
    """Veto on returns veto off's violation every round, except a
    :attr:`~ViolationKind.GLOBAL_UNDERLOAD` it suppresses."""
    off = ScalingRule(ElasticityPolicy())
    on = ScalingRule(veto_policy(slo_veto_max_rounds=max_rounds))
    for utils, delay in rounds:
        if delay is not None:
            delay = window(delay[1], count=delay[0])
        probes = probe_set(utils, delay=delay)
        expected, got = off.evaluate(probes), on.evaluate(probes)
        if got != expected:
            assert got is None
            assert expected.kind is ViolationKind.GLOBAL_UNDERLOAD


# -- Violation ------------------------------------------------------------


class TestViolationCompat:
    def test_positional_construction_still_works(self):
        evidence = CpuBandEvidence(0.9, 0.70, 2)
        violation = Violation(ViolationKind.GLOBAL_OVERLOAD, evidence)
        assert violation.kind is ViolationKind.GLOBAL_OVERLOAD
        assert violation.measured == 0.9
        assert violation.host_id == ""
        assert violation.evidence is evidence
        assert violation.evidence_attrs() == evidence.attrs()

    def test_positional_host_id_still_works(self):
        violation = Violation(
            ViolationKind.LOCAL_OVERLOAD, CpuBandEvidence(0.95, 0.85, 4),
            "host-3",
        )
        assert violation.host_id == "host-3"


# -- decision-span shape --------------------------------------------------


def _enforcer_probes():
    hosts = {
        "h0": HostProbe("h0", 8, 0.9),
        "h1": HostProbe("h1", 8, 0.9),
    }
    slices = {
        f"M:{i}": SliceProbe(f"M:{i}", "h0" if i < 2 else "h1", 1.8, 10_000, 0)
        for i in range(4)
    }
    return ProbeSet(time=10.0, window_s=5.0, hosts=hosts, slices=slices)


CPU_ROUND_ATTRS = {
    "rule", "measured", "window_time", "window_s", "avg_utilization",
    "hosts", "actionable", "selected_slices", "placement", "new_hosts",
    "release_hosts", "cpu_utilization", "cpu_threshold", "cpu_hosts",
}


class TestDecisionSpanShape:
    def test_cpu_round_carries_its_evidence(self):
        telemetry = Telemetry()
        policy = ElasticityPolicy()
        enforcer = ElasticityEnforcer(policy, host_cores=8, telemetry=telemetry)
        probes = _enforcer_probes()
        enforcer.resolve(probes, ScalingRule(policy).evaluate(probes))
        (event,) = telemetry.tracer.find("enforcer.decision")
        assert set(event.attrs) == CPU_ROUND_ATTRS
        assert event.attrs["cpu_threshold"] == 0.70
