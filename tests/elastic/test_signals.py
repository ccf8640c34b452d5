"""Policy signals: evaluation, sustain streaks, vetoes, arbitration."""

import pytest

from repro.elastic import (
    CpuBandSignal,
    DelaySloSignal,
    ElasticityPolicy,
    ElasticityEnforcer,
    ScalingAction,
    SignalStack,
    SpillPressureSignal,
    Violation,
    ViolationKind,
)
from repro.elastic.probes import DelayWindow, HostProbe, ProbeSet, SliceProbe
from repro.elastic.signals import (
    SPILL_HOLD_ROUNDS,
    SPILL_STARVED_LIMIT,
    CpuBandEvidence,
    DelaySloEvidence,
    SpillEvidence,
)
from repro.telemetry import Telemetry


def probe_set(utils, slices=None, delay=None, time=0.0):
    hosts = {
        f"h{i}": HostProbe(f"h{i}", 8, u, 0, 0) for i, u in enumerate(utils)
    }
    return ProbeSet(
        time=time, window_s=5.0, hosts=hosts, slices=slices or {}, delay=delay
    )


def window(p99, count=100, window_s=30.0):
    return DelayWindow(
        window_s=window_s, count=count, p50_s=p99 / 2, p99_s=p99, max_s=p99
    )


def spill_slice(slice_id="M:0", host="h0", depth=0, starved=0):
    return SliceProbe(
        slice_id, host, 0.5, 1000, 0, spill_depth=depth,
        starved_channels=starved,
    )


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
            found = signal.evaluate(probe_set(utils))
            if expected is None:
                assert found == []
            else:
                (violation,) = found
                assert (
                    violation.kind, violation.measured, violation.host_id
                ) == (expected[0], pytest.approx(expected[1]), expected[2])

    def test_produces_cpu_tagged_evidence(self):
        (violation,) = CpuBandSignal(ElasticityPolicy()).evaluate(
            probe_set([0.9, 0.9])
        )
        assert violation.signal == "cpu"
        assert violation.evidence.utilization == pytest.approx(0.9)
        assert violation.evidence.threshold == 0.70
        assert violation.evidence_attrs()["cpu_hosts"] == 2

    def test_never_vetoes(self):
        assert CpuBandSignal(ElasticityPolicy()).vetoes_scale_in(
            probe_set([0.1])
        ) is None


# -- DelaySloSignal -------------------------------------------------------


class TestDelaySloSignal:
    def test_breach_fires_with_enough_samples(self):
        policy = ElasticityPolicy(signals=("cpu", "slo"), slo_p99_s=1.0)
        signal = DelaySloSignal(policy)
        (violation,) = signal.evaluate(probe_set([0.5], delay=window(2.5)))
        assert violation.kind is ViolationKind.SLO_BREACH
        assert violation.signal == "slo"
        assert violation.measured == pytest.approx(2.5)
        assert isinstance(violation.evidence, DelaySloEvidence)
        assert violation.evidence.slo_s == 1.0

    def test_quiet_without_window_or_samples(self):
        policy = ElasticityPolicy(signals=("cpu", "slo"))
        signal = DelaySloSignal(policy)
        assert signal.evaluate(probe_set([0.5], delay=None)) == []
        assert signal.evaluate(
            probe_set([0.5], delay=window(9.9, count=5))
        ) == []

    def test_recovery_resets_the_streak(self):
        signal = DelaySloSignal(ElasticityPolicy(signals=("cpu", "slo")))

        def streak(p99):
            found = signal.evaluate(probe_set([0.5], delay=window(p99)))
            return [v.evidence.sustained_rounds for v in found]

        assert streak(2.0) == [1]
        assert streak(2.0) == [2]
        assert streak(0.2) == []
        assert streak(2.0) == [1]

    def test_vetoes_scale_in_until_release_floor(self):
        policy = ElasticityPolicy(signals=("cpu", "slo"), slo_p99_s=1.0)
        signal = DelaySloSignal(policy)
        probes = probe_set([0.5], delay=window(0.8))
        signal.evaluate(probes)
        assert "0.800" in signal.vetoes_scale_in(probes)
        probes = probe_set([0.5], delay=window(0.3))
        signal.evaluate(probes)
        assert signal.vetoes_scale_in(probes) is None

    def test_veto_expires_after_the_configured_budget(self):
        policy = ElasticityPolicy(
            signals=("cpu", "slo"), slo_p99_s=1.0, slo_veto_max_rounds=2,
        )
        signal = DelaySloSignal(policy)
        # p99 parked above the floor but below the SLO: no breach, so the
        # veto budget is never re-armed and must run out.
        probes = probe_set([0.5], delay=window(0.8))
        signal.evaluate(probes)
        assert signal.vetoes_scale_in(probes) is not None
        assert signal.vetoes_scale_in(probes) is not None
        assert signal.vetoes_scale_in(probes) is None  # expired
        # A fresh breach re-arms the budget.
        signal.evaluate(probe_set([0.5], delay=window(2.0)))
        signal.evaluate(probes)
        assert signal.vetoes_scale_in(probes) is not None


# -- SpillPressureSignal --------------------------------------------------


class TestSpillPressureSignal:
    def test_fires_on_sustained_depth(self):
        policy = ElasticityPolicy(
            signals=("cpu", "spill"), spill_depth_limit=50,
            spill_sustain_rounds=2,
        )
        signal = SpillPressureSignal(policy)
        slices = {"M:0": spill_slice(depth=60)}
        assert signal.evaluate(probe_set([0.5], slices=slices)) == []
        (violation,) = signal.evaluate(probe_set([0.5], slices=slices))
        assert violation.kind is ViolationKind.SPILL_PRESSURE
        assert violation.signal == "spill"
        assert isinstance(violation.evidence, SpillEvidence)
        assert violation.evidence.worst_slice == "M:0"
        assert violation.measured == 60.0

    def test_fires_on_starved_channels(self):
        policy = ElasticityPolicy(
            signals=("cpu", "spill"), spill_sustain_rounds=1,
        )
        signal = SpillPressureSignal(policy)
        assert signal.evaluate(
            probe_set([0.5], slices={"M:0": spill_slice("M:0")})
        ) == []
        slices = {"M:0": spill_slice("M:0", starved=SPILL_STARVED_LIMIT)}
        (violation,) = signal.evaluate(probe_set([0.5], slices=slices))
        assert violation.evidence.starved_channels == SPILL_STARVED_LIMIT

    def test_calm_rounds_reset_the_streak_and_the_veto(self):
        policy = ElasticityPolicy(
            signals=("cpu", "spill"), spill_sustain_rounds=2,
        )
        signal = SpillPressureSignal(policy)
        pressured = {"M:0": spill_slice(depth=60)}
        calm = {"M:0": spill_slice(depth=0)}
        signal.evaluate(probe_set([0.5], slices=pressured))
        assert signal.vetoes_scale_in(probe_set([0.5])) is not None
        for _ in range(SPILL_HOLD_ROUNDS + 1):
            signal.evaluate(probe_set([0.5], slices=calm))
        assert signal.vetoes_scale_in(probe_set([0.5])) is None
        assert signal.evaluate(probe_set([0.5], slices=pressured)) == []
        assert signal.evaluate(probe_set([0.5], slices=pressured)) != []

    def test_hold_rounds_bridge_bursty_pressure(self):
        # Spill queues drain to zero between flush epochs, so one calm
        # probe round must not hide a sustained overload.
        policy = ElasticityPolicy(
            signals=("cpu", "spill"), spill_sustain_rounds=2,
        )
        signal = SpillPressureSignal(policy)
        pressured = {"M:0": spill_slice(depth=60)}
        calm = {"M:0": spill_slice(depth=0)}
        signal.evaluate(probe_set([0.5], slices=pressured))
        for _ in range(SPILL_HOLD_ROUNDS):  # within the hold
            signal.evaluate(probe_set([0.5], slices=calm))
        reason = signal.vetoes_scale_in(probe_set([0.5]))
        assert reason is not None and "hold" in reason
        # The streak survived the gap: the next pressured round sustains.
        (violation,) = signal.evaluate(probe_set([0.5], slices=pressured))
        assert violation.kind is ViolationKind.SPILL_PRESSURE
        # One calm round past the hold: streak and veto reset.
        for _ in range(SPILL_HOLD_ROUNDS + 1):
            signal.evaluate(probe_set([0.5], slices=calm))
        assert signal.vetoes_scale_in(probe_set([0.5])) is None


# -- arbitration ----------------------------------------------------------


class TestSignalStackArbitration:
    def test_cpu_only_stack_is_the_cpu_band_signal(self):
        policy = ElasticityPolicy()
        stack = policy.signal_stack()
        probes = probe_set([0.9, 0.9])
        verdict = stack.evaluate(probes)
        (expected,) = CpuBandSignal(policy).evaluate(probes)
        assert verdict.winner == expected
        assert verdict.violations == (expected,)
        assert verdict.contending == []
        assert verdict.suppressed == ()

    def test_two_scale_outs_resolve_by_stack_order(self):
        policy = ElasticityPolicy(
            signals=("cpu", "spill"), spill_sustain_rounds=1
        )
        stack = policy.signal_stack()
        slices = {"M:0": spill_slice(depth=999)}
        verdict = stack.evaluate(probe_set([0.9, 0.9], slices=slices))
        assert len(verdict.violations) == 2
        assert verdict.winner.signal == "cpu"  # earlier in the stack
        assert verdict.contending == [("spill", "spill_pressure")]

        reordered = ElasticityPolicy(
            signals=("spill", "cpu"), spill_sustain_rounds=1
        ).signal_stack()
        verdict = reordered.evaluate(probe_set([0.9, 0.9], slices=slices))
        assert verdict.winner.signal == "spill"

    def test_scale_out_outranks_scale_in_across_signals(self):
        policy = ElasticityPolicy(
            signals=("cpu", "spill"), spill_sustain_rounds=1,
        )
        stack = policy.signal_stack()
        # cpu wants to scale in (avg 0.1), spill wants to scale out; the
        # cpu request is also vetoed by the pressure — either way the
        # spill scale-out must win.
        slices = {"M:0": spill_slice(starved=1)}
        verdict = stack.evaluate(probe_set([0.1, 0.1], slices=slices))
        assert verdict.winner.kind is ViolationKind.SPILL_PRESSURE
        assert verdict.winner.kind.action is ScalingAction.SCALE_OUT

    def test_slo_vetoes_cpu_scale_in(self):
        policy = ElasticityPolicy(signals=("cpu", "slo"))
        stack = policy.signal_stack()
        probes = probe_set([0.1, 0.1], delay=window(0.9))
        verdict = stack.evaluate(probes)
        assert verdict.winner is None
        ((violation, vetoer, reason),) = verdict.suppressed
        assert violation.kind is ViolationKind.GLOBAL_UNDERLOAD
        assert vetoer == "slo"
        assert "release floor" in reason

    def test_scale_in_flows_once_the_tail_recovers(self):
        policy = ElasticityPolicy(signals=("cpu", "slo"))
        stack = policy.signal_stack()
        probes = probe_set([0.1, 0.1], delay=window(0.2))
        verdict = stack.evaluate(probes)
        assert verdict.winner.kind is ViolationKind.GLOBAL_UNDERLOAD

    def test_determinism_two_identical_stacks_agree(self):
        rounds = [
            probe_set([0.9, 0.9], slices={"M:0": spill_slice(depth=80)}),
            probe_set([0.5, 0.5], slices={"M:0": spill_slice(depth=80)}),
            probe_set([0.1, 0.1], delay=window(0.9)),
            probe_set([0.1, 0.1], delay=window(0.1)),
        ]
        policy = ElasticityPolicy(signals=("cpu", "slo", "spill"))
        a, b = policy.signal_stack(), policy.signal_stack()
        for probes in rounds:
            va, vb = a.evaluate(probes), b.evaluate(probes)
            assert [
                (v.signal, v.kind, v.measured) for v in va.violations
            ] == [(v.signal, v.kind, v.measured) for v in vb.violations]
            assert (va.winner is None) == (vb.winner is None)

    def test_telemetry_counts_every_violation_and_veto(self):
        telemetry = Telemetry()
        policy = ElasticityPolicy(signals=("cpu", "slo"))
        stack = policy.signal_stack(telemetry=telemetry)
        stack.evaluate(probe_set([0.1, 0.1], delay=window(0.9)))
        assert telemetry.signal_violations.labels(
            signal="cpu", kind="global_underload"
        ).value == 1
        assert telemetry.scale_in_vetoes.labels(signal="slo").value == 1
        assert telemetry.slo_margin.value == pytest.approx(0.1)


# -- Violation ------------------------------------------------------------


class TestViolationCompat:
    def test_positional_construction_still_works(self):
        evidence = CpuBandEvidence(0.9, 0.70, 2)
        violation = Violation(ViolationKind.GLOBAL_OVERLOAD, evidence, "cpu")
        assert violation.kind is ViolationKind.GLOBAL_OVERLOAD
        assert violation.measured == 0.9
        assert violation.host_id == ""
        assert violation.signal == "cpu"
        assert violation.evidence is evidence
        assert violation.evidence_attrs() == evidence.attrs()

    def test_positional_host_id_still_works(self):
        violation = Violation(
            ViolationKind.LOCAL_OVERLOAD, CpuBandEvidence(0.95, 0.85, 4),
            "cpu", "host-3",
        )
        assert violation.host_id == "host-3"

    def test_kind_action_mapping(self):
        assert ViolationKind.GLOBAL_OVERLOAD.action is ScalingAction.SCALE_OUT
        assert ViolationKind.GLOBAL_UNDERLOAD.action is ScalingAction.SCALE_IN
        assert ViolationKind.LOCAL_OVERLOAD.action is ScalingAction.REBALANCE
        assert ViolationKind.SLO_BREACH.action is ScalingAction.SCALE_OUT
        assert ViolationKind.SPILL_PRESSURE.action is ScalingAction.SCALE_OUT


# -- decision-span shape --------------------------------------------------


def _enforcer_probes(slices=None):
    hosts = {
        "h0": HostProbe("h0", 8, 0.9, 0, 0),
        "h1": HostProbe("h1", 8, 0.9, 0, 0),
    }
    slices = slices or {
        f"M:{i}": SliceProbe(f"M:{i}", "h0" if i < 2 else "h1", 1.8, 10_000, 0)
        for i in range(4)
    }
    return ProbeSet(time=10.0, window_s=5.0, hosts=hosts, slices=slices)


CPU_ROUND_ATTRS = {
    "rule", "measured", "window_time", "window_s", "avg_utilization",
    "hosts", "actionable", "selected_slices", "placement", "new_hosts",
    "release_hosts", "signal", "cpu_utilization",
    "cpu_threshold", "cpu_hosts",
}


class TestDecisionSpanShape:
    def test_cpu_round_carries_signal_and_evidence(self):
        telemetry = Telemetry()
        policy = ElasticityPolicy()
        enforcer = ElasticityEnforcer(policy, host_cores=8, telemetry=telemetry)
        probes = _enforcer_probes()
        verdict = policy.signal_stack().evaluate(probes)
        enforcer.resolve(probes, verdict.winner, verdict=verdict)
        (event,) = telemetry.tracer.find("enforcer.decision")
        assert set(event.attrs) == CPU_ROUND_ATTRS
        assert event.attrs["signal"] == "cpu"
        assert event.attrs["cpu_threshold"] == 0.70

    def test_multi_signal_round_records_winner_and_contenders(self):
        telemetry = Telemetry()
        policy = ElasticityPolicy(
            signals=("cpu", "spill"), spill_sustain_rounds=1
        )
        enforcer = ElasticityEnforcer(policy, host_cores=8, telemetry=telemetry)
        slices = {
            "M:0": SliceProbe("M:0", "h0", 1.8, 10_000, 0, spill_depth=90),
            "M:1": SliceProbe("M:1", "h1", 1.8, 10_000, 0),
        }
        probes = _enforcer_probes(slices)
        verdict = policy.signal_stack().evaluate(probes)
        assert len(verdict.violations) == 2
        decision = enforcer.resolve(probes, verdict.winner, verdict=verdict)
        assert decision.signal == "cpu"
        (event,) = telemetry.tracer.find("enforcer.decision")
        assert event.attrs["signal"] == "cpu"
        assert event.attrs["contending"] == [("spill", "spill_pressure")]
        assert event.attrs["cpu_threshold"] == 0.70

    @pytest.mark.parametrize("signal,slices,delay,expected", [
        pytest.param(
            "slo", None, window(2.5),
            {"slo_p99_s": 2.5, "slo_target_s": 1.0},
            id="slo",
        ),
        pytest.param(
            "spill", {"M:0": spill_slice(depth=60)}, None,
            {"spill_depth": 60, "spill_worst_slice": "M:0"},
            id="spill",
        ),
    ])
    def test_symptom_round_carries_its_evidence(
        self, signal, slices, delay, expected
    ):
        telemetry = Telemetry()
        policy = ElasticityPolicy(signals=("cpu", signal), spill_sustain_rounds=1)
        enforcer = ElasticityEnforcer(policy, host_cores=8, telemetry=telemetry)
        # 55% CPU is inside the band: the symptom signal wins the round.
        probes = probe_set([0.55], slices=slices, delay=delay)
        verdict = policy.signal_stack().evaluate(probes)
        assert verdict.winner.signal == signal
        enforcer.resolve(probes, verdict.winner, verdict=verdict)
        (event,) = telemetry.tracer.find("enforcer.decision")
        assert event.attrs["signal"] == signal
        assert {name: event.attrs[name] for name in expected} == expected

    def test_symptom_scale_out_uses_reduced_target(self):
        policy = ElasticityPolicy(
            signals=("cpu", "spill"), spill_sustain_rounds=1,
        )
        enforcer = ElasticityEnforcer(policy, host_cores=8)
        # One host at 55% — inside the CPU band, so the paper's rules
        # would not act; spill pressure must still offload toward the
        # reduced 37.5% target.
        hosts = {"h0": HostProbe("h0", 8, 0.55, 0, 0)}
        slices = {
            f"M:{i}": SliceProbe(
                f"M:{i}", "h0", 1.1, 10_000, 0, spill_depth=60
            )
            for i in range(4)
        }
        probes = ProbeSet(time=0.0, window_s=5.0, hosts=hosts, slices=slices)
        verdict = policy.signal_stack().evaluate(probes)
        assert verdict.winner.kind is ViolationKind.SPILL_PRESSURE
        decision = enforcer.resolve(probes, verdict.winner, verdict=verdict)
        assert decision is not None
        assert decision.kind is ViolationKind.SPILL_PRESSURE
        assert decision.signal == "spill"
        assert decision.new_hosts >= 1
