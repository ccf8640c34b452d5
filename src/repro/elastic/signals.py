"""Pluggable policy signals: who may ask the enforcer to act, and why.

A **policy signal** looks at one probe round (:class:`ProbeSet` plus the
windowed telemetry it carries) and answers "is a rule being violated?"
with zero or more evidence-carrying :class:`Violation`\\s.  Three signals
ship:

* :class:`CpuBandSignal` (``cpu``) — the paper's §V global/local CPU band
  rules, verbatim.
* :class:`DelaySloSignal` (``slo``) — windowed p99 of
  ``notification_delay_seconds`` against a target SLO; fires *before* CPU
  saturates because tail delay climbs while queues build.
* :class:`SpillPressureSignal` (``spill``) — sustained transport
  spill/starvation pressure (DESIGN.md §9); upstream credit starvation
  appears before the bottleneck slice's CPU does.

**Arbitration** (:class:`SignalStack.evaluate`) is deterministic:

1. Every enabled signal evaluates the round, in stack order; all
   violations are recorded (telemetry + decision span), not just the
   winner.
2. Scale-in requests are dropped while any signal *vetoes* release
   (e.g. p99 still near the SLO, spill pressure still recent) — the
   "release later" half of symptom-driven elasticity.
3. The winner is the minimum of ``(action rank, stack position,
   intra-signal order)`` where scale-out < rebalance < scale-in: adding
   capacity under overload evidence always beats releasing it, ties go
   to the earlier signal in the configured stack.

Determinism: signals are pure functions of the probe round plus integer
round counters (sustain streaks), probe rounds arrive at fixed
simulated times, and no wall-clock or randomness is consulted — two runs
with equal inputs produce equal verdicts.  With the default single-signal
``cpu`` stack, the verdict is exactly ``CpuBandSignal``'s first violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from .policy import (
    MIN_HOSTS,
    SIGNAL_NAMES,
    ScalingAction,
    Violation,
    ViolationKind,
)
from .probes import ProbeSet

__all__ = [
    "SIGNAL_NAMES",
    "CpuBandEvidence",
    "DelaySloEvidence",
    "SpillEvidence",
    "CpuBandSignal",
    "DelaySloSignal",
    "SpillPressureSignal",
    "SignalVerdict",
    "SignalStack",
]

#: Minimum delay samples in the window before the SLO signal speaks.
SLO_MIN_SAMPLES = 20
#: Scale-in is vetoed while the windowed p99 exceeds this fraction of the
#: SLO — the "release later" half of SLO-driven elasticity.
SLO_RELEASE_FRACTION = 0.5
#: Credit-starved channels (summed over slices) that count as pressure.
SPILL_STARVED_LIMIT = 1
#: Calm probe rounds the spill signal tolerates before its sustain streak
#: resets and its scale-in veto lifts.  Spill pressure is bursty
#: round-to-round (queues drain between flush epochs); the hold keeps one
#: quiet heartbeat from hiding sustained pressure.
SPILL_HOLD_ROUNDS = 3

#: Arbitration rank of each action class (lower wins).
_ACTION_RANK = {
    ScalingAction.SCALE_OUT: 0,
    ScalingAction.REBALANCE: 1,
    ScalingAction.SCALE_IN: 2,
}


@dataclass(frozen=True)
class CpuBandEvidence:
    """Why a CPU band rule fired."""

    #: The violating measurement — average (global rules) or single-host
    #: (local rule) CPU utilization, in [0, 1].
    utilization: float
    #: The band edge that was crossed.
    threshold: float
    #: Hosts that reported in the round.
    hosts: int

    @property
    def headline(self) -> float:
        return self.utilization

    def attrs(self) -> Mapping[str, object]:
        return {
            "cpu_utilization": self.utilization,
            "cpu_threshold": self.threshold,
            "cpu_hosts": self.hosts,
        }


@dataclass(frozen=True)
class DelaySloEvidence:
    """Why the delay-SLO signal fired."""

    #: Windowed p99 notification delay (seconds).
    p99_s: float
    #: The configured SLO target (seconds).
    slo_s: float
    #: Delay samples inside the window.
    samples: int
    #: Width of the sliding window (seconds).
    window_s: float
    #: Consecutive probe rounds the condition held.
    sustained_rounds: int

    @property
    def headline(self) -> float:
        return self.p99_s

    def attrs(self) -> Mapping[str, object]:
        return {
            "slo_p99_s": self.p99_s,
            "slo_target_s": self.slo_s,
            "slo_samples": self.samples,
            "slo_window_s": self.window_s,
            "slo_sustained_rounds": self.sustained_rounds,
        }


@dataclass(frozen=True)
class SpillEvidence:
    """Why the spill-pressure signal fired."""

    #: Messages parked in credit-starved spill queues, summed over slices.
    spill_depth: int
    #: Credit-starved outbound channels, summed over slices.
    starved_channels: int
    #: Slice with the deepest spill queue.
    worst_slice: str
    #: Consecutive probe rounds the pressure held.
    sustained_rounds: int

    @property
    def headline(self) -> float:
        return float(self.spill_depth)

    def attrs(self) -> Mapping[str, object]:
        return {
            "spill_depth": self.spill_depth,
            "spill_starved_channels": self.starved_channels,
            "spill_worst_slice": self.worst_slice,
            "spill_sustained_rounds": self.sustained_rounds,
        }


class CpuBandSignal:
    """The paper's §V global/local CPU band rules (``cpu``).

    Stateless; returns at most one violation per round, preserving the
    pre-signal priority order verbatim: global overload > global
    underload > local overload.
    """

    name = "cpu"

    def __init__(self, policy):
        self.policy = policy

    def evaluate(self, probes: ProbeSet) -> List[Violation]:
        policy = self.policy
        if not probes.hosts:
            return []
        average = probes.average_utilization()
        if average > policy.scale_out_threshold:
            return [
                Violation(
                    ViolationKind.GLOBAL_OVERLOAD,
                    CpuBandEvidence(
                        average, policy.scale_out_threshold, len(probes.hosts)
                    ),
                    self.name,
                )
            ]
        if average < policy.scale_in_threshold and len(probes.hosts) > MIN_HOSTS:
            return [
                Violation(
                    ViolationKind.GLOBAL_UNDERLOAD,
                    CpuBandEvidence(
                        average, policy.scale_in_threshold, len(probes.hosts)
                    ),
                    self.name,
                )
            ]
        # Local rules only when no global rule is violated.
        worst_host = max(probes.hosts.values(), key=lambda h: h.cpu_utilization)
        if worst_host.cpu_utilization > policy.local_overload_threshold:
            return [
                Violation(
                    ViolationKind.LOCAL_OVERLOAD,
                    CpuBandEvidence(
                        worst_host.cpu_utilization,
                        policy.local_overload_threshold,
                        len(probes.hosts),
                    ),
                    self.name,
                    worst_host.host_id,
                )
            ]
        return []

    def vetoes_scale_in(self, probes: ProbeSet) -> Optional[str]:
        return None


class DelaySloSignal:
    """Windowed p99 notification delay vs. a target SLO (``slo``).

    Stateful: :attr:`ViolationKind.SLO_BREACH` fires on every probe round
    whose windowed p99 exceeds ``slo_p99_s`` with at least
    :data:`SLO_MIN_SAMPLES` samples in the window.  While the p99 sits
    above ``SLO_RELEASE_FRACTION * slo_p99_s`` the signal vetoes
    scale-in — capacity is released only once the tail has genuinely
    recovered.  Releasing itself is the ``cpu`` signal's job.
    """

    name = "slo"

    def __init__(self, policy):
        self.policy = policy
        self._breach_rounds = 0
        self._veto_rounds = 0
        self._last_p99: Optional[float] = None

    def evaluate(self, probes: ProbeSet) -> List[Violation]:
        policy = self.policy
        window = probes.delay
        if window is None or window.count < SLO_MIN_SAMPLES:
            # Not enough evidence either way: streak resets, no veto.
            self._breach_rounds = 0
            self._veto_rounds = 0
            self._last_p99 = None
            return []
        self._last_p99 = window.p99_s
        if window.p99_s <= policy.slo_p99_s:
            self._breach_rounds = 0
            return []
        self._breach_rounds += 1
        self._veto_rounds = 0  # fresh breach re-arms the veto budget
        return [
            Violation(
                ViolationKind.SLO_BREACH,
                DelaySloEvidence(
                    p99_s=window.p99_s,
                    slo_s=policy.slo_p99_s,
                    samples=window.count,
                    window_s=window.window_s,
                    sustained_rounds=self._breach_rounds,
                ),
                self.name,
            )
        ]

    def vetoes_scale_in(self, probes: ProbeSet) -> Optional[str]:
        policy = self.policy
        floor = SLO_RELEASE_FRACTION * policy.slo_p99_s
        if self._last_p99 is None or self._last_p99 <= floor:
            self._veto_rounds = 0
            return None
        if (
            policy.slo_veto_max_rounds
            and self._veto_rounds >= policy.slo_veto_max_rounds
        ):
            # The floor has been unreachable for a whole veto budget with
            # no new breach: treat it as unachievable at this fleet size
            # (each extra hop adds a flush epoch to the baseline delay)
            # and let the release proceed rather than deadlock at max.
            return None
        self._veto_rounds += 1
        return (
            f"windowed p99 {self._last_p99:.3f}s above release floor "
            f"{floor:.3f}s"
        )


class SpillPressureSignal:
    """Sustained transport spill/starvation pressure (``spill``).

    Stateful: :attr:`ViolationKind.SPILL_PRESSURE` fires once the summed
    spill depth reaches ``spill_depth_limit`` *or* the summed starved
    channel count reaches :data:`SPILL_STARVED_LIMIT` for
    ``spill_sustain_rounds`` consecutive probe rounds.  Spill pressure is
    bursty — queues drain to zero between flush epochs, so adjacent probe
    rounds can read 70k and then 0 during one sustained overload — so up
    to :data:`SPILL_HOLD_ROUNDS` calm rounds neither reset the sustain streak
    nor lift the scale-in veto.  While pressure is present (or within the
    hold) the signal vetoes scale-in.  Spill signals are only nonzero
    with credit backpressure enabled (DESIGN.md §9); without it this
    signal never speaks.
    """

    name = "spill"

    def __init__(self, policy):
        self.policy = policy
        self._pressure_rounds = 0
        self._calm_rounds = 0

    def evaluate(self, probes: ProbeSet) -> List[Violation]:
        policy = self.policy
        depth = sum(s.spill_depth for s in probes.slices.values())
        starved = sum(s.starved_channels for s in probes.slices.values())
        pressured = (
            depth >= policy.spill_depth_limit
            or starved >= SPILL_STARVED_LIMIT
        )
        if not pressured:
            self._calm_rounds += 1
            if self._calm_rounds > SPILL_HOLD_ROUNDS:
                self._pressure_rounds = 0
            return []
        self._calm_rounds = 0
        self._pressure_rounds += 1
        if self._pressure_rounds < policy.spill_sustain_rounds:
            return []
        worst = max(
            probes.slices.values(),
            key=lambda s: (s.spill_depth, s.starved_channels),
        )
        return [
            Violation(
                ViolationKind.SPILL_PRESSURE,
                SpillEvidence(
                    spill_depth=depth,
                    starved_channels=starved,
                    worst_slice=worst.slice_id,
                    sustained_rounds=self._pressure_rounds,
                ),
                self.name,
            )
        ]

    def vetoes_scale_in(self, probes: ProbeSet) -> Optional[str]:
        if self._pressure_rounds > 0:
            if self._calm_rounds:
                return (
                    f"spill pressure seen {self._calm_rounds} round(s) ago "
                    f"(hold {SPILL_HOLD_ROUNDS})"
                )
            return (
                f"spill pressure present for {self._pressure_rounds} "
                "consecutive rounds"
            )
        return None


@dataclass(frozen=True)
class SignalVerdict:
    """Outcome of one arbitration round across the signal stack."""

    #: Every violation any signal raised this round, in stack order.
    violations: Tuple[Violation, ...]
    #: The violation the enforcer should act on (``None``: all clear, or
    #: every request was vetoed).
    winner: Optional[Violation]
    #: Scale-in requests dropped by a veto: (violation, vetoing signal,
    #: reason).
    suppressed: Tuple[Tuple[Violation, str, str], ...] = ()

    @property
    def contending(self) -> List[Tuple[str, str]]:
        """(signal, kind) of every raised-but-not-winning violation."""
        return [
            (v.signal, v.kind.value)
            for v in self.violations
            if v is not self.winner
        ]


class SignalStack:
    """The enabled signals of one control loop, in arbitration order.

    Sustained-trigger signals carry round counters, so one stack instance
    must observe *every* probe round of one manager (build it once, via
    :meth:`ElasticityPolicy.signal_stack`).  Evaluation is a pure
    observer of the probe round — it never touches the engine — so
    running it during grace periods keeps sustain streaks honest without
    perturbing the simulation.
    """

    def __init__(self, policy, telemetry=None):
        self.policy = policy
        self.telemetry = telemetry
        signals = []
        for name in policy.signals:
            if name == "cpu":
                signals.append(CpuBandSignal(policy))
            elif name == "slo":
                signals.append(DelaySloSignal(policy))
            elif name == "spill":
                signals.append(SpillPressureSignal(policy))
            else:  # pragma: no cover - rejected by policy validation
                raise ValueError(f"unknown policy signal {name!r}")
        self.signals: Tuple[object, ...] = tuple(signals)

    @property
    def wants_delay_window(self) -> bool:
        """Whether probe sets must carry a :class:`DelayWindow`."""
        return self.policy.wants_delay_window

    def evaluate(self, probes: ProbeSet) -> SignalVerdict:
        """Arbitrate one probe round (see the module docstring)."""
        found: List[Tuple[int, int, Violation]] = []
        for stack_index, signal in enumerate(self.signals):
            for intra_index, violation in enumerate(signal.evaluate(probes)):
                found.append((stack_index, intra_index, violation))
        self._observe(probes, found)

        kept: List[Tuple[int, int, Violation]] = []
        suppressed: List[Tuple[Violation, str, str]] = []
        for stack_index, intra_index, violation in found:
            veto = None
            if violation.kind.action is ScalingAction.SCALE_IN:
                veto = self._find_veto(probes, violation)
            if veto is not None:
                suppressed.append((violation, veto[0], veto[1]))
                telemetry = self.telemetry
                if telemetry is not None:
                    telemetry.scale_in_vetoes.labels(signal=veto[0]).inc()
            else:
                kept.append((stack_index, intra_index, violation))

        winner = None
        if kept:
            winner = min(
                kept,
                key=lambda entry: (
                    _ACTION_RANK[entry[2].kind.action],
                    entry[0],
                    entry[1],
                ),
            )[2]
        return SignalVerdict(
            violations=tuple(violation for _, _, violation in found),
            winner=winner,
            suppressed=tuple(suppressed),
        )

    def _find_veto(
        self, probes: ProbeSet, violation: Violation
    ) -> Optional[Tuple[str, str]]:
        """(signal name, reason) of the first veto against a scale-in."""
        for signal in self.signals:
            if signal.name == violation.signal:
                continue  # a signal cannot veto its own request
            reason = signal.vetoes_scale_in(probes)
            if reason is not None:
                return (signal.name, reason)
        return None

    def _observe(self, probes: ProbeSet, found) -> None:
        """Mirror the round into the metric registry (no-op when off)."""
        telemetry = self.telemetry
        if telemetry is None:
            return
        for _, _, violation in found:
            telemetry.signal_violations.labels(
                signal=violation.signal, kind=violation.kind.value
            ).inc()
        if self.wants_delay_window and probes.delay is not None:
            telemetry.slo_margin.set(
                self.policy.slo_p99_s - probes.delay.p99_s
            )
