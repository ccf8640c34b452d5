"""The control loop's rule: the paper's CPU bands behind an optional p99 veto.

* :class:`CpuBandSignal` — the paper's §V global/local CPU band rules,
  verbatim and stateless.
* :class:`DelaySloSignal` — the scale-in veto of
  :attr:`ElasticityPolicy.slo_veto`: a release the CPU rules ask for is
  held back while the windowed p99 of ``notification_delay_seconds`` sits
  above the release floor, so capacity stays until the tail has
  recovered.  It never asks for anything itself.
* :class:`ScalingRule` — the two composed; one per manager.

Determinism: the veto is a pure function of the probe round plus one
integer round counter, probe rounds arrive at fixed simulated times, and
no wall-clock or randomness is consulted — two runs with equal inputs
produce equal violations.  With the veto off, the rule is exactly
:class:`CpuBandSignal`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .policy import MIN_HOSTS, Violation, ViolationKind
from .probes import ProbeSet

__all__ = [
    "CpuBandEvidence",
    "CpuBandSignal",
    "DelaySloSignal",
    "ScalingRule",
]

#: Minimum delay samples in the window before the veto may hold.
SLO_MIN_SAMPLES = 20
#: Scale-in is vetoed while the windowed p99 exceeds this fraction of the
#: SLO — the "release later" half of SLO-driven elasticity.
SLO_RELEASE_FRACTION = 0.5


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


class CpuBandSignal:
    """The paper's §V global/local CPU band rules.

    Stateless; returns at most one violation per round, in the priority
    order global overload > global underload > local overload.
    """

    def __init__(self, policy):
        self.policy = policy

    def evaluate(self, probes: ProbeSet) -> Optional[Violation]:
        policy = self.policy
        if not probes.hosts:
            return None
        hosts = len(probes.hosts)
        average = probes.average_utilization()
        if average > policy.scale_out_threshold:
            return Violation(
                ViolationKind.GLOBAL_OVERLOAD,
                CpuBandEvidence(average, policy.scale_out_threshold, hosts),
            )
        if average < policy.scale_in_threshold and hosts > MIN_HOSTS:
            return Violation(
                ViolationKind.GLOBAL_UNDERLOAD,
                CpuBandEvidence(average, policy.scale_in_threshold, hosts),
            )
        # Local rules only when no global rule is violated.
        worst_host = max(probes.hosts.values(), key=lambda h: h.cpu_utilization)
        if worst_host.cpu_utilization > policy.local_overload_threshold:
            return Violation(
                ViolationKind.LOCAL_OVERLOAD,
                CpuBandEvidence(
                    worst_host.cpu_utilization,
                    policy.local_overload_threshold,
                    hosts,
                ),
                worst_host.host_id,
            )
        return None


class DelaySloSignal:
    """The p99 scale-in veto.

    Stateful: a :attr:`ViolationKind.GLOBAL_UNDERLOAD` is suppressed while
    the windowed p99 sits above ``SLO_RELEASE_FRACTION * slo_p99_s``, for
    at most ``slo_veto_max_rounds`` consecutive suppressions.  A p99 above
    ``slo_p99_s`` re-arms that budget; a window with fewer than
    :data:`SLO_MIN_SAMPLES` samples resets it and never vetoes.
    """

    def __init__(self, policy):
        self.policy = policy
        self._veto_rounds = 0

    def vetoes(self, probes: ProbeSet, violation: Optional[Violation]) -> bool:
        """Observe one probe round; whether ``violation`` is held back."""
        policy = self.policy
        window = probes.delay
        if window is None or window.count < SLO_MIN_SAMPLES:
            # Not enough evidence either way: no veto, budget resets.
            self._veto_rounds = 0
            return False
        if window.p99_s > policy.slo_p99_s:
            self._veto_rounds = 0  # a fresh breach re-arms the budget
        if violation is None or violation.kind is not ViolationKind.GLOBAL_UNDERLOAD:
            return False
        if window.p99_s <= SLO_RELEASE_FRACTION * policy.slo_p99_s:
            self._veto_rounds = 0
            return False
        if (
            policy.slo_veto_max_rounds
            and self._veto_rounds >= policy.slo_veto_max_rounds
        ):
            # The floor has been unreachable for a whole veto budget with
            # no new breach: treat it as unachievable at this fleet size
            # (each extra hop adds a flush epoch to the baseline delay)
            # and let the release proceed rather than deadlock at max.
            return False
        self._veto_rounds += 1
        return True


class ScalingRule:
    """The CPU band rules, behind the p99 veto when ``policy.slo_veto``.

    The veto counts consecutive rounds, so one instance must observe
    *every* probe round of one control loop, grace periods included (the
    manager builds exactly one).  Evaluation never touches the engine.
    """

    def __init__(self, policy, telemetry=None):
        self.policy = policy
        self.telemetry = telemetry
        self.cpu = CpuBandSignal(policy)
        self.veto = DelaySloSignal(policy) if policy.slo_veto else None

    def evaluate(self, probes: ProbeSet) -> Optional[Violation]:
        """The round's violation for the enforcer, or ``None``."""
        violation = self.cpu.evaluate(probes)
        telemetry = self.telemetry
        if telemetry is not None and violation is not None:
            telemetry.signal_violations.labels(kind=violation.kind.value).inc()
        if self.veto is None:
            return violation
        if telemetry is not None and probes.delay is not None:
            telemetry.slo_margin.set(self.policy.slo_p99_s - probes.delay.p99_s)
        if self.veto.vetoes(probes, violation):
            if telemetry is not None:
                telemetry.scale_in_vetoes.inc()
            return None
        return violation
