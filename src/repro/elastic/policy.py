"""Elasticity policy: the paper's §V CPU rules plus one optional p99 veto.

The paper scales purely on CPU bands; this module keeps those rules
verbatim (as :class:`~repro.elastic.signals.CpuBandSignal`):

* **Global rule** — the *average* CPU load across running hosts must stay
  inside ``[scale_in_threshold, scale_out_threshold]`` (the paper
  evaluates with a 70% upper bound and a 50% ideal target).  Violations
  scale the system out (add hosts) or in (release hosts).
* **Local rule** — a *single* host exceeding ``local_overload`` triggers a
  re-allocation of its slices among the existing hosts (new hosts only as
  a last resort).  Local rules are evaluated only when no global rule is
  violated; global rules have the highest priority.
* A **grace period** (at least 30 s in the paper) separates consecutive
  enforcement actions, letting the system settle after migrations.

Beyond the paper, :attr:`ElasticityPolicy.slo_veto` holds a scale-in
back while the windowed p99 ``notification_delay_seconds`` has not yet
recovered (:class:`~repro.elastic.signals.DelaySloSignal`, DESIGN.md
§10): the fleet is released later, never grown earlier.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

from ..config import knob

__all__ = [
    "ElasticityPolicy",
    "Violation",
    "ViolationKind",
]


class ViolationKind(enum.Enum):
    """Which rule a probe round violated.

    The enum values double as the ``rule`` label on the telemetry
    counters and the ``enforcer.decision`` trace records.
    """

    #: Average CPU across hosts above ``scale_out_threshold``.
    GLOBAL_OVERLOAD = "global_overload"
    #: Average CPU across hosts below ``scale_in_threshold``.
    GLOBAL_UNDERLOAD = "global_underload"
    #: One host above ``local_overload_threshold`` (globals all hold).
    LOCAL_OVERLOAD = "local_overload"


#: Never release below this many engine hosts.
MIN_HOSTS = 1

#: Upper bound on one scale-out step: the fleet may at most grow by this
#: factor per decision (backlog-driven demand estimates can be
#: arbitrarily large while a backlog is draining; unbounded steps would
#: exhaust the provider).
MAX_SCALE_OUT_FACTOR = 4.0


@dataclass(frozen=True)
class Violation:
    """A detected policy violation, with the evidence that triggered it.

    ``evidence`` is the CPU rule's typed record (see
    :class:`~repro.elastic.signals.CpuBandEvidence`); :attr:`measured` is
    its headline scalar (average or single-host CPU).
    """

    #: Which rule fired.
    kind: ViolationKind
    #: Typed evidence record of the rule.
    evidence: object
    #: The violating host for :attr:`ViolationKind.LOCAL_OVERLOAD`;
    #: empty for global rules.
    host_id: str = ""

    @property
    def measured(self) -> float:
        """The violating headline measurement (see class docstring)."""
        return self.evidence.headline

    def evidence_attrs(self) -> Mapping[str, object]:
        """The evidence as flat trace attributes."""
        return self.evidence.attrs()


@dataclass(frozen=True)
class ElasticityPolicy:
    """Thresholds of the paper's §V rules plus the optional p99 veto.

    The policy *is* the knob group: each field below is declared once,
    and its ``--flag`` and its row in ``repro policy`` derive from it
    through :mod:`repro.config`.  ``ElasticityPolicy()`` is the paper's
    policy.
    """

    #: Utilization the enforcer packs hosts toward (the paper's 50%).
    target_utilization: float = knob(
        0.50, "utilization the enforcer packs hosts toward"
    )
    #: Global rule: scale out when the average utilization exceeds this.
    scale_out_threshold: float = knob(
        0.70, "global rule: scale out above this average CPU"
    )
    #: Global rule: scale in when the average utilization drops below
    #: this (and more than :data:`MIN_HOSTS` hosts are running).
    scale_in_threshold: float = knob(
        0.30, "global rule: scale in below this average CPU"
    )
    #: Local rule: re-balance a single host above this utilization.
    local_overload_threshold: float = knob(
        0.85, "local rule: rebalance a host above this CPU"
    )
    #: Minimum simulated seconds between consecutive enforcement actions.
    grace_period_s: float = knob(30.0, "settle window between enforcement actions")
    #: Estimate offered load from CPU *and* queue backlog when sizing a
    #: scale-out (see :meth:`SliceProbe.demand_cores`).  Plain measured CPU
    #: saturates at host capacity, which makes the enforcer climb one small
    #: step per grace period during steep load ramps while queues explode.
    #: Extension over the paper's CPU-only metric; set False for the
    #: paper's literal behavior (ablated in benchmarks).
    backlog_aware_scaling: bool = knob(True, "size scale-outs from CPU + queue backlog")
    #: Hold a CPU scale-in back while the windowed p99 notification delay
    #: sits above half of ``slo_p99_s`` (DESIGN.md §10).  Off reproduces
    #: the paper.
    slo_veto: bool = knob(
        False, "veto scale-in while the windowed p99 delay has not recovered"
    )
    #: Target p99 notification delay (seconds): the veto holds while the
    #: p99 exceeds half of it and re-arms whenever the p99 exceeds it.
    slo_p99_s: float = knob(1.0, "target p99 notification delay of the slo veto")
    #: The veto can suppress at most this many *consecutive* scale-in
    #: requests before it expires (0 = never expires).  A larger fleet
    #: pays more per-hop flush epochs, so its quiescent p99 can sit above
    #: the release floor forever; the expiry turns an unachievable floor
    #: into a bounded release delay instead of a deadlock at max fleet.
    slo_veto_max_rounds: int = knob(
        12, "consecutive vetoed scale-ins before the veto expires (0 = never)"
    )

    def __post_init__(self):
        if not (
            0.0
            < self.scale_in_threshold
            < self.target_utilization
            < self.scale_out_threshold
            <= 1.0
        ):
            raise ValueError(
                "thresholds must satisfy 0 < in < target < out <= 1, got "
                f"in={self.scale_in_threshold}, target={self.target_utilization}, "
                f"out={self.scale_out_threshold}"
            )
        if self.local_overload_threshold < self.scale_out_threshold:
            raise ValueError("local overload threshold below the global one is unstable")
        if self.grace_period_s < 0:
            raise ValueError("grace period must be non-negative")
        if self.slo_p99_s <= 0:
            raise ValueError(f"slo_p99_s must be positive, got {self.slo_p99_s}")
        if self.slo_veto_max_rounds < 0:
            raise ValueError(
                "slo_veto_max_rounds must be >= 0 (0 disables expiry), got "
                f"{self.slo_veto_max_rounds}"
            )
