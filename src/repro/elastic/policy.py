"""Elasticity policy: pluggable signals around the paper's §V rules.

The paper scales purely on CPU bands; this module keeps those rules
verbatim (as :class:`~repro.elastic.signals.CpuBandSignal`) and opens the
control loop to other overload evidence the system already measures:

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

Beyond the paper, :attr:`ElasticityPolicy.signals` selects a stack of
:class:`~repro.elastic.signals.PolicySignal` evaluators — ``cpu`` (the
rules above), ``slo`` (p99 ``notification_delay_seconds`` over a sliding
probe window vs. a target SLO) and ``spill`` (sustained transport
spill/starvation pressure from the flow-controlled channels).  Symptom
signals fire *before* CPU saturates — queues spill and tail delay climbs
while the average utilization still sits inside the band — so SLO/spill
stacks provision earlier and (via scale-in vetoes) release later than the
CPU-only rules.  Arbitration across signals is deterministic; see
:class:`~repro.elastic.signals.SignalStack` and DESIGN.md §10.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Tuple

from ..config import from_env, knob, parse_csv

__all__ = [
    "SIGNAL_NAMES",
    "ElasticityPolicy",
    "ScalingAction",
    "Violation",
    "ViolationKind",
]


class ScalingAction(enum.Enum):
    """What a violation asks the enforcer to do (arbitration classes)."""

    SCALE_OUT = "scale_out"
    SCALE_IN = "scale_in"
    REBALANCE = "rebalance"


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
    #: Windowed p99 notification delay above the configured SLO.
    SLO_BREACH = "slo_breach"
    #: Sustained transport spill/starvation pressure (DESIGN.md §9).
    SPILL_PRESSURE = "spill_pressure"

    @property
    def action(self) -> ScalingAction:
        """The enforcer action class this kind maps to."""
        return _KIND_ACTIONS[self]


_KIND_ACTIONS = {
    ViolationKind.GLOBAL_OVERLOAD: ScalingAction.SCALE_OUT,
    ViolationKind.GLOBAL_UNDERLOAD: ScalingAction.SCALE_IN,
    ViolationKind.LOCAL_OVERLOAD: ScalingAction.REBALANCE,
    ViolationKind.SLO_BREACH: ScalingAction.SCALE_OUT,
    ViolationKind.SPILL_PRESSURE: ScalingAction.SCALE_OUT,
}

#: Kinds whose scale-out is symptom-triggered (queues/delay, not CPU
#: bands): the enforcer packs toward a reduced utilization target so the
#: decision provisions headroom before CPU evidence exists.
SYMPTOM_KINDS = frozenset(
    {ViolationKind.SLO_BREACH, ViolationKind.SPILL_PRESSURE}
)

#: Symptom-triggered scale-outs pack toward
#: ``target_utilization * SYMPTOM_TARGET_FRACTION`` — a reduced target
#: that lets the two-step algorithm select and place slices before any
#: host crosses the CPU band (provisioning headroom early).
SYMPTOM_TARGET_FRACTION = 0.75

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

    ``evidence`` is the producing signal's typed record (see
    :mod:`repro.elastic.signals`); :attr:`measured` is its headline
    scalar (average or single-host CPU for the band rules, windowed p99
    seconds for the SLO, spill depth for spill pressure).
    """

    #: Which rule fired.
    kind: ViolationKind
    #: Typed evidence record of the producing signal.
    evidence: object
    #: Name of the policy signal that produced the violation.
    signal: str
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


#: The registered signal names, in documentation order (the classes are
#: in :mod:`repro.elastic.signals`).
SIGNAL_NAMES = ("cpu", "slo", "spill")


@dataclass(frozen=True)
class ElasticityPolicy:
    """Thresholds of the policy signals (paper §V plus SLO/spill).

    The policy *is* the knob group: each field below is declared once,
    and its ``--flag``, its row in ``repro policy`` and (for
    ``signals``, the one knob CI sets) its environment variable derive
    from it through :mod:`repro.config`.  ``ElasticityPolicy()`` is the
    paper's policy; :meth:`from_env` layers CLI flag > environment >
    default on top.
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
    #: Enabled policy signals, in stack (arbitration) order.  ``cpu`` is
    #: the paper's global/local band rules and every stack contains it
    #: (it is the only release trigger); ``slo`` triggers on windowed
    #: p99 notification delay; ``spill`` on sustained transport
    #: spill/starvation pressure.  The default reproduces the paper.
    signals: Tuple[str, ...] = knob(
        ("cpu",),
        "comma-separated policy signal stack, e.g. cpu,slo,spill",
        env="REPRO_POLICY_SIGNALS",
    )
    #: Target p99 notification delay (seconds) of the ``slo`` signal.
    slo_p99_s: float = knob(1.0, "target p99 notification delay for the slo signal")
    #: A veto can suppress at most this many *consecutive* scale-in
    #: requests before it expires (0 = never expires).  A larger fleet
    #: pays more per-hop flush epochs, so its quiescent p99 can sit above
    #: the release floor forever; the expiry turns an unachievable floor
    #: into a bounded release delay instead of a deadlock at max fleet.
    slo_veto_max_rounds: int = knob(
        12, "consecutive vetoed scale-ins before the veto expires (0 = never)"
    )
    #: Spilled messages (summed over slices) that count as pressure.
    spill_depth_limit: int = knob(50, "summed spill depth that counts as pressure")
    #: Consecutive pressured rounds before :attr:`SPILL_PRESSURE` fires.
    spill_sustain_rounds: int = knob(
        2, "consecutive pressured rounds before spill fires"
    )

    def __post_init__(self):
        # Accept ``"cpu,slo"``, lists or tuples; always store a tuple.
        signals = self.signals
        if isinstance(signals, str):
            signals = parse_csv(signals)
        object.__setattr__(self, "signals", tuple(signals))
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
        for name in self.signals:
            if name not in SIGNAL_NAMES:
                raise ValueError(
                    f"unknown policy signal {name!r}; "
                    f"choose from {SIGNAL_NAMES}"
                )
        if len(set(self.signals)) != len(self.signals):
            raise ValueError(f"duplicate policy signal in {self.signals}")
        if "cpu" not in self.signals:
            raise ValueError(
                f"the policy signal stack must contain cpu, got {self.signals}"
            )
        if self.slo_p99_s <= 0:
            raise ValueError(f"slo_p99_s must be positive, got {self.slo_p99_s}")
        if self.slo_veto_max_rounds < 0:
            raise ValueError(
                "slo_veto_max_rounds must be >= 0 (0 disables expiry), got "
                f"{self.slo_veto_max_rounds}"
            )
        if self.spill_depth_limit < 1:
            raise ValueError(
                f"spill_depth_limit must be >= 1, got {self.spill_depth_limit}"
            )
        if self.spill_sustain_rounds < 1:
            raise ValueError(
                f"spill_sustain_rounds must be >= 1, got {self.spill_sustain_rounds}"
            )

    @classmethod
    def from_env(cls, **overrides) -> "ElasticityPolicy":
        """CLI flag > ``REPRO_POLICY_SIGNALS`` > paper default, validated
        once (see :func:`repro.config.from_env`)."""
        return from_env(cls, **overrides)

    @property
    def wants_delay_window(self) -> bool:
        """Whether the probe collector must aggregate a delay window."""
        return "slo" in self.signals

    def signal_stack(self, telemetry=None):
        """A fresh (stateful) :class:`~repro.elastic.signals.SignalStack`.

        Sustained-trigger signals count consecutive probe rounds, so one
        stack instance must observe every round of one control loop — the
        manager builds exactly one at construction.
        """
        from .signals import SignalStack

        return SignalStack(self, telemetry=telemetry)
