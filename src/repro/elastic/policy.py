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
from typing import Mapping, Optional, Tuple

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
    #: Windowed p99 well below the SLO for several rounds (release
    #: trigger of SLO-only stacks; see :class:`DelaySloSignal`).
    SLO_CLEAR = "slo_clear"
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
    ViolationKind.SLO_CLEAR: ScalingAction.SCALE_IN,
    ViolationKind.SPILL_PRESSURE: ScalingAction.SCALE_OUT,
}

#: Kinds whose scale-out is symptom-triggered (queues/delay, not CPU
#: bands): the enforcer packs toward a reduced utilization target so the
#: decision provisions headroom before CPU evidence exists.
SYMPTOM_KINDS = frozenset(
    {ViolationKind.SLO_BREACH, ViolationKind.SPILL_PRESSURE}
)


@dataclass(frozen=True)
class Violation:
    """A detected policy violation, with the evidence that triggered it.

    ``Violation(kind, measured, host_id)`` — the historical shape — stays
    constructible and readable: ``measured`` remains the headline scalar
    (average or single-host CPU for the band rules, windowed p99 seconds
    for the SLO, spill depth for spill pressure).  Signal-produced
    violations additionally carry the producing signal's name and a typed
    evidence record (see :mod:`repro.elastic.signals`); both default to
    the CPU band signal so pre-signal call sites and trace records are
    unchanged.
    """

    #: Which rule fired.
    kind: ViolationKind
    #: The violating headline measurement (see class docstring).
    measured: float
    #: The violating host for :attr:`ViolationKind.LOCAL_OVERLOAD`;
    #: empty for global rules.
    host_id: str = ""
    #: Name of the policy signal that produced the violation.
    signal: str = "cpu"
    #: Typed evidence record (``None`` for shim-constructed violations).
    evidence: Optional[object] = None

    @classmethod
    def from_evidence(
        cls, kind: ViolationKind, evidence, signal: str, host_id: str = ""
    ) -> "Violation":
        """Build the evidence-carrying form; ``measured`` is derived."""
        return cls(
            kind,
            evidence.headline,
            host_id=host_id,
            signal=signal,
            evidence=evidence,
        )

    def evidence_attrs(self) -> Mapping[str, object]:
        """The evidence as flat trace attributes (empty for the shim)."""
        if self.evidence is None:
            return {}
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
    #: this (and more than ``min_hosts`` hosts are running).
    scale_in_threshold: float = knob(
        0.30, "global rule: scale in below this average CPU"
    )
    #: Local rule: re-balance a single host above this utilization.
    local_overload_threshold: float = knob(
        0.85, "local rule: rebalance a host above this CPU"
    )
    #: Minimum simulated seconds between consecutive enforcement actions.
    grace_period_s: float = knob(30.0, "settle window between enforcement actions")
    #: Never release below this many engine hosts.
    min_hosts: int = knob(1, "never release below this many hosts")
    #: Estimate offered load from CPU *and* queue backlog when sizing a
    #: scale-out (see :meth:`SliceProbe.demand_cores`).  Plain measured CPU
    #: saturates at host capacity, which makes the enforcer climb one small
    #: step per grace period during steep load ramps while queues explode.
    #: Extension over the paper's CPU-only metric; set False for the
    #: paper's literal behavior (ablated in benchmarks).
    backlog_aware_scaling: bool = knob(True, "size scale-outs from CPU + queue backlog")
    #: Upper bound on one scale-out step: the fleet may at most grow by
    #: this factor per decision (backlog-driven demand estimates can be
    #: arbitrarily large while a backlog is draining; unbounded steps
    #: would exhaust the provider).
    max_scale_out_factor: float = knob(4.0, "max fleet growth factor per decision")
    #: Enabled policy signals, in stack (arbitration) order.  ``cpu`` is
    #: the paper's global/local band rules; ``slo`` triggers on windowed
    #: p99 notification delay; ``spill`` on sustained transport
    #: spill/starvation pressure.  The default reproduces the paper.
    signals: Tuple[str, ...] = knob(
        ("cpu",),
        "comma-separated policy signal stack, e.g. cpu,slo,spill",
        env="REPRO_POLICY_SIGNALS",
    )
    #: Target p99 notification delay (seconds) of the ``slo`` signal.
    slo_p99_s: float = knob(1.0, "target p99 notification delay for the slo signal")
    #: Sliding window (seconds) the p99 is computed over.
    slo_window_s: float = knob(30.0, "sliding window the p99 is computed over")
    #: Minimum delay samples in the window before the SLO signal speaks.
    slo_min_samples: int = knob(20, "min delay samples before the slo signal speaks")
    #: Consecutive breached probe rounds before :attr:`SLO_BREACH` fires.
    slo_sustain_rounds: int = knob(1, "consecutive breached rounds before slo fires")
    #: Scale-in is vetoed while the windowed p99 exceeds this fraction of
    #: the SLO — the "release later" half of SLO-driven elasticity.
    slo_release_fraction: float = knob(
        0.5, "scale-in vetoed while p99 > fraction * SLO"
    )
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
    #: Credit-starved channels (summed over slices) that count as pressure.
    spill_starved_limit: int = knob(1, "summed starved channels that count as pressure")
    #: Consecutive pressured rounds before :attr:`SPILL_PRESSURE` fires.
    spill_sustain_rounds: int = knob(
        2, "consecutive pressured rounds before spill fires"
    )
    #: Calm probe rounds the spill signal tolerates before its sustain
    #: streak resets and its scale-in veto lifts.  Spill pressure is
    #: bursty round-to-round (queues drain between flush epochs); the
    #: hold keeps one quiet heartbeat from hiding sustained pressure.
    spill_hold_rounds: int = knob(
        3, "calm rounds tolerated before the spill streak and veto reset"
    )
    #: Symptom-triggered scale-outs pack toward
    #: ``target_utilization * symptom_target_fraction`` — a reduced target
    #: that lets the two-step algorithm select and place slices before any
    #: host crosses the CPU band (provisioning headroom early).
    symptom_target_fraction: float = knob(
        0.75, "symptom scale-outs pack toward target * fraction"
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
        if self.min_hosts < 1:
            raise ValueError("min_hosts must be at least 1")
        if self.max_scale_out_factor <= 1.0:
            raise ValueError("max_scale_out_factor must exceed 1")
        if not self.signals:
            raise ValueError("at least one policy signal must be enabled")
        for name in self.signals:
            if name not in SIGNAL_NAMES:
                raise ValueError(
                    f"unknown policy signal {name!r}; "
                    f"choose from {SIGNAL_NAMES}"
                )
        if len(set(self.signals)) != len(self.signals):
            raise ValueError(f"duplicate policy signal in {self.signals}")
        if self.slo_p99_s <= 0:
            raise ValueError(f"slo_p99_s must be positive, got {self.slo_p99_s}")
        if self.slo_window_s <= 0:
            raise ValueError(f"slo_window_s must be positive, got {self.slo_window_s}")
        if self.slo_min_samples < 1:
            raise ValueError(
                f"slo_min_samples must be >= 1, got {self.slo_min_samples}"
            )
        if self.slo_sustain_rounds < 1:
            raise ValueError(
                f"slo_sustain_rounds must be >= 1, got {self.slo_sustain_rounds}"
            )
        if not 0.0 <= self.slo_release_fraction <= 1.0:
            raise ValueError(
                "slo_release_fraction must be in [0, 1], got "
                f"{self.slo_release_fraction}"
            )
        if self.slo_veto_max_rounds < 0:
            raise ValueError(
                "slo_veto_max_rounds must be >= 0 (0 disables expiry), got "
                f"{self.slo_veto_max_rounds}"
            )
        if self.spill_depth_limit < 1:
            raise ValueError(
                f"spill_depth_limit must be >= 1, got {self.spill_depth_limit}"
            )
        if self.spill_starved_limit < 1:
            raise ValueError(
                f"spill_starved_limit must be >= 1, got {self.spill_starved_limit}"
            )
        if self.spill_sustain_rounds < 1:
            raise ValueError(
                f"spill_sustain_rounds must be >= 1, got {self.spill_sustain_rounds}"
            )
        if self.spill_hold_rounds < 0:
            raise ValueError(
                f"spill_hold_rounds must be >= 0, got {self.spill_hold_rounds}"
            )
        if not 0.0 < self.symptom_target_fraction <= 1.0:
            raise ValueError(
                "symptom_target_fraction must be in (0, 1], got "
                f"{self.symptom_target_fraction}"
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
