"""The elasticity enforcer: two-step resolution of policy violations.

Given a probe round and a violation, the enforcer produces a
:class:`ScalingDecision` — the set of slice migrations, the number of
hosts to provision and the hosts to release — using the paper's two-step
algorithm (§V):

1. *Slice selection*: subset-sum dynamic programming picks, from each
   overloaded host, a minimal-state set of slices whose combined CPU
   utilization is at least the difference between the host's utilization
   and the target (50%).
2. *Placement*: First Fit bin packing in decreasing order of slice CPU
   usage, over bins whose capacity is the CPU headroom below the target
   utilization, with memory as a constraint; new hosts are allocated when
   the spare capacity does not suffice.

Scale-in marks the least-loaded host for release, re-dispatches its slices
onto the remaining hosts and repeats until the computed number of hosts has
been released (aborting if a re-dispatch does not fit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .binpack import HostBin, first_fit_decreasing
from .policy import (
    MAX_SCALE_OUT_FACTOR,
    MIN_HOSTS,
    ElasticityPolicy,
    Violation,
    ViolationKind,
)
from .probes import ProbeSet
from .selection import SliceLoad, select_slices

__all__ = [
    "PlannedMigration",
    "ScalingDecision",
    "ElasticityEnforcer",
]


@dataclass(frozen=True)
class PlannedMigration:
    """One slice movement of a scaling decision."""

    slice_id: str
    from_host: str
    #: Existing host id, or a ``new-<i>`` placeholder resolved by the manager.
    to_host: str


@dataclass
class ScalingDecision:
    """Everything the manager must execute for one violation."""

    kind: ViolationKind
    migrations: List[PlannedMigration] = field(default_factory=list)
    new_hosts: int = 0
    release_hosts: List[str] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not self.migrations and not self.new_hosts and not self.release_hosts


class ElasticityEnforcer:
    """Stateless resolver from probe rounds to scaling decisions."""

    def __init__(
        self,
        policy: ElasticityPolicy,
        host_cores: int = 8,
        host_memory_bytes: int = 8 * 1024 ** 3,
        selector=select_slices,
        telemetry=None,
    ):
        """``selector(candidates, required_cores) -> chosen`` picks the
        slices to offload; the default is the paper's min-state-transfer
        subset sum.  Alternative strategies are used by the ablation
        benchmarks.

        ``telemetry`` is an optional :class:`repro.telemetry.Telemetry`
        bundle; every resolution then bumps the ``rule`` -labelled firing
        counter and records an ``enforcer.decision`` trace event carrying
        the decision's inputs and outputs (see :meth:`resolve`).
        """
        if host_cores <= 0 or host_memory_bytes <= 0:
            raise ValueError("host resources must be positive")
        self.policy = policy
        self.host_cores = host_cores
        self.host_memory_bytes = host_memory_bytes
        self.selector = selector
        self.telemetry = telemetry

    # -- public API -----------------------------------------------------------

    def resolve(
        self, probes: ProbeSet, violation: Violation
    ) -> Optional[ScalingDecision]:
        """Turn one policy violation into a :class:`ScalingDecision`.

        Returns ``None`` when the two-step algorithm finds no useful move
        (nothing to select, or no feasible placement).  The violation's
        kind picks the algorithm: scale out, scale in, or rebalance.

        With telemetry bound, each call records an ``enforcer.decision``
        event whose attributes capture the full decision context: the
        probe window (timestamp, width, average utilization, host count),
        the fired rule and its measured value, the selected slices and
        their placement, plus hosts provisioned/released — the record the
        OBSERVABILITY.md worked example walks through, with the CPU
        rule's typed evidence.
        """
        kind = violation.kind
        if kind is ViolationKind.GLOBAL_OVERLOAD:
            decision = self._scale_out(probes, kind=kind)
        elif kind is ViolationKind.GLOBAL_UNDERLOAD:
            decision = self._scale_in(probes, kind=kind)
        else:
            decision = self._local_rebalance(probes, violation.host_id)
        telemetry = self.telemetry
        if telemetry is not None:
            self._record_decision(telemetry, probes, violation, decision)
        return decision

    def _record_decision(
        self,
        telemetry,
        probes: ProbeSet,
        violation: Violation,
        decision: Optional[ScalingDecision],
    ) -> None:
        rule = violation.kind.value
        telemetry.rule_firings.labels(rule=rule).inc()
        if decision is not None and not decision.is_empty:
            telemetry.scaling_decisions.labels(kind=rule).inc()
        attrs = {
            "rule": rule,
            "measured": violation.measured,
            "window_time": probes.time,
            "window_s": probes.window_s,
            "avg_utilization": probes.average_utilization(),
            "hosts": len(probes.hosts),
            "actionable": decision is not None and not decision.is_empty,
        }
        if violation.host_id:
            attrs["host_id"] = violation.host_id
        if decision is not None:
            attrs["selected_slices"] = [
                m.slice_id for m in decision.migrations
            ]
            attrs["placement"] = {
                m.slice_id: m.to_host for m in decision.migrations
            }
            attrs["new_hosts"] = decision.new_hosts
            attrs["release_hosts"] = list(decision.release_hosts)
        attrs.update(violation.evidence_attrs())
        telemetry.tracer.event("enforcer.decision", **attrs)

    # -- helpers ------------------------------------------------------------------

    def _target_capacity(self) -> float:
        return self.policy.target_utilization * self.host_cores

    def _slice_cores(self, probes: ProbeSet, slice_probe) -> float:
        """A slice's load for selection/packing purposes.

        With backlog-aware scaling, a backlogged slice weighs its estimated
        demand (capped at the per-host target capacity so it stays
        placeable on a fresh host).
        """
        if not self.policy.backlog_aware_scaling:
            return slice_probe.cpu_cores
        return min(
            slice_probe.demand_cores(probes.window_s), self._target_capacity()
        )

    def _host_load_cores(self, probes: ProbeSet, host) -> float:
        """A host's load: measured busy cores, or estimated demand.

        Uses the same per-slice cap as :meth:`_slice_cores` so host-level
        sizing and slice-level selection stay consistent.
        """
        measured = host.cpu_utilization * host.cores
        if not self.policy.backlog_aware_scaling:
            return measured
        demand = sum(
            self._slice_cores(probes, s) for s in probes.slices_on(host.host_id)
        )
        return max(measured, demand)

    def _slice_loads(
        self, probes: ProbeSet, host_id: str, scale: float = 1.0
    ) -> List[SliceLoad]:
        return [
            SliceLoad(s.slice_id, self._slice_cores(probes, s) * scale, s.memory_bytes)
            for s in probes.slices_on(host_id)
        ]

    def _bins(
        self,
        probes: ProbeSet,
        exclude_hosts: Optional[set] = None,
        removed_load: Optional[Dict[str, float]] = None,
        removed_memory: Optional[Dict[str, int]] = None,
        load_scale: float = 1.0,
    ) -> List[HostBin]:
        """Bins for the running hosts at target capacity."""
        exclude_hosts = exclude_hosts or set()
        removed_load = removed_load or {}
        removed_memory = removed_memory or {}
        capacity = self._target_capacity()
        bins = []
        for host in probes.hosts.values():
            if host.host_id in exclude_hosts:
                continue
            memory_used = sum(
                s.memory_bytes for s in probes.slices_on(host.host_id)
            ) - removed_memory.get(host.host_id, 0)
            bins.append(
                HostBin(
                    host_id=host.host_id,
                    cpu_capacity_cores=capacity,
                    memory_capacity_bytes=self.host_memory_bytes,
                    cpu_used_cores=max(
                        0.0,
                        self._host_load_cores(probes, host) * load_scale
                        - removed_load.get(host.host_id, 0.0),
                    ),
                    memory_used_bytes=max(0, memory_used),
                )
            )
        return bins

    @staticmethod
    def _to_migrations(
        assignments: Dict[str, str], origins: Dict[str, str]
    ) -> List[PlannedMigration]:
        return [
            PlannedMigration(slice_id=s, from_host=origins[s], to_host=dest)
            for s, dest in assignments.items()
            if origins[s] != dest
        ]

    # -- scale out ---------------------------------------------------------------------

    def _scale_out(
        self,
        probes: ProbeSet,
        kind: ViolationKind = ViolationKind.GLOBAL_OVERLOAD,
    ) -> Optional[ScalingDecision]:
        target = self.policy.target_utilization
        capacity = self._target_capacity()

        # Backlog-driven demand is unbounded while queues drain; bound the
        # step so the fleet grows by at most MAX_SCALE_OUT_FACTOR at once.
        current_hosts = max(1, len(probes.hosts))
        step_cap_cores = math.ceil(current_hosts * MAX_SCALE_OUT_FACTOR) * capacity
        total_demand = sum(
            self._host_load_cores(probes, h) for h in probes.hosts.values()
        )
        demand_scale = min(1.0, step_cap_cores / total_demand) if total_demand else 1.0

        # Step 1: select slices from overloaded hosts (most loaded first).
        to_move: List[SliceLoad] = []
        origins: Dict[str, str] = {}
        removed_load: Dict[str, float] = {}
        removed_memory: Dict[str, int] = {}
        hosts = sorted(
            probes.hosts.values(),
            key=lambda h: self._host_load_cores(probes, h),
            reverse=True,
        )
        for host in hosts:
            load = self._host_load_cores(probes, host) * demand_scale
            if load <= target * host.cores:
                continue
            required = load - target * host.cores
            selected = self.selector(
                self._slice_loads(probes, host.host_id, scale=demand_scale), required
            )
            for item in selected:
                to_move.append(item)
                origins[item.slice_id] = host.host_id
            removed_load[host.host_id] = sum(s.cpu_cores for s in selected)
            removed_memory[host.host_id] = sum(s.memory_bytes for s in selected)
        if not to_move:
            return None

        # Step 2: First Fit placement; new hosts as needed.
        bins = self._bins(
            probes,
            removed_load=removed_load,
            removed_memory=removed_memory,
            load_scale=demand_scale,
        )
        placement = first_fit_decreasing(
            to_move,
            bins,
            new_host_cpu_capacity=capacity,
            new_host_memory_capacity=self.host_memory_bytes,
            allow_new_hosts=True,
        )
        if placement is None:
            return None
        migrations = self._to_migrations(placement.assignments, origins)
        if not migrations:
            return None
        return ScalingDecision(
            kind=kind,
            migrations=migrations,
            new_hosts=placement.new_hosts,
        )

    # -- scale in -----------------------------------------------------------------------

    def _scale_in(
        self,
        probes: ProbeSet,
        kind: ViolationKind = ViolationKind.GLOBAL_UNDERLOAD,
    ) -> Optional[ScalingDecision]:
        current = len(probes.hosts)
        total_load = sum(
            self._host_load_cores(probes, h) for h in probes.hosts.values()
        )
        minimum_needed = max(
            MIN_HOSTS,
            int(math.ceil(total_load / self._target_capacity()))
            if total_load > 0
            else MIN_HOSTS,
        )
        excess = min(current - minimum_needed, current - MIN_HOSTS)
        if excess <= 0:
            return None

        # Mark the least-loaded hosts for release and re-dispatch all their
        # slices onto the *kept* hosts.  If the kept hosts cannot absorb
        # them within the target utilization, retry with fewer releases.
        by_load = sorted(probes.hosts.values(), key=lambda h: h.cpu_utilization)
        for release_count in range(excess, 0, -1):
            release = [h.host_id for h in by_load[:release_count]]
            released_set = set(release)
            items: List[SliceLoad] = []
            origins: Dict[str, str] = {}
            for host_id in release:
                for item in self._slice_loads(probes, host_id):
                    items.append(item)
                    origins[item.slice_id] = host_id
            bins = self._bins(probes, exclude_hosts=released_set)
            placement = first_fit_decreasing(
                items,
                bins,
                new_host_cpu_capacity=self._target_capacity(),
                new_host_memory_capacity=self.host_memory_bytes,
                allow_new_hosts=False,
            )
            if placement is None:
                continue  # kept hosts too full: release fewer
            return ScalingDecision(
                kind=kind,
                migrations=self._to_migrations(placement.assignments, origins),
                release_hosts=release,
            )
        return None

    # -- local rule ------------------------------------------------------------------------

    def _local_rebalance(
        self, probes: ProbeSet, host_id: str
    ) -> Optional[ScalingDecision]:
        host = probes.hosts.get(host_id)
        if host is None:
            return None
        required = (
            self._host_load_cores(probes, host)
            - self.policy.target_utilization * host.cores
        )
        if required <= 0:
            return None
        selected = self.selector(self._slice_loads(probes, host_id), required)
        if not selected:
            return None
        origins = {item.slice_id: host_id for item in selected}
        bins = self._bins(
            probes,
            exclude_hosts={host_id},
        )
        # Re-allocate among existing hosts; a new host only as a last resort.
        placement = first_fit_decreasing(
            selected,
            bins,
            new_host_cpu_capacity=self._target_capacity(),
            new_host_memory_capacity=self.host_memory_bytes,
            allow_new_hosts=True,
            max_new_hosts=1,
        )
        if placement is None:
            return None
        migrations = self._to_migrations(placement.assignments, origins)
        if not migrations:
            return None
        return ScalingDecision(
            kind=ViolationKind.LOCAL_OVERLOAD,
            migrations=migrations,
            new_hosts=placement.new_hosts,
        )
