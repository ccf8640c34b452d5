"""Chaos scenarios: correlated loss, manager failover, partition + heal.

Three scenario families exercise the failure model written down in
RESILIENCE.md, each comparing the delivered notification multiset of a
faulted run against a fault-free baseline of the same deployment —
byte-compared via a canonical digest, so "zero loss, duplicate-free"
is checked on content, not on counters alone:

* :func:`run_rack_loss` — every host of a rack dies at once; passive
  replication (checkpoints + upstream replay) recovers all victim
  slices onto spares.
* :func:`run_manager_crash` — the elasticity manager crashes at a
  chosen phase of a migration it is executing; a standby is
  promoted via leader election and settles the interrupted decision
  (completed or rolled back — never half-applied).
* :func:`run_partition_heal` — the fabric between the matcher rack and
  the edge host is cut and later healed; the transport's circuit
  breakers hold the cut links' queues and flush them on heal, so the
  multiset stays exact with nothing dropped and nothing duplicated, even
  across a live M-slice migration started inside the partition window.

``benchmarks/bench_chaos.py`` runs all three and exports
``BENCH_chaos.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from typing import Dict, List, Optional

from ..cluster import CloudProvider, FailureDetector, FaultPlan, HostSpec
from ..elastic import (
    ManagerFailover,
    PlannedMigration,
    ScalingDecision,
    ViolationKind,
)
from ..engine import ReliabilityCoordinator
from ..filtering import (
    BruteForceLibrary,
    CostModel,
    ExactBackend,
    Op,
    Predicate,
    PredicateSet,
)
from ..pubsub import HubConfig, StreamHub, Subscription
from ..pubsub.source import SourceDriver
from ..sim import Environment
from ..telemetry import Telemetry
from ..transport import TransportConfig

__all__ = [
    "ChaosOutcome",
    "multiset_digest",
    "notification_multiset",
    "phase_spans_tile",
    "run_manager_crash",
    "run_partition_heal",
    "run_rack_loss",
]

SUBSCRIPTIONS = 600
RATE = 40.0
DURATION_S = 30.0
HORIZON_S = 60.0
#: Attribute-0 values cycle over [0, VALUE_SPACE) — see ``_payload``.
VALUE_SPACE = 1000

#: Tolerance for float comparisons when checking span tiling.
_EPS = 1e-9


@dataclasses.dataclass(frozen=True)
class ChaosOutcome:
    """One chaos scenario's verdict against its fault-free baseline."""

    scenario: str
    published: int
    notified: int
    #: Publications never notified (must be 0 for every scenario).
    lost: int
    #: Duplicate notifications suppressed at the connection point.
    duplicates_suppressed: int
    baseline_digest: str
    chaos_digest: str
    #: The headline guarantee: identical delivered multiset.
    multiset_identical: bool
    detail: Dict

    @property
    def zero_loss(self) -> bool:
        return self.lost == 0


def notification_multiset(hub: StreamHub) -> List[tuple]:
    """Canonical delivered multiset, sorted for byte comparison.

    Each entry is ``(pub_id, match_count, subscriber_ids)`` — the ids
    are included whenever the backend reports them (exact matching), so
    the comparison covers the full notification content, not just the
    per-publication count.
    """
    entries = []
    for n in hub.notification_log:
        ids = (
            tuple(sorted(n.subscriber_ids))
            if n.subscriber_ids is not None
            else None
        )
        entries.append((n.pub_id, n.count, ids))
    return sorted(
        entries, key=lambda e: (e[0], e[1], e[2] if e[2] is not None else ())
    )


def multiset_digest(hub: StreamHub) -> str:
    """SHA-256 over the canonical multiset bytes (byte comparison)."""
    payload = repr(notification_multiset(hub)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def phase_spans_tile(tracer, root_name: str) -> bool:
    """Whether every ``root_name`` span's phases tile its interval.

    A root operation span (e.g. ``migration``) must be exactly
    covered by its consecutive phase child spans — including when the
    operation was aborted mid-phase: the abort closes the open phase at
    the abort instant, so the invariant survives crashes (satellite fix,
    see RESILIENCE.md).
    """
    roots = [s for s in tracer.find(root_name) if s.end is not None]
    if not roots:
        return False
    by_parent: Dict[int, List] = {}
    for span in tracer.spans:
        if span.name.startswith(root_name + ".") and span.parent_id:
            by_parent.setdefault(span.parent_id, []).append(span)
    for root in roots:
        phases = sorted(by_parent.get(root.span_id, []), key=lambda s: s.start)
        if not phases:
            return False
        if abs(phases[0].start - root.start) > _EPS:
            return False
        if phases[-1].end is None or abs(phases[-1].end - root.end) > _EPS:
            return False
        for left, right in zip(phases, phases[1:]):
            if left.end is None or abs(left.end - right.start) > _EPS:
                return False
    return True


# -- shared deployment ---------------------------------------------------------


@dataclasses.dataclass
class _Deployment:
    env: Environment
    cloud: CloudProvider
    hub: StreamHub
    telemetry: Telemetry
    edge: object  # AP + EP host
    m_hosts: List
    sink: object
    spares: List


def _band(low: float, high: float) -> PredicateSet:
    return PredicateSet.of(
        Predicate(0, Op.GE, low), Predicate(0, Op.LE, high)
    )


def _payload(pub_id: int) -> List[float]:
    return [float(pub_id % VALUE_SPACE), 0.0, 0.0, 0.0]


def _deploy(m_host_count: int = 2, spare_count: int = 2) -> _Deployment:
    env = Environment()
    telemetry = Telemetry(env)
    cloud = CloudProvider(env, spec=HostSpec(cores=8), max_hosts=12)
    edge = cloud.provision_now()
    m_hosts = [cloud.provision_now() for _ in range(m_host_count)]
    sink = cloud.provision_now()
    spares = [cloud.provision_now() for _ in range(spare_count)]
    # Exact matching throughout: notification content is then a pure
    # function of the subscription set, so the delivered multiset is
    # byte-identical across baseline and chaos runs.  The sampled
    # backend draws match counts from a stateful RNG and would diverge
    # after any recovery-time re-matching.
    config = HubConfig(
        ap_slices=2,
        m_slices=4,
        ep_slices=2,
        sink_slices=1,
        encrypted=False,
        backend_factory=lambda index: ExactBackend(BruteForceLibrary()),
        cost_model=CostModel(),
        telemetry=telemetry,
        # The adaptive transport runs every hop through a Channel, whose
        # circuit breaker holds its queue while the destination is
        # partitioned instead of feeding the fabric events it would only
        # drop.
        net=TransportConfig(flush_mode="adaptive"),
    )
    hub = StreamHub(env, cloud.network, config)
    hub.deploy(
        ap_hosts=[edge], m_hosts=m_hosts, ep_hosts=[edge], sink_hosts=[sink]
    )
    for sub_id in range(SUBSCRIPTIONS):
        low = float((sub_id * 7) % VALUE_SPACE)
        hub.subscribe(Subscription(sub_id, sub_id, _band(low, low + 60.0)))
    env.run()  # drain subscription propagation before the clock matters
    return _Deployment(env, cloud, hub, telemetry, edge, m_hosts, sink, spares)


def _drive(deployment: _Deployment) -> SourceDriver:
    source = SourceDriver(deployment.hub)
    source.publish_constant(
        rate_per_s=RATE,
        duration_s=DURATION_S,
        payload_factory=_payload,
    )
    return source


def _baseline_digest(m_host_count: int = 2) -> str:
    deployment = _deploy(m_host_count=m_host_count)
    _drive(deployment)
    deployment.env.run(until=HORIZON_S)
    return multiset_digest(deployment.hub)


def _outcome(
    scenario: str,
    deployment: _Deployment,
    source: SourceDriver,
    baseline: str,
    detail: Dict,
    trace_out: Optional[str] = None,
) -> ChaosOutcome:
    if trace_out is not None:
        # The full faulted run as JSONL spans — fault.injected and the
        # recovery.* family next to the regular hop/migration spans.
        deployment.telemetry.tracer.write_jsonl(trace_out)
    hub = deployment.hub
    digest = multiset_digest(hub)
    return ChaosOutcome(
        scenario=scenario,
        published=source.publications_sent,
        notified=hub.notified_publications,
        lost=source.publications_sent - hub.notified_publications,
        duplicates_suppressed=hub.duplicate_notifications,
        baseline_digest=baseline,
        chaos_digest=digest,
        multiset_identical=digest == baseline,
        detail=detail,
    )


# -- scenario 1: correlated rack loss ------------------------------------------


def run_rack_loss(
    rack_size: int = 2,
    fail_at_s: float = 10.0,
    checkpoint_interval_s: float = 4.0,
    seed: int = 0,
    trace_out: Optional[str] = None,
) -> ChaosOutcome:
    """Kill every host of the matcher rack at once; recover onto spares."""
    baseline = _baseline_digest(m_host_count=rack_size)
    d = _deploy(m_host_count=rack_size)
    spare_cycle = itertools.cycle(d.spares)
    coordinator = ReliabilityCoordinator(
        d.hub.runtime,
        interval_s=checkpoint_interval_s,
        replacement_host_fn=lambda: next(spare_cycle),
    )
    coordinator.start(d.hub.engine_slice_ids())
    d.hub.runtime.enable_dead_letters()
    detector = FailureDetector(d.env, detection_delay_s=1.0)
    detector.subscribe(lambda host: coordinator.handle_host_crash(host))
    plan = FaultPlan(
        d.env, cloud=d.cloud, detector=detector, telemetry=d.telemetry,
        seed=seed,
    )
    plan.group("rack", d.m_hosts)
    plan.fail_group_at(fail_at_s, "rack")
    source = _drive(d)
    d.env.run(until=HORIZON_S)
    return _outcome(
        "rack_loss",
        d,
        source,
        baseline,
        detail={
            "rack_size": rack_size,
            "hosts_lost": len(plan.crashed),
            "slices_recovered": len(coordinator.recovery_reports),
            "replayed_events": sum(
                r.replayed_events for r in coordinator.recovery_reports
            ),
            "dead_lettered": sum(
                r.dead_lettered for r in coordinator.recovery_reports
            ),
            "faults": [kind for _, kind, _ in plan.injected],
        },
        trace_out=trace_out,
    )


# -- scenario 2: manager crash during migration --------------------------------


def run_manager_crash(
    phase: str = "copy",
    kill_inflight: bool = True,
    act_at_s: float = 8.0,
    trace_out: Optional[str] = None,
) -> ChaosOutcome:
    """Crash the manager at a chosen phase of a migration it drives.

    ``phase`` is the migration phase whose start triggers the crash.  With
    ``kill_inflight`` the crash also strands the migration itself (it
    rolls back via the engine's abort path); otherwise the migration
    survives as an orphan the promoted standby awaits.
    """
    baseline = _baseline_digest()
    d = _deploy()
    failover = ManagerFailover(
        d.hub,
        d.cloud,
        # Decisions are driven explicitly below; park the probe loop.
        probe_interval_s=10 * HORIZON_S,
    )
    engine_hosts = [d.edge] + d.m_hosts + d.spares[:1]
    failover.start_primary(engine_hosts)
    failover.add_standby("standby")
    plan = FaultPlan(d.env, cloud=d.cloud, telemetry=d.telemetry)
    plan.crash_manager_at_phase(
        d.hub.runtime,
        lambda: failover.crash_active(kill_inflight=kill_inflight),
        phase=phase,
    )
    decision = ScalingDecision(
        kind=ViolationKind.LOCAL_OVERLOAD,
        migrations=[
            PlannedMigration("M:0", d.m_hosts[0].host_id, d.spares[0].host_id)
        ],
    )
    d.env.call_later(
        act_at_s, lambda: failover.active.execute_decision(decision)
    )
    source = _drive(d)
    d.env.run(until=HORIZON_S)
    standby = failover.active
    return _outcome(
        "manager_crash_migration",
        d,
        source,
        baseline,
        detail={
            "phase": phase,
            "kill_inflight": kill_inflight,
            "failovers": failover.failovers,
            "outcomes": list(standby.failover_outcomes)
            if standby is not None
            else [],
            "migrations_aborted": d.hub.runtime.migrations_aborted,
            "phase_spans_tile": phase_spans_tile(d.telemetry.tracer, "migration"),
            "faults": [kind for _, kind, _ in plan.injected],
        },
        trace_out=trace_out,
    )


# -- scenario 3: partition + heal ----------------------------------------------


def run_partition_heal(
    migrate: bool = False,
    cut_at_s: float = 8.0,
    heal_at_s: float = 16.0,
    trace_out: Optional[str] = None,
) -> ChaosOutcome:
    """Cut the matcher rack off the edge host and heal it.

    Every hop runs through an adaptive channel whose circuit breaker
    holds the partitioned link's queue and flushes it on heal, so
    nothing is dropped and nothing needs replaying.  With ``migrate`` a
    live migration of ``M:0`` (within the matcher rack) is started
    *inside* the partition window: its sync phase drains once the heal
    flushes the held events, proving the protocol rides out a partition
    rather than wedging.
    """
    baseline = _baseline_digest()
    d = _deploy()
    plan = FaultPlan(d.env, cloud=d.cloud, telemetry=d.telemetry)
    plan.group("rack", d.m_hosts)
    plan.group("edge", [d.edge])
    plan.partition_at(cut_at_s, "rack", "edge")
    plan.heal_at(heal_at_s)
    migration_holder: Dict[str, object] = {}
    if migrate:
        d.env.call_later(
            (cut_at_s + heal_at_s) / 2.0,
            lambda: migration_holder.update(
                process=d.hub.runtime.migrate("M:0", d.m_hosts[1])
            ),
        )
    source = _drive(d)
    d.env.run(until=HORIZON_S)
    network = d.cloud.network
    return _outcome(
        "partition_heal_migrate" if migrate else "partition_heal",
        d,
        source,
        baseline,
        detail={
            "migrated": migrate
            and d.hub.runtime.placement().get("M:0") == d.m_hosts[1].host_id,
            "partition_drops": network.partition_drops,
            "breaker_trips": d.hub.runtime.transport.breaker_trips_total(),
            "duplicates_suppressed": d.hub.duplicate_notifications,
            "faults": [kind for _, kind, _ in plan.injected],
        },
        trace_out=trace_out,
    )
