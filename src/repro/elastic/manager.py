"""The E-STREAMHUB manager: configuration, heartbeats, orchestration.

The manager (paper §IV-B) owns the system configuration, collects probes
from all hosts via heartbeats, forwards them to the elasticity enforcer
and orchestrates the resulting migrations, host allocations and releases.
The whole manager state — slice placement, the managed host set, the
migration log, the decision history and the decision currently executing —
is mirrored into a ZooKeeper-like coordination kernel so a failed manager
can be restarted from the shared state.

Failover (see RESILIENCE.md): the history and the in-flight decision live
in one znode, ``/estreamhub/state``, written *before* the manager touches
the system.  A standby promoted after a :meth:`crash` (typically via
:class:`~repro.elastic.failover.ManagerFailover`) is the ordinary
constructor with no host list: it reads hosts, history and the in-flight
decision back from the kernel, then calls :meth:`resume_inflight` to
classify every migration of the interrupted decision as completed or
rolled back — in-flight migrations a crash kills roll back on interrupt
(:mod:`repro.engine.migration`), so the system is never left halted.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..cluster import CloudProvider, Host, Watchdog
from ..coord import CoordinationKernel, NoNodeError, NodeExistsError
from ..engine import MigrationReport
from ..sim import Environment, Interrupt
from .binpack import NEW_HOST_PREFIX
from .enforcer import ElasticityEnforcer, ScalingDecision
from .policy import ElasticityPolicy
from .probes import ProbeCollector, ProbeSet
from .signals import ScalingRule

__all__ = ["ElasticityManager", "ManagerRecord"]

_ROOT = "/estreamhub"
#: History + in-flight decision; written before the manager acts.
_STATE = f"{_ROOT}/state"


@dataclass
class ManagerRecord:
    """One entry of the manager's decision history."""

    #: Simulated time the decision finished executing.
    time: float
    #: The fired rule (a :class:`ViolationKind` value string).
    kind: str
    #: Migrations the decision planned (attempted, not necessarily done).
    migrations: int
    #: Hosts the decision asked to provision.
    new_hosts: int
    #: Hosts actually released back to the provider.
    released_hosts: int
    #: Failed steps: provisioning shortfalls, failed or untargetable
    #: migrations, releases blocked by still-occupied hosts.
    failures: int = 0


class ElasticityManager:
    """Drives elastic scaling of one hub deployment."""

    def __init__(
        self,
        hub,
        cloud: CloudProvider,
        engine_hosts: Optional[List[Host]] = None,
        policy: Optional[ElasticityPolicy] = None,
        enforcer: Optional[ElasticityEnforcer] = None,
        coord: Optional[CoordinationKernel] = None,
        probe_interval_s: float = 5.0,
        migration_timeout_s: Optional[float] = None,
    ):
        """Wire a manager to one deployed hub.

        ``engine_hosts`` is the initial managed host set (at least one);
        the manager owns membership from here on — provisioning into and
        releasing from ``cloud`` as the enforcer decides.  ``None``
        restarts from ``coord`` (paper §IV-B): the host set, decision
        history and in-flight decision a predecessor left there are read
        back.  ``policy`` defaults to the paper's
        (``ElasticityPolicy()``); ``enforcer`` and ``coord`` default to
        the two-step enforcer sized to the provider's host spec and a
        fresh coordination kernel.
        ``probe_interval_s`` is the heartbeat period (paper: 5 s).  The
        hub's telemetry bundle, when present, is inherited and threaded
        into the collector, the scaling rule and the enforcer.
        """
        self.hub = hub
        self.cloud = cloud
        self.env: Environment = hub.env
        self.policy = policy if policy is not None else ElasticityPolicy()
        #: Telemetry bundle inherited from the hub (``None`` when the hub
        #: runs without one); threaded into the collector and enforcer.
        self.telemetry = getattr(hub, "telemetry", None)
        #: The scaling rule of this control loop; one instance observes
        #: every probe round so the veto's round budget stays honest.
        self.rule = ScalingRule(self.policy, telemetry=self.telemetry)
        self.enforcer = enforcer or ElasticityEnforcer(
            self.policy,
            host_cores=cloud.spec.cores,
            host_memory_bytes=cloud.spec.memory_bytes,
            telemetry=self.telemetry,
        )
        if self.enforcer.telemetry is None:
            self.enforcer.telemetry = self.telemetry
        self.coord = coord or CoordinationKernel()
        if engine_hosts is None:
            engine_hosts = [
                host for host in map(cloud.host, self.stored_hosts())
                if not host.released
            ]
        self.engine_hosts: List[Host] = list(engine_hosts)
        if not self.engine_hosts:
            raise ValueError("need at least one initial engine host")
        delay_tracker = (
            getattr(hub, "delay_tracker", None)
            if self.policy.slo_veto
            else None
        )
        self.collector = ProbeCollector(
            hub.runtime,
            hub.engine_slice_ids(),
            hosts_fn=lambda: list(self.engine_hosts),
            cost_model=hub.config.cost_model,
            interval_s=probe_interval_s,
            telemetry=self.telemetry,
            delay_tracker=delay_tracker,
        )
        self.collector.subscribe(self._on_probes)
        #: Extra probe listeners (experiment recorders).
        self.probe_listeners = []
        self.history: List[ManagerRecord] = []
        self.migration_reports: List[MigrationReport] = []
        self._executing = False
        self._last_action_at = -float("inf")
        self._started = False
        self.migration_timeout_s = migration_timeout_s
        self._watchdog = (
            Watchdog(self.env, self.telemetry)
            if migration_timeout_s is not None
            else None
        )
        self._exec_process = None
        #: Migration processes of the decision being executed.
        self._inflight_ops: List = []
        self.manager_crashes = 0
        #: Fencing flag: once crashed, this manager instance may never
        #: write its state znode again (a promoted standby owns it now).
        self.crashed = False
        #: ``(slice_id, outcome)`` pairs from :meth:`resume_inflight`.
        self.failover_outcomes: List = []
        self._init_config()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Begin heartbeat collection and policy enforcement."""
        if self._started:
            raise RuntimeError("manager already started")
        self._started = True
        self.collector.start()

    @property
    def host_count(self) -> int:
        """Number of engine hosts currently managed."""
        return len(self.engine_hosts)

    @property
    def in_grace_period(self) -> bool:
        """Whether the post-action settle window is still running."""
        return (self.env.now - self._last_action_at) < self.policy.grace_period_s

    # -- probe handling -----------------------------------------------------------

    def _on_probes(self, probes: ProbeSet) -> None:
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.engine_hosts.set(len(self.engine_hosts))
        for listener in list(self.probe_listeners):
            listener(probes)
        # The rule observes *every* round — the veto counts consecutive
        # rounds, and evaluation never touches the engine — but decisions
        # are only acted on outside grace periods.
        violation = self.rule.evaluate(probes)
        if violation is None or self._executing or self.in_grace_period:
            return
        decision = self.enforcer.resolve(probes, violation)
        if decision is None or decision.is_empty:
            return
        self._executing = True
        self._exec_process = self.env.process(self._execute(decision))

    # -- decision execution ----------------------------------------------------------

    def execute_decision(self, decision: ScalingDecision):
        """Execute ``decision`` outside the probe loop (operator action).

        The chaos scenarios use this to drive a *known* migration
        through the manager's full execution path — persistence,
        spans, failover accounting — at a deterministic time instead of
        waiting for the policy to fire.  Returns the execution process.
        """
        if self._executing:
            raise RuntimeError("a decision is already executing")
        self._executing = True
        self._exec_process = self.env.process(self._execute(decision))
        return self._exec_process

    def _execute(self, decision: ScalingDecision):
        failures = 0
        released = 0
        completed = False
        # Persist the decision *before* acting: a standby that takes
        # over mid-execution reads it back and classifies each planned
        # migration as completed or rolled back (resume_inflight).
        self._persist_state(inflight=self._decision_record(decision))
        tracer = self.telemetry.tracer if self.telemetry is not None else None
        span = None
        if tracer is not None:
            span = tracer.start_span(
                "enforcer.execute",
                kind=decision.kind.value,
                migrations=len(decision.migrations),
                new_hosts=decision.new_hosts,
            )
        try:
            new_hosts: Dict[str, Host] = {}
            for index in range(decision.new_hosts):
                try:
                    host = yield from self.cloud.provision()
                except RuntimeError:
                    # Provider capacity exhausted: proceed with what we got;
                    # migrations targeting missing hosts count as failures.
                    failures += decision.new_hosts - index
                    break
                placeholder = f"{NEW_HOST_PREFIX}{index}"
                new_hosts[placeholder] = host
                self.engine_hosts.append(host)
                self._record_host(host)

            hosts_by_id = {h.host_id: h for h in self.engine_hosts}
            # Migrations run concurrently.
            migrations = []
            for planned in decision.migrations:
                destination = new_hosts.get(planned.to_host) or hosts_by_id.get(
                    planned.to_host
                )
                if destination is None:
                    failures += 1
                    continue
                migrations.append(
                    self.hub.runtime.migrate(planned.slice_id, destination)
                )
            self._inflight_ops.extend(migrations)
            failures += yield from self._await_ops(migrations)

            released = 0
            placement = self.hub.runtime.placement()
            occupied = set(placement.values())
            for host_id in decision.release_hosts:
                host = hosts_by_id.get(host_id)
                if host is None or host_id in occupied:
                    failures += 1
                    continue
                self.engine_hosts.remove(host)
                self.cloud.release(host)
                self._unrecord_host(host_id)
                released += 1

            self._sync_placement()
            self.history.append(
                ManagerRecord(
                    time=self.env.now,
                    kind=decision.kind.value,
                    migrations=len(decision.migrations),
                    new_hosts=decision.new_hosts,
                    released_hosts=released,
                    failures=failures,
                )
            )
            completed = True
            self._persist_state(inflight=None)
        finally:
            if span is not None:
                if not completed:
                    # A crash or watchdog interrupt unwound the decision
                    # mid-flight; close the span anyway so phase spans
                    # always tile the execution interval.
                    span.attrs["outcome"] = "aborted"
                tracer.finish_span(
                    span, released_hosts=released, failures=failures
                )
            self._last_action_at = self.env.now
            self._executing = False
            self._exec_process = None
            self._inflight_ops = []

    def _await_ops(self, processes: List):
        """Wait for migration processes in order; returns failures.

        The one wait path of :meth:`_execute` and :meth:`_resume_inflight`:
        every process is guarded by the watchdog when
        ``migration_timeout_s`` is set, each report is recorded, and each
        failed operation (rolled back, refused) is counted.
        """
        disarms = []
        if self._watchdog is not None:
            disarms = [
                self._watchdog.guard(
                    process, self.migration_timeout_s, cause="migration_timeout"
                )
                for process in processes
            ]
        failures = 0
        for process in processes:
            try:
                report = yield process
            except Interrupt:
                # The manager itself was crashed/timed out — do NOT
                # swallow this as an operation failure, or a zombie
                # manager keeps executing (and persisting) after a
                # standby has taken over.
                raise
            except Exception:
                failures += 1
                continue
            self.migration_reports.append(report)
            self._record_migration(report)
        for disarm in disarms:
            disarm()
        return failures

    # -- failover (see RESILIENCE.md) ------------------------------------------------

    def _decision_record(self, decision: ScalingDecision) -> Dict:
        return {
            "kind": decision.kind.value,
            "migrations": [
                {
                    "slice": planned.slice_id,
                    "from": planned.from_host,
                    "to": planned.to_host,
                }
                for planned in decision.migrations
            ],
            "new_hosts": decision.new_hosts,
            "release_hosts": list(decision.release_hosts),
            "started_at": self.env.now,
        }

    def _persist_state(self, inflight: Optional[Dict]) -> None:
        """Write history + the in-flight decision to the state znode."""
        if self.crashed:
            # A crashed instance is fenced off the state znode: only
            # the promoted standby may write the manager state.
            return
        self.coord.set(_STATE, {
            "history": [dataclasses.asdict(record) for record in self.history],
            "inflight": inflight,
        })

    def crash(self, kill_inflight: bool = True) -> List:
        """Simulate a manager process crash (chaos scenarios).

        Stops the control loop mid-whatever-it-was-doing.  With
        ``kill_inflight`` (the default — the manager drives the
        migration protocol, so its death strands the operation) every
        in-flight migration is interrupted too and rolls back
        via :mod:`repro.engine.migration`'s abort path.  With
        ``kill_inflight=False`` the operations survive as orphans
        (modeling an engine that completes a handoff already in its
        final phase) and are returned so a standby can await them in
        :meth:`resume_inflight`.
        """
        self.manager_crashes += 1
        self.crashed = True
        self.collector.stop()
        self._started = False
        orphans: List = []
        exec_process = self._exec_process
        if exec_process is not None and exec_process.is_alive:
            ops = [p for p in self._inflight_ops if p.is_alive]
            exec_process.interrupt("manager_crash")
            exec_process.defuse()
            if kill_inflight:
                for process in ops:
                    if process.is_alive:
                        process.interrupt("manager_crash")
                        process.defuse()
            else:
                orphans = ops
        return orphans

    def resume_inflight(self, orphans: Optional[List] = None):
        """Settle the decision a crashed predecessor left executing.

        Awaits any orphaned operations handed over from
        :meth:`crash(kill_inflight=False) <crash>`, then reads the
        persisted in-flight decision back from the kernel and
        classifies each planned migration against the live placement:
        ``completed`` (the slice moved off its origin) or
        ``rolled_back`` (still on the origin — the interrupt rolled it
        back).  Clears the in-flight record and re-syncs the placement
        mirror either way.

        Returns the coordinating process (value: list of
        ``(slice_id, outcome)`` pairs).
        """
        return self.env.process(self._resume_inflight(orphans or []))

    def _resume_inflight(self, orphans: List):
        tracer = self.telemetry.tracer if self.telemetry is not None else None
        span = None
        if tracer is not None:
            span = tracer.start_span("recovery.failover", orphans=len(orphans))
        # A failed orphan rolled back; the classification below says so.
        yield from self._await_ops(orphans)
        state, _ = self.coord.get(_STATE)
        inflight = state["inflight"] if state is not None else None
        outcomes = []
        failures = 0
        if inflight is not None:
            placement = self.hub.runtime.placement()
            for planned in inflight["migrations"]:
                current = placement.get(planned["slice"])
                if current is not None and current != planned["from"]:
                    outcomes.append((planned["slice"], "completed"))
                else:
                    outcomes.append((planned["slice"], "rolled_back"))
                    failures += 1
            self.history.append(
                ManagerRecord(
                    time=self.env.now,
                    kind=inflight["kind"],
                    migrations=len(inflight["migrations"]),
                    new_hosts=inflight["new_hosts"],
                    released_hosts=0,
                    failures=failures,
                )
            )
        self.failover_outcomes = outcomes
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.manager_failovers.inc()
        self._persist_state(inflight=None)
        self._sync_placement()
        if span is not None:
            tracer.finish_span(
                span,
                migrations=len(outcomes),
                rolled_back=failures,
                completed=len(outcomes) - failures,
            )
        return outcomes

    # -- coordination-kernel mirror ------------------------------------------------------

    def _init_config(self) -> None:
        for node in ("placement", "hosts", "migrations", "state"):
            self.coord.ensure_path(f"{_ROOT}/{node}")
        state, _ = self.coord.get(_STATE)
        if state is not None:
            # Restart: inherit the predecessor's decision history.
            self.history = [ManagerRecord(**record) for record in state["history"]]
        for host in self.engine_hosts:
            self._record_host(host)
        self._sync_placement()

    def _record_host(self, host: Host) -> None:
        try:
            self.coord.create(
                f"{_ROOT}/hosts/{host.host_id}", data={"cores": host.spec.cores}
            )
        except NodeExistsError:
            pass  # restart: node already present

    def _unrecord_host(self, host_id: str) -> None:
        try:
            self.coord.delete(f"{_ROOT}/hosts/{host_id}")
        except NoNodeError:
            pass

    def _sync_placement(self) -> None:
        placement = self.hub.runtime.placement()
        for slice_id, host_id in placement.items():
            path = f"{_ROOT}/placement/{slice_id.replace(':', '_')}"
            if self.coord.exists(path) is None:
                self.coord.create(path, data=host_id)
            else:
                self.coord.set(path, host_id)

    def _record_migration(self, report: MigrationReport) -> None:
        self.coord.create(
            f"{_ROOT}/migrations/m-",
            data={
                "slice": report.slice_id,
                "from": report.source_host,
                "to": report.destination_host,
                "duration_s": report.duration_s,
            },
            sequential=True,
        )

    def stored_placement(self) -> Dict[str, str]:
        """Slice placement as recorded in the coordination kernel.

        A restarted manager rebuilds its view of the system from this,
        tolerating a manager failure (paper §IV-B).
        """
        placement = {}
        for name in self.coord.get_children(f"{_ROOT}/placement"):
            data, _ = self.coord.get(f"{_ROOT}/placement/{name}")
            placement[name.replace("_", ":")] = data
        return placement

    def stored_hosts(self) -> List[str]:
        """Managed host ids as recorded in the coordination kernel."""
        return self.coord.get_children(f"{_ROOT}/hosts")
