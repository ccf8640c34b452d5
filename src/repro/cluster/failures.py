"""Host failure injection and detection.

STREAMMINE3G supports passive and active slice replication for fault
tolerance (paper §III; its refs [25], [26]).  The paper's evaluation
leaves replication out of scope; we implement the passive scheme end to
end (checkpointing + upstream replay, :mod:`repro.engine.recovery`), and
this module supplies the substrate: crashing hosts, a failure detector
that models missed heartbeats as a fixed detection delay, and
:class:`FaultPlan`, the one fault scripter every scenario uses — it
schedules single-host crashes, correlated rack loss, link partitions and
manager crashes (optionally pinned to a migration phase) and reports
each crash to the detector.  :class:`Watchdog` interrupts operations
that outlive their deadline.  The failure model these implement is
written down in RESILIENCE.md.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence

from ..sim import Environment
from .cloud import CloudProvider
from .host import Host

__all__ = [
    "FailureDetector",
    "FaultPlan",
    "Watchdog",
    "crash_host",
]


def crash_host(cloud: CloudProvider, host: Host) -> None:
    """Crash ``host``: it stops abruptly and leaves the fabric.

    Unlike a graceful :meth:`CloudProvider.release`, nothing running on
    the host gets a chance to migrate or flush.
    """
    if host.released:
        raise RuntimeError(f"host {host.host_id} is already gone")
    cloud.release(host)  # accounting-wise the host is gone immediately


class FailureDetector:
    """Notifies subscribers of crashes after a detection delay.

    Models heartbeat-based detection: a crash becomes *known* only after
    ``detection_delay_s`` (missed heartbeats), during which events sent to
    the dead host are lost — exactly the window the recovery protocol's
    replay has to cover.
    """

    def __init__(self, env: Environment, detection_delay_s: float = 2.0):
        if detection_delay_s < 0:
            raise ValueError("detection delay must be non-negative")
        self.env = env
        self.detection_delay_s = detection_delay_s
        self._listeners: List[Callable[[Host], None]] = []
        self._reported: set = set()
        self.detected: List[Host] = []

    def subscribe(self, listener: Callable[[Host], None]) -> None:
        self._listeners.append(listener)

    def report_crash(self, host: Host) -> None:
        """Called at crash time; listeners hear about it after the delay.

        Idempotent per host: a second report of the same crash never
        double-notifies recovery.  :class:`FaultPlan` reports every crash
        it injects through here.
        """
        if host.host_id in self._reported:
            return
        self._reported.add(host.host_id)
        self.env.call_later(self.detection_delay_s, self._notify, host)

    def _notify(self, host: Host) -> None:
        self.detected.append(host)
        for listener in list(self._listeners):
            listener(host)


class Watchdog:
    """Interrupts simulation processes that outlive a deadline.

    A manager built with ``migration_timeout_s`` arms one per operation
    it waits on; without it nothing is
    guarded.  If the operation's process is still alive when the timer
    fires — e.g. its sync phase waits on events a partition dropped — the
    process is interrupted, which triggers the operation's own rollback
    path.
    """

    def __init__(self, env: Environment, telemetry=None):
        self.env = env
        self.telemetry = telemetry
        self.timeouts = 0

    def guard(self, process, timeout_s: float, cause: str = "watchdog"):
        """Arm a timer for ``process``; returns a zero-arg disarm callable."""
        if timeout_s <= 0:
            raise ValueError("watchdog timeout must be positive")
        armed = [True]

        def check():
            if not armed[0] or not process.is_alive:
                return
            self.timeouts += 1
            tel = self.telemetry
            if tel is not None:
                tel.watchdog_timeouts.inc()
                tel.tracer.event(
                    "recovery.watchdog_timeout", cause=cause,
                    timeout_s=timeout_s,
                )
            process.interrupt(cause)
            # Nobody may be left waiting on the interrupted process (its
            # waiter may itself have been the thing that hung): make sure
            # its failure cannot crash the simulation.
            process.defuse()

        self.env.call_later(timeout_s, check)

        def disarm():
            armed[0] = False

        return disarm


class FaultPlan:
    """A scripted schedule of correlated faults against one deployment.

    Groups hosts into named racks, then injects — at absolute simulated
    times — correlated rack loss, link partitions between host groups,
    and manager crashes (optionally pinned to a specific migration phase
    via the runtime's phase listeners).  Every injection is
    recorded (``self.injected``) and, when telemetry is bound, emitted as
    a ``fault.injected`` instant span plus a ``faults_injected_total``
    count by kind.

    The plan is deterministic: a seed picks victims only where the script
    leaves them unspecified.
    """

    def __init__(
        self,
        env: Environment,
        cloud: Optional[CloudProvider] = None,
        detector: Optional[FailureDetector] = None,
        telemetry=None,
        seed: int = 0,
    ):
        self.env = env
        self.cloud = cloud
        self.detector = detector
        self.telemetry = telemetry
        self._rng = random.Random(seed)
        self._groups: Dict[str, List[Host]] = {}
        #: (time_s, kind, detail) of every fault actually injected.
        self.injected: List[tuple] = []
        self.crashed: List[Host] = []

    @property
    def network(self):
        if self.cloud is None:
            raise RuntimeError("fault plan has no cloud (network) bound")
        return self.cloud.network

    # -- host groups (racks) -------------------------------------------------

    def group(self, name: str, hosts: Sequence[Host]) -> None:
        """Register a named host group (a rack / failure domain)."""
        if name in self._groups:
            raise ValueError(f"group {name!r} already defined")
        self._groups[name] = list(hosts)

    def members(self, name: str) -> List[Host]:
        if name not in self._groups:
            raise ValueError(f"unknown group {name!r}")
        return list(self._groups[name])

    def _host_ids(self, group) -> List[str]:
        """Host ids for a group name, a host list, or an id list."""
        if isinstance(group, str):
            return [h.host_id for h in self.members(group)]
        return [h.host_id if isinstance(h, Host) else h for h in group]

    def _record(self, kind: str, **detail) -> None:
        self.injected.append((self.env.now, kind, detail))
        tel = self.telemetry
        if tel is not None:
            tel.faults_injected.labels(kind=kind).inc()
            tel.tracer.event("fault.injected", kind=kind, **detail)

    # -- correlated host loss ------------------------------------------------

    def crash_host_at(self, time_s: float, host: Optional[Host] = None):
        """Crash one host (seed-picked from all groups when ``None``)."""
        return self._at(time_s, self._crash_hosts, None, host)

    def fail_group_at(self, time_s: float, name: str):
        """Crash every host of a group at once — correlated rack loss."""
        self.members(name)  # validate eagerly, at scripting time
        return self._at(time_s, self._crash_hosts, name, None)

    def _crash_hosts(self, name: Optional[str], host: Optional[Host]) -> None:
        if name is not None:
            victims = [h for h in self.members(name) if not h.released]
        elif host is not None:
            victims = [] if host.released else [host]
        else:
            pool = [
                h
                for hosts in self._groups.values()
                for h in hosts
                if not h.released
            ]
            victims = [self._rng.choice(pool)] if pool else []
        if not victims:
            return
        for victim in victims:
            crash_host(self.cloud, victim)
            self.crashed.append(victim)
        kind = "rack_loss" if len(victims) > 1 else "host_crash"
        self._record(
            kind,
            group=name,
            hosts=",".join(v.host_id for v in victims),
        )
        # Report only after the whole rack is down: detection is
        # correlated too, and recovery must not observe a half-dead rack.
        if self.detector is not None:
            for victim in victims:
                self.detector.report_crash(victim)

    # -- link partitions -----------------------------------------------------

    def partition_at(self, time_s: float, group_a, group_b):
        """Cut the links between two host groups at ``time_s``."""
        return self._at(time_s, self._partition, group_a, group_b)

    def heal_at(self, time_s: float, group_a=None, group_b=None):
        """Heal partitions at ``time_s`` (all of them when unspecified)."""
        return self._at(time_s, self._heal, group_a, group_b)

    def _partition(self, group_a, group_b) -> None:
        ids_a, ids_b = self._host_ids(group_a), self._host_ids(group_b)
        self.network.partition(ids_a, ids_b)
        self._record(
            "partition", a=",".join(ids_a), b=",".join(ids_b)
        )

    def _heal(self, group_a, group_b) -> None:
        if group_a is None and group_b is None:
            self.network.heal()
            self._record("heal", a="*", b="*")
            return
        ids_a = self._host_ids(group_a or ())
        ids_b = self._host_ids(group_b or ())
        self.network.heal(ids_a, ids_b)
        self._record("heal", a=",".join(ids_a), b=",".join(ids_b))

    # -- manager crashes -----------------------------------------------------

    def crash_manager_at(self, time_s: float, crash: Callable[[], None]):
        """Crash a manager at ``time_s`` by calling ``crash()``."""
        return self._at(time_s, self._crash_manager, crash, None)

    def crash_manager_at_phase(
        self,
        runtime,
        crash: Callable[[], None],
        phase: str,
        slice_id: Optional[str] = None,
    ) -> None:
        """Crash a manager the moment a chosen migration phase starts.

        ``runtime`` is the :class:`~repro.engine.runtime.EngineRuntime`
        whose phase transitions are watched; ``phase`` is one of the five
        migration phases (``pre``/``sync``/``pause``/``copy``/``post``).
        ``crash`` takes no argument (``manager.crash`` or a lambda over
        :meth:`~repro.elastic.ManagerFailover.crash_active`).  The crash
        is scheduled one simulation instant after the phase starts (a
        process cannot interrupt itself synchronously).
        """
        fired = [False]

        def listener(sid: str, name: str) -> None:
            if fired[0] or name != phase:
                return
            if slice_id is not None and sid != slice_id:
                return
            fired[0] = True
            self.env.call_later(0.0, self._crash_manager, crash, name)

        runtime.migration_phase_listeners.append(listener)

    def _crash_manager(self, crash, phase) -> None:
        crash()
        detail = {} if phase is None else {"phase": phase}
        self._record("manager_crash", **detail)

    # -- scheduling ----------------------------------------------------------

    def _at(self, time_s: float, action, *args):
        if time_s < self.env.now:
            raise ValueError("cannot schedule a fault in the past")
        self.env.call_later(time_s - self.env.now, action, *args)
