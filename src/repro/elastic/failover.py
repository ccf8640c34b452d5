"""Manager failover harness: primary/standby behind a leader election.

The paper keeps the manager restartable by storing its whole state in
ZooKeeper (§IV-B).  :class:`ManagerFailover` packages the full pattern
the chaos scenarios exercise (see RESILIENCE.md):

* the primary :class:`~repro.elastic.ElasticityManager` writes its
  decision history and the decision currently executing to the
  coordination kernel before it acts, beside hosts and placement;
* one or more standbys wait behind a
  :class:`~repro.coord.LeaderElection` (ephemeral-sequential nodes in
  the coordination kernel);
* :meth:`ManagerFailover.crash_active` kills the active manager —
  interrupting any in-flight migration, which rolls back via the
  engine's abort path — and closes its election session, so the next
  standby is promoted, is built by the ordinary constructor with no
  host list (so it reads hosts, history and the in-flight decision back
  from the kernel), and settles the interrupted decision with
  :meth:`~repro.elastic.ElasticityManager.resume_inflight`.

The promoted manager resumes heartbeat collection immediately: elastic
control continues across the failover with at most one lost decision,
and that one is recorded as completed or rolled back — never silently
half-applied.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..cluster import CloudProvider, Host
from ..coord import CoordinationKernel, LeaderElection
from .manager import ElasticityManager

__all__ = ["ManagerFailover"]


class ManagerFailover:
    """Run elasticity managers as an elected primary with hot standbys."""

    def __init__(
        self,
        hub,
        cloud: CloudProvider,
        coord: Optional[CoordinationKernel] = None,
        **manager_kwargs,
    ):
        """``manager_kwargs`` are forwarded to every manager built by
        the harness (``policy``, ``probe_interval_s``,
        ``migration_timeout_s``, ...)."""
        self.hub = hub
        self.cloud = cloud
        self.env = hub.env
        self.coord = coord or CoordinationKernel()
        self.manager_kwargs = dict(manager_kwargs)
        #: Managers by candidate id, in promotion order.
        self.managers: Dict[str, ElasticityManager] = {}
        #: The currently elected manager (``None`` before the first
        #: election and between a crash and the next promotion).
        self.active: Optional[ElasticityManager] = None
        self.active_id: Optional[str] = None
        self.failovers = 0
        self._sessions: Dict[str, object] = {}
        self._elections: Dict[str, LeaderElection] = {}
        self._pending_orphans: List = []

    # -- membership ---------------------------------------------------------

    def start_primary(
        self, engine_hosts: List[Host], candidate_id: str = "primary"
    ) -> ElasticityManager:
        """Join ``candidate_id`` and start it as the initial manager."""
        self._join(candidate_id, initial_hosts=list(engine_hosts))
        manager = self.managers.get(candidate_id)
        if manager is None:
            raise RuntimeError(
                f"{candidate_id} joined but was not elected primary"
            )
        return manager

    def add_standby(self, candidate_id: str) -> None:
        """Join a standby; it builds its manager only when elected."""
        self._join(candidate_id, initial_hosts=None)

    def _join(self, candidate_id: str, initial_hosts) -> None:
        if candidate_id in self._elections:
            raise ValueError(f"candidate {candidate_id!r} already joined")
        session = self.coord.session()
        election = LeaderElection(
            self.coord, session, candidate_id=candidate_id
        )
        election.on_elected(
            lambda: self._on_elected(candidate_id, initial_hosts)
        )
        self._sessions[candidate_id] = session
        self._elections[candidate_id] = election
        election.join()

    def _on_elected(self, candidate_id: str, initial_hosts) -> None:
        # A standby (no host list) restarts from the kernel.
        manager = ElasticityManager(
            self.hub, self.cloud, initial_hosts, coord=self.coord,
            **self.manager_kwargs,
        )
        self.managers[candidate_id] = manager
        self.active = manager
        self.active_id = candidate_id
        manager.start()
        if initial_hosts is None:
            self.failovers += 1
            orphans, self._pending_orphans = self._pending_orphans, []
            manager.resume_inflight(orphans)

    # -- chaos entry point ---------------------------------------------------

    def crash_active(self, kill_inflight: bool = True) -> None:
        """Crash the elected manager and trigger the next election.

        The manager's in-flight operations are interrupted (rolled
        back) unless ``kill_inflight=False``, in which case they keep
        running as orphans and the promoted standby awaits them before
        settling the decision.
        """
        manager, candidate_id = self.active, self.active_id
        if manager is None:
            raise RuntimeError("no active manager to crash")
        self.active = None
        self.active_id = None
        self._pending_orphans = manager.crash(kill_inflight=kill_inflight)
        # Ephemeral election node disappears with the session; the next
        # candidate in line is promoted by its watch.
        self._sessions[candidate_id].close()
