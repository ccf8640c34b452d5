"""Coordination recipe on top of the kernel: leader election.

The manager must tolerate failures (paper §IV-B): its whole state lives in
the coordination kernel so it "can easily be restarted in case of
failure".  This ZooKeeper-style recipe provides the missing piece for a
hot-standby deployment: a leader election deciding which manager instance
is active.

It follows the classic ephemeral-sequential-node pattern: each candidate
creates an ephemeral sequential znode under a common parent and watches
the candidate immediately preceding it (avoiding herd effects); the owner
of the smallest sequence number is the leader, and a crash (session
close) hands leadership on automatically.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .kernel import CoordinationKernel, Session

__all__ = ["LeaderElection"]

_PREFIX = "candidate-"


class LeaderElection:
    """Hot-standby leader election.

    ``on_elected`` fires (once) when this participant becomes the leader —
    either immediately on joining an empty election or later when every
    preceding candidate's session ends.
    """

    def __init__(
        self,
        kernel: CoordinationKernel,
        session: Session,
        path: str = "/estreamhub/election",
        candidate_id: str = "",
    ):
        self.kernel = kernel
        self.session = session
        self.path = path
        self.candidate_id = candidate_id
        self._node: Optional[str] = None
        self._callbacks: List[Callable[[], None]] = []
        self._elected = False

    def on_elected(self, callback: Callable[[], None]) -> None:
        self._callbacks.append(callback)
        if self._elected:
            callback()

    def join(self) -> None:
        """Enter the election."""
        if self._node is not None:
            raise RuntimeError("already participating")
        self.kernel.ensure_path(self.path)
        self._node = self.kernel.create(
            f"{self.path}/{_PREFIX}",
            data=self.candidate_id,
            session=self.session,
            ephemeral=True,
            sequential=True,
        )
        self._check()

    @property
    def is_leader(self) -> bool:
        return self._elected

    def leader_id(self) -> Optional[str]:
        """Candidate id of the current leader, if any."""
        contenders = self._contenders()
        if not contenders:
            return None
        data, _ = self.kernel.get(f"{self.path}/{contenders[0]}")
        return data

    def _contenders(self) -> List[str]:
        return [
            name
            for name in self.kernel.get_children(self.path)
            if name.startswith(_PREFIX)
        ]

    def _check(self) -> None:
        if self._elected or self._node is None:
            return
        contenders = self._contenders()
        mine = self._node.rsplit("/", 1)[1]
        if contenders and contenders[0] == mine:
            self._elected = True
            for callback in list(self._callbacks):
                callback()
            return
        if mine not in contenders:
            # Our node vanished (session expired): nothing to wait for.
            return
        predecessor = contenders[contenders.index(mine) - 1]
        stat = self.kernel.exists(
            f"{self.path}/{predecessor}", watch=lambda _event: self._check()
        )
        if stat is None:
            self._check()
