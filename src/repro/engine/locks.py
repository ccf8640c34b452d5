"""Reader/writer lock guarding slice state.

StreamMine3G lets multiple threads of the per-host pool process events of
one slice concurrently when the processing is stateless or read-only; a
read/write lock serializes state-mutating events (paper §III).  Matching a
publication takes the lock in R mode, storing a subscription in W mode.

Grants are FIFO-fair: a waiting writer blocks later readers, preventing
writer starvation under continuous publication flow.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from ..sim import Environment, Event

__all__ = ["RWLock"]


class RWLock:
    """FIFO-fair reader/writer lock built on simulation events."""

    def __init__(self, env: Environment):
        self.env = env
        self._readers = 0
        self._writer = False
        #: ``(mode, function, args)`` of :meth:`when_granted`, or
        #: ``(mode, event, None)`` of :meth:`acquire`, in arrival order.
        self._waiting: Deque[Tuple[str, Any, Optional[tuple]]] = deque()

    @property
    def idle(self) -> bool:
        return self._readers == 0 and not self._writer and not self._waiting

    @property
    def contended(self) -> bool:
        """Whether anyone is queued for the lock: a later arrival would
        wait behind them (FIFO) instead of joining the current holders."""
        return bool(self._waiting)

    def try_acquire(self, mode: str) -> bool:
        """Fast path: take the lock immediately if possible (no sim events)."""
        if mode == "R":
            if not self._writer and not self._waiting:
                self._readers += 1
                return True
            return False
        if mode == "W":
            if not self._writer and self._readers == 0 and not self._waiting:
                self._writer = True
                return True
            return False
        raise ValueError(f"unknown lock mode {mode!r}")

    def when_granted(self, mode: str, function: Callable[..., Any], *args: Any) -> None:
        """Slow path: queue for the lock; ``function(*args)`` runs holding
        it, in a step of its own at the instant of the grant."""
        if mode not in ("R", "W"):
            raise ValueError(f"unknown lock mode {mode!r}")
        self._waiting.append((mode, function, args))
        self._grant()

    def acquire(self, mode: str) -> Event:
        """Slow path for processes: an event that fires at the grant."""
        if mode not in ("R", "W"):
            raise ValueError(f"unknown lock mode {mode!r}")
        event = Event(self.env)
        self._waiting.append((mode, event, None))
        self._grant()
        return event

    def release(self, mode: str) -> None:
        if mode == "R":
            if self._readers <= 0:
                raise RuntimeError("release of a reader lock that is not held")
            self._readers -= 1
        elif mode == "W":
            if not self._writer:
                raise RuntimeError("release of a writer lock that is not held")
            self._writer = False
        else:
            raise ValueError(f"unknown lock mode {mode!r}")
        self._grant()

    def _grant(self) -> None:
        while self._waiting:
            mode, target, args = self._waiting[0]
            if mode == "R":
                if self._writer:
                    return
                self._readers += 1
            elif self._writer or self._readers > 0:
                return
            else:
                self._writer = True
            self._waiting.popleft()
            # Either way the holder resumes at the same queue position.
            if args is None:
                target.succeed()
            else:
                self.env.call_soon(target, *args)
            if mode == "W":
                return
