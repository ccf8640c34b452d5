"""Application surface of an operator slice.

All slices of an operator run the same :class:`SliceHandler` code (paper
§III); the handler receives events, may mutate its private slice state and
emits events downstream through the :class:`SliceContext`.  A handler has
no access to the state of other slices, even of the same operator.

The handler additionally exposes:

* ``cost(event)`` — the CPU seconds the engine charges on the hosting
  host's cores before the event is processed (the calibrated service
  demand, e.g. matching cost proportional to stored subscriptions);
* ``lock_mode(event)`` — "R" or "W", deciding whether the event may be
  processed concurrently with others on the slice;
* state export/import — the explicit state management that makes slice
  migration application-agnostic (paper §IV).
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from typing import Any, Iterator, TYPE_CHECKING

from .event import StreamEvent

if TYPE_CHECKING:  # pragma: no cover
    from .instance import SliceInstance
    from .runtime import EngineRuntime

__all__ = ["SliceHandler", "SliceContext", "BROADCAST"]

#: Routing key requesting delivery to every slice of the target operator.
BROADCAST = object()


class SliceContext:
    """Handed to ``SliceHandler.process``; emits events downstream."""

    def __init__(
        self, runtime: "EngineRuntime", slice_id: str, instance: "SliceInstance"
    ):
        self._runtime = runtime
        self.slice_id = slice_id
        # Weak: the instance owns this context, and a cycle would keep a
        # destroyed instance — and the state of its handler — alive until
        # the cycle collector runs (7 MB of migrated-away M state at
        # elastic_surge's peak).
        self._instance = weakref.ref(instance)

    @property
    def now(self) -> float:
        return self._runtime.env.now

    @property
    def telemetry(self):
        """The runtime's bound :class:`repro.telemetry.Telemetry`, or ``None``."""
        return self._runtime.telemetry

    def emit(self, operator: str, kind: str, payload: Any, size_bytes: int, key: int) -> None:
        """Send to the slice ``key mod n`` of ``operator`` (modulo hashing)."""
        self._runtime.route(self.slice_id, operator, kind, payload, size_bytes, key)

    def emit_broadcast(self, operator: str, kind: str, payload: Any, size_bytes: int) -> None:
        """Send a copy to every slice of ``operator``."""
        self._runtime.route(self.slice_id, operator, kind, payload, size_bytes, BROADCAST)

    def emit_batch(self, emissions) -> None:
        """Send many emissions at once, micro-batched per destination slice.

        ``emissions`` is a sequence of ``(operator, kind, payload,
        size_bytes, key)`` tuples (``key`` may be :data:`BROADCAST`).
        Equivalent to calling :meth:`emit` per tuple, but all events bound
        for the same destination slice share one network transfer.
        """
        self._runtime.route_batch(self.slice_id, emissions)

    def upcoming(self) -> Iterator[StreamEvent]:
        """The events this slice has in hand, in the order it will process
        them — a read-only view for handlers that do *real* work ahead of
        the simulated clock (see :meth:`SliceInstance.upcoming`).  Nothing
        is scheduled, dequeued or charged by looking."""
        return self._instance().upcoming()


class SliceHandler(ABC):
    """Per-slice application logic.  Subclasses own the slice state."""

    @abstractmethod
    def process(self, event: StreamEvent, ctx: SliceContext) -> None:
        """Handle one event, possibly emitting downstream via ``ctx``."""

    def cost(self, event: StreamEvent) -> float:
        """CPU seconds charged for processing ``event`` (default: free)."""
        return 0.0

    def lock_mode(self, event: StreamEvent) -> str:
        """Lock taken while processing: "R" (concurrent) or "W" (exclusive)."""
        return "R"

    # -- event coalescing (opt-in batching) -----------------------------------

    def coalesce_limit(self, event: StreamEvent) -> int:
        """Max events to coalesce into one batch headed by ``event``.

        Returning 1 (the default) disables batching for this event.  When
        greater, the engine drains consecutively queued events accepted by
        :meth:`coalesce_with` and hands them to :meth:`process_batch` under
        one lock acquisition, charging the *sum* of the per-event
        :meth:`cost` — total CPU accounting is unchanged, only the call
        count shrinks.
        """
        return 1

    def coalesce_with(self, head: StreamEvent, candidate: StreamEvent) -> bool:
        """May ``candidate`` join a batch headed by ``head``?

        Only called when ``coalesce_limit(head) > 1``.  Implementations
        must accept only events with the same :meth:`lock_mode` as the
        head (the whole batch runs under the head's lock).
        """
        return False

    def process_batch(self, events, ctx: "SliceContext") -> None:
        """Handle a coalesced batch (default: process events in order)."""
        for event in events:
            self.process(event, ctx)

    # -- lifecycle hooks ------------------------------------------------------

    def prepare_batch(self, events, ctx: "SliceContext") -> None:
        """Called at dequeue time, before the batch's CPU cost is charged.

        No handler uses it.  Deliberate leftover: the out-of-bounds
        ``perfbench/layers.py`` wraps ``MatcherHandler.prepare_batch``, so
        the hook and its call in ``engine/instance.py`` stay until the PR
        with ``perfbench/**`` in bounds (ROADMAP item 0).  Implementations
        must not schedule simulation events or mutate simulation-visible
        state.  Default: no-op.
        """

    def detach(self) -> None:
        """Called when the hosting slice instance is destroyed.

        Migration and crash recovery tear down the old instance and build
        a fresh handler from the operator's factory; this hook lets the
        outgoing handler drop what it holds for the dead slice (results
        matched ahead of the simulated clock).  Default: no-op.
        """

    # -- explicit state management (migration support) -----------------------

    def export_state(self) -> Any:
        """Serializable snapshot of the slice state (None if stateless)."""
        return None

    def import_state(self, state: Any) -> None:
        """Install a snapshot produced by :meth:`export_state`."""
        if state is not None:
            raise NotImplementedError(
                f"{type(self).__name__} received state but does not implement "
                "import_state"
            )

    def state_size_bytes(self) -> int:
        """Serialized size of the state; drives migration transfer time."""
        return 0
