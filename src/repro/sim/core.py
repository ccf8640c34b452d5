"""Core of the discrete-event simulation kernel.

The kernel follows the classic event-loop design (as popularized by SimPy):
an :class:`Environment` owns the simulation clock and a priority queue of
scheduled events.  Processes are Python generators that yield events; when a
yielded event is *triggered* and then *processed* by the event loop, the
generator is resumed with the event's value (or an exception is thrown into
it if the event failed).

The kernel is deterministic: everything scheduled — events and the plain
calls of :meth:`Environment.call_soon` / :meth:`Environment.call_later` —
is dispatched in the total order ``(time, priority, sequence number)``, the
sequence number counting every scheduling call.  Zero-delay work of normal
priority (a triggered event, a hand-over to a waiter) is by far the most
common entry and always sorts behind everything already queued for the
current instant, so it waits in a FIFO beside the heap; each dispatch takes
whichever head comes first in that order.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Generator, List, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "StopSimulation",
    "URGENT",
    "NORMAL",
]

#: Scheduling priority for events that must run before ordinary events
#: scheduled at the same simulated time (e.g. interrupts, resource wakeups).
URGENT = 0

#: Default scheduling priority.
NORMAL = 1


class StopSimulation(Exception):
    """Raised internally to stop the event loop from ``Environment.run``."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


# Sentinel stored in ``Event._value`` while the event is untriggered.
_PENDING = object()


class Event:
    """An event that may happen at some point in simulated time.

    An event goes through up to three states:

    * *pending* — freshly created, not yet triggered;
    * *triggered* — has a value (or an exception) and is scheduled to be
      processed by the event loop;
    * *processed* — its callbacks have run.

    Callbacks are plain callables receiving the event itself.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        #: Set on failed events once a callback (or process) consumed the
        #: exception; unhandled failures crash the simulation.
        self._defused = False

    @property
    def triggered(self) -> bool:
        """Whether the event has a value and is (or was) scheduled."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The value of the event, or the exception of a failed event."""
        if self._value is _PENDING:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def defuse(self) -> "Event":
        """Mark a failed event as handled out of band.

        The event loop crashes the simulation when a failed event is
        processed with no waiter having consumed its exception.  An
        interrupter that deliberately kills a process nobody is waiting
        on (a fault injector crashing a manager, say) defuses the
        process event first so the intended failure is not mistaken for
        an unhandled one.
        """
        self._defused = True
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a ``delay`` of simulated time."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)


class Initialize(Event):
    """Starts a process when processed (scheduled urgently at creation)."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)


class Interrupt(Exception):
    """Thrown into a process when it is interrupted.

    :attr:`cause` carries the value passed to :meth:`Process.interrupt`.
    """

    @property
    def cause(self) -> Any:
        return self.args[0]


class _InterruptEvent(Event):
    """Immediate event that resumes an interrupted process with a throw."""

    __slots__ = ("process",)

    def __init__(self, env: "Environment", process: "Process", cause: Any):
        super().__init__(env)
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.process = process
        self.callbacks.append(process._resume_interrupt)
        env.schedule(self, priority=URGENT)


class Process(Event):
    """A process is a running generator wrapped as an event.

    The process event triggers when the generator returns (value = return
    value) or raises (failure).
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: The event the process is currently waiting for (None if resuming).
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """Whether the underlying generator has not terminated yet."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Interrupt the process, raising :class:`Interrupt` inside it."""
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has terminated; cannot interrupt")
        if self is self.env.active_process:
            raise RuntimeError("a process cannot interrupt itself")
        _InterruptEvent(self.env, self, cause)

    # -- internal ---------------------------------------------------------

    def _resume_interrupt(self, event: Event) -> None:
        if not self.is_alive:
            return
        # Unsubscribe from the event we were waiting on: we resume via the
        # interrupt instead.  The old target may still fire later; the
        # process simply no longer listens.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._resume(event)

    def _resume(self, event: Event) -> None:
        self.env._active_process = self
        while True:
            self._target = None
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                self.env.schedule(self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self.env.schedule(self)
                break

            if not isinstance(next_event, Event):
                self._generator.throw(
                    TypeError(f"process yielded a non-event: {next_event!r}")
                )
                continue
            if next_event.env is not self.env:
                raise RuntimeError("cannot wait for an event from another environment")

            if next_event.callbacks is not None:
                # The event is pending or triggered-but-unprocessed: wait.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break
            # Already processed: resume immediately with its outcome.
            event = next_event
            if not event._ok and not event._defused:
                event._defused = True
        self.env._active_process = None


class Environment:
    """The simulation environment: clock plus event queue.

    Queue entries are ``(time, priority, seq, target, args)``: an event to
    process (``args`` is ``None``) or a plain ``target(*args)`` call.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: Heap of entries with a delay or a priority other than NORMAL.
        self._queue: List[tuple] = []
        #: Zero-delay NORMAL entries in scheduling order.  All carry the
        #: current time: the clock cannot pass an entry that is due.
        self._fifo: Deque[tuple] = deque()
        self._seq = 0
        self._active_process: Optional[Process] = None

    @property
    def now(self) -> float:
        """Current simulated time (seconds by convention in this project)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator)

    # -- scheduling and the event loop --------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Schedule ``event`` to be processed after ``delay`` time units."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq = seq = self._seq + 1
        if delay == 0.0 and priority == NORMAL:
            self._fifo.append((self._now, NORMAL, seq, event, None))
        else:
            heappush(self._queue, (self._now + delay, priority, seq, event, None))

    def call_soon(self, function: Callable[..., Any], *args: Any) -> None:
        """Invoke ``function(*args)`` at this instant, after everything
        already scheduled for it — where ``event.succeed()`` would put an
        event, without the event."""
        self._seq = seq = self._seq + 1
        self._fifo.append((self._now, NORMAL, seq, function, args))

    def call_later(
        self,
        delay: float,
        function: Callable[..., Any],
        *args: Any,
        priority: int = NORMAL,
    ) -> None:
        """Invoke ``function(*args)`` after ``delay`` time units.

        A lightweight alternative to spawning a process: costs a single
        queue entry and no event.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq = seq = self._seq + 1
        if delay == 0.0 and priority == NORMAL:
            self._fifo.append((self._now, NORMAL, seq, function, args))
        else:
            heappush(self._queue, (self._now + delay, priority, seq, function, args))

    def peek(self) -> float:
        """Time of the next scheduled entry, or ``inf`` if none."""
        if self._fifo:
            return self._fifo[0][0]
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Dispatch the next scheduled entry.

        Raises :class:`IndexError` ("empty schedule") if none is left.
        """
        fifo, queue = self._fifo, self._queue
        if fifo and not (queue and queue[0] < fifo[0]):
            _, _, _, target, args = fifo.popleft()
        elif queue:
            self._now, _, _, target, args = heappop(queue)
        else:
            raise IndexError("empty schedule")
        if args is not None:
            target(*args)
            return

        callbacks, target.callbacks = target.callbacks, None
        for callback in callbacks:
            callback(target)

        if not target._ok and not target._defused:
            # An unhandled failure crashes the whole simulation, loudly.
            raise target._value

    def run(self, until: Any = None) -> Any:
        """Run the event loop.

        ``until`` may be ``None`` (run until no events are left), a number
        (run until that simulated time), or an :class:`Event` (run until it
        is processed; its value is returned).
        """
        at: Optional[float] = None
        stop_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if stop_event.callbacks is None:
                    return stop_event._value
                stop_event.callbacks.append(self._stop)
            else:
                at = float(until)
                if at <= self._now:
                    raise ValueError(f"until={at} must lie in the future (now={self._now})")

        fifo, queue = self._fifo, self._queue
        try:
            while fifo or queue:
                # FIFO entries are due now; only the heap can reach ``at``.
                if at is not None and not fifo and queue[0][0] >= at:
                    self._now = at
                    break
                self.step()
        except StopSimulation as stop:
            return stop.value

        if stop_event is not None and not stop_event.triggered:
            raise RuntimeError("no more events scheduled but the until-event never fired")
        if at is not None and not (fifo or queue):
            # Ran out of events before reaching the deadline: advance clock.
            self._now = max(self._now, at)
        return None

    def _stop(self, event: Event) -> None:
        raise StopSimulation(event._value)
