"""CPU scheduling and utilization accounting for simulated hosts.

A host's CPU is modeled as a pool of cores served FIFO.  Each unit of work
is a *task* — a request for one core held for a given amount of
CPU-seconds.  This mirrors the StreamMine3G execution model where each host
runs a thread pool sized to the number of available cores and slices whose
processing is stateless (or read-locked) use several cores in parallel.

Utilization is accounted exactly (not sampled): the scheduler integrates
busy core-time globally and per *tag* (we tag tasks with the slice that
issued them), so probes can report instantaneous windowed utilization both
per host and per slice, as the paper's manager does.
"""

from __future__ import annotations

from typing import Deque, Dict, Generator, Optional

from collections import deque

from ..sim import Environment, Event

__all__ = ["CpuScheduler", "CpuTask", "CpuUsageSnapshot"]


class CpuUsageSnapshot:
    """Cumulative busy core-seconds at a point in simulated time."""

    def __init__(self, time: float, total_busy: float, per_tag: Dict[str, float]):
        self.time = time
        self.total_busy = total_busy
        self.per_tag = per_tag


class CpuTask(Event):
    """One task of a :class:`CpuScheduler`, as the event of its completion.

    Pending while it queues for a core; scheduled ``cpu_seconds`` ahead the
    moment it gets one.  Its first callback is the scheduler's accounting,
    so whoever waits on it — a callback appended to :attr:`callbacks`, or a
    process yielding it — runs after the core has been passed on.  A
    cancelled task has no callbacks left.
    """

    __slots__ = ("cpu_seconds", "tag", "started_at")

    def __init__(self, scheduler: "CpuScheduler", cpu_seconds: float, tag: str):
        super().__init__(scheduler.env)
        self.callbacks.append(scheduler._finish)
        self.cpu_seconds = cpu_seconds
        self.tag = tag
        #: Simulated time the task got its core (``None`` while it waits).
        self.started_at: Optional[float] = None


class CpuScheduler:
    """A pool of ``cores`` with exact busy-time integration.

    Tasks are served FIFO.  :meth:`submit` returns the task's completion
    event; :meth:`run` wraps it for use inside a simulation process.
    """

    def __init__(self, env: Environment, cores: int):
        if cores <= 0:
            raise ValueError(f"cores must be positive, got {cores}")
        self.env = env
        self.cores = cores
        self._in_use = 0
        self._waiting: Deque[CpuTask] = deque()
        # Exact integrals of busy core-seconds.
        self._busy_total = 0.0
        self._busy_per_tag: Dict[str, float] = {}

    @property
    def active_tasks(self) -> int:
        """Number of tasks currently holding a core."""
        return self._in_use

    @property
    def queued_tasks(self) -> int:
        """Number of tasks waiting for a core."""
        return len(self._waiting)

    def submit(self, cpu_seconds: float, tag: str = "") -> CpuTask:
        """Queue a task of ``cpu_seconds`` on one core; returns its event.

        When a core is idle and nobody queues, the task starts at once.
        """
        if cpu_seconds < 0:
            raise ValueError(f"cpu_seconds must be non-negative, got {cpu_seconds}")
        task = CpuTask(self, cpu_seconds, tag)
        if self._in_use < self.cores and not self._waiting:
            self._in_use += 1
            self._start(task)
        else:
            self._waiting.append(task)
        return task

    def cancel(self, task: CpuTask) -> None:
        """Withdraw ``task``; a no-op once it completed or was cancelled.

        A queued task leaves the queue.  A running one gives its core back,
        charged for the time it held it; its completion event stays
        scheduled and fires into nothing.
        """
        if not task.callbacks:
            return
        task.callbacks = []
        if task.started_at is not None:
            self._finish(task)
            return
        try:
            self._waiting.remove(task)
        except ValueError:
            pass  # a core is on its way: _start passes it on instead

    def run(self, cpu_seconds: float, tag: str = "") -> Generator:
        """Process generator: execute a task of ``cpu_seconds`` on one core."""
        task = self.submit(cpu_seconds, tag)
        try:
            yield task
        finally:
            self.cancel(task)  # an interrupted wait; nothing left otherwise

    def _start(self, task: CpuTask) -> None:
        """``task`` has a core (counted in ``_in_use``): start the clock."""
        if not task.callbacks:
            self._release()
            return
        task.started_at = self.env.now
        task._value = None
        self.env.schedule(task, delay=task.cpu_seconds)

    def _finish(self, task: CpuTask) -> None:
        """Charge ``task`` for the time it held its core; pass the core on."""
        held = self.env.now - task.started_at
        self._busy_total += held
        if task.tag:
            self._busy_per_tag[task.tag] = self._busy_per_tag.get(task.tag, 0.0) + held
        self._release()

    def _release(self) -> None:
        # The head waiter starts in a step of its own: work already due at
        # this instant (a worker's next inbox item taking the *other* free
        # core) goes first, as it did when the grant was an event.
        if self._waiting:
            self.env.call_soon(self._start, self._waiting.popleft())
        else:
            self._in_use -= 1

    def busy_core_seconds(self) -> float:
        """Total busy core-seconds accumulated by *completed* holds so far.

        In-flight tasks contribute once they finish; windowed probes use
        windows much longer than individual tasks so the error is negligible
        and, importantly, conservative and unbiased over consecutive windows.
        """
        return self._busy_total

    def snapshot(self) -> CpuUsageSnapshot:
        """Snapshot of cumulative usage, for differential window accounting."""
        return CpuUsageSnapshot(self.env.now, self._busy_total, dict(self._busy_per_tag))

    def utilization_between(
        self, before: CpuUsageSnapshot, after: Optional[CpuUsageSnapshot] = None
    ) -> float:
        """Average CPU utilization (0..1) of the host between two snapshots."""
        after = after or self.snapshot()
        elapsed = after.time - before.time
        if elapsed <= 0:
            return 0.0
        return (after.total_busy - before.total_busy) / (self.cores * elapsed)

    def tag_core_usage_between(
        self, before: CpuUsageSnapshot, after: Optional[CpuUsageSnapshot] = None
    ) -> Dict[str, float]:
        """Average cores used per tag between two snapshots (0..cores each)."""
        after = after or self.snapshot()
        elapsed = after.time - before.time
        if elapsed <= 0:
            return {}
        usage = {}
        for tag, busy in after.per_tag.items():
            delta = busy - before.per_tag.get(tag, 0.0)
            if delta > 0:
                usage[tag] = delta / elapsed
        return usage
