"""A deployed instance of a logical operator slice on a host.

A *logical* slice (e.g. ``M:3``) exists exactly once in the system; during
a migration it is temporarily backed by two *instances*: the active one on
the origin host and a buffering one on the destination host receiving
duplicated events (paper §IV-A, Figure 3).

Each active instance has ``parallelism`` workers pulling from a shared
FIFO inbox — the thread pool sized to the host's cores that gives
StreamMine3G its vertical scalability.  A worker takes the slice RW lock in
the mode requested by the handler, charges the handler's CPU cost on the
host's cores, then runs the handler.

A worker is not a process but a chain of plain calls (``_take`` →
``_under_lock`` → ``_finish`` → the next event), resumed by the kernel
wherever it has to wait: for its first event, for the lock, for a core.
Each of those hand-overs is a zero-delay step of its own, never a direct
call, because work already due at that instant must go first — the order
every recorded sim-clock value depends on (DESIGN.md §2).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING

from ..cluster import CpuTask, Host
from ..sim import URGENT, Environment, Event
from .event import StreamEvent
from .handler import SliceContext, SliceHandler
from .locks import RWLock

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import EngineRuntime

__all__ = ["SliceInstance"]


class SliceInstance:
    """One instance of a logical slice, bound to a host.

    ``parallelism`` workers share the inbox; an idle worker is a count, a
    busy one the chain of calls described in the module docstring.
    """

    def __init__(
        self,
        runtime: "EngineRuntime",
        logical_id: str,
        handler: SliceHandler,
        host: Host,
        parallelism: int,
        buffering: bool = False,
    ):
        if parallelism <= 0:
            raise ValueError("parallelism must be positive")
        self.runtime = runtime
        self.env: Environment = runtime.env
        self.logical_id = logical_id
        self.handler = handler
        self.host = host
        self.parallelism = parallelism
        #: Delivered events no worker has taken yet.
        self.inbox: Deque[StreamEvent] = deque()
        self.lock = RWLock(self.env)
        #: Per-source highest processed sequence number (the timestamp
        #: vector copied with the state during migration).
        self.last_processed: Dict[str, int] = {}
        #: Per-source last received sequence number (original deliveries).
        self.last_received: Dict[str, int] = {}
        #: Per-source first original sequence number this instance received;
        #: originals arrive contiguously per channel (FIFO), so a replayed
        #: event is a duplicate exactly when it falls in
        #: [first_original, last_received].
        self._first_original: Dict[str, int] = {}
        #: Frozen vector installed at activation after a migration: events
        #: at or below it were already processed by the origin instance and
        #: must be dropped.  Never-migrated instances drop nothing.
        self._dedup_vector: Dict[str, int] = {}
        self.processed_count = 0
        self.dropped_duplicates = 0
        self.dropped_replays = 0
        #: High-water inbox depth.
        self.peak_queue_length = 0
        #: True while the instance is reprocessing replayed events after a
        #: crash recovery; its emissions are flagged for receiver-side
        #: deduplication during this window.
        self.recovering = False
        self._busy = 0
        self._halted = False
        #: Events dequeued-and-dropped while halted, in dequeue order.
        #: Normally garbage (the migration destination also received
        #: them); an aborted migration splices them back via resume().
        self._halt_dropped: List[StreamEvent] = []
        self._destroyed = False
        self._buffering = buffering
        self._operator = logical_id.split(":", 1)[0]
        #: This operator's counter children of the bound telemetry bundle,
        #: ``[bundle, processed, batches, coalesced]``; each child is
        #: resolved once, when first incremented.
        self._counters: Optional[list] = None
        info = runtime.operators.get(self._operator)
        self._replay_dedup = info.replay_dedup if info is not None else True
        #: Workers waiting for a delivery (all others hold an event).
        self._idle = 0
        #: Batches on a core or queued for one: task → (batch, lock mode).
        self._running: Dict[CpuTask, Tuple[List[StreamEvent], str]] = {}
        self._ctx = SliceContext(runtime, logical_id, self)
        #: (cutoffs, event) pairs resolved as events are processed.
        self._progress_watchers: List[Tuple[Dict[str, int], Event]] = []
        self._quiescence_watchers: List[Event] = []
        if not buffering:
            self._start_workers()

    # -- delivery -------------------------------------------------------------

    def deliver(self, event: StreamEvent) -> None:
        """Entry point for the transport layer."""
        if self._destroyed:
            return
        source = event.source
        seq = event.seq
        if event.replayed and self._replay_dedup:
            first = self._first_original.get(source)
            if first is not None and first <= seq <= self.last_received.get(source, -1):
                # Already received as an original delivery: a duplicate.
                self.dropped_replays += 1
                return
        else:
            last_received = self.last_received
            previous = last_received.get(source)
            if previous is None:
                # Both maps gain a source together, at its first original.
                self._first_original[source] = seq
                last_received[source] = seq
            elif seq > previous:
                last_received[source] = seq
        if self._idle:
            # Wake a worker by a step of its own: it coalesces whatever
            # else has arrived at this instant by the time that step runs.
            self._idle -= 1
            self.env.call_soon(self._take, event)
            return
        inbox = self.inbox
        inbox.append(event)
        if len(inbox) > self.peak_queue_length:
            self.peak_queue_length = len(inbox)

    @property
    def queue_length(self) -> int:
        return len(self.inbox)

    @property
    def is_buffering(self) -> bool:
        return self._buffering

    # -- lifecycle -------------------------------------------------------------

    def activate(self, vector: Dict[str, int]) -> None:
        """Turn a buffering instance live, resuming after ``vector``.

        Buffered (and future) events with sequence numbers at or below the
        vector entry of their source were already processed by the origin
        instance before the state was copied; workers drop them.
        """
        if not self._buffering:
            raise RuntimeError(f"{self.logical_id}: instance is already active")
        self._buffering = False
        self.last_processed = dict(vector)
        self._dedup_vector = dict(vector)
        self._start_workers()

    def halt(self) -> Event:
        """Stop processing; the returned event fires at quiescence.

        Events queued or arriving after the halt are dropped — the halt is
        only ever requested once duplication guarantees every such event is
        also delivered to the destination instance.
        """
        self._halted = True
        event = Event(self.env)
        self._quiescence_watchers.append(event)
        self._check_quiescence()
        return event

    def resume(self) -> None:
        """Reverse a :meth:`halt` — an aborted migration re-activates the
        origin instance.

        Events the halted workers dequeued-and-dropped are spliced back at
        the inbox front (they were dequeued before anything still queued,
        so per-channel FIFO order is preserved), pending quiescence
        watchers are discarded, and workers parked on an empty inbox wake
        up.
        """
        if self._destroyed:
            raise RuntimeError(f"{self.logical_id}: cannot resume a destroyed instance")
        self._halted = False
        if self._halt_dropped:
            self.inbox.extendleft(reversed(self._halt_dropped))
            self._halt_dropped = []
        self._quiescence_watchers = []
        while self._idle and self.inbox:
            self._idle -= 1
            self.env.call_soon(self._take, self.inbox.popleft())

    def destroy(self) -> None:
        """Tear the instance down; delivered events are dropped.

        Batches in flight are abandoned: their tasks leave the host's CPU
        (charged for the core time they held) and their locks are released.
        """
        self._destroyed = True
        self._halted = True
        self._halt_dropped = []
        for task, (_batch, mode) in self._running.items():
            self.host.cpu.cancel(task)
            self.lock.release(mode)
            self._busy -= 1
        self._running.clear()
        self.handler.detach()
        # Release inbound channels (and their queued messages) with the
        # instance; channels keyed by this slice's logical id as *source*
        # survive for the successor instance.
        self.runtime.transport.release_instance(self)

    # -- migration support -------------------------------------------------------

    def wait_until_processed(self, cutoffs: Dict[str, int]) -> Event:
        """Event firing once ``last_processed[src] >= cutoffs[src]`` for all."""
        event = Event(self.env)
        if self._satisfies(cutoffs):
            event.succeed()
        else:
            self._progress_watchers.append((cutoffs, event))
        return event

    def _satisfies(self, cutoffs: Dict[str, int]) -> bool:
        return all(
            self.last_processed.get(source, -1) >= cutoff
            for source, cutoff in cutoffs.items()
            if cutoff >= 0
        )

    def _check_progress(self) -> None:
        remaining = []
        for cutoffs, event in self._progress_watchers:
            if self._satisfies(cutoffs):
                event.succeed()
            else:
                remaining.append((cutoffs, event))
        self._progress_watchers = remaining

    def _check_quiescence(self) -> None:
        if self._halted and self._busy == 0 and self._quiescence_watchers:
            watchers, self._quiescence_watchers = self._quiescence_watchers, []
            for event in watchers:
                event.succeed()

    def upcoming(self) -> Iterator[StreamEvent]:
        """Events in hand, in the order the handler is expected to need
        them, for :meth:`SliceContext.upcoming`.

        First the batches on a core or queued for one, soonest due first
        (a started task's completion time; for a queued one, as if it got
        its core now).  Each holds the slice lock already, so whoever asks
        from inside a handler call shares its lock mode with all of them,
        and a FIFO-fair lock lets no writer in before they finish.  Then,
        unless someone is queued for the lock (the inbox goes behind them)
        or the instance is halted or replaying (the inbox is dropped, or
        takes the exclusive path), the inbox in order, without the stale
        duplicates a worker would drop.  An event delivered to an idle
        worker is in neither place until that worker's step runs, so what
        a handler derives from the inbox part it must guard (DESIGN.md §7).
        """
        now = self.env.now

        def due(entry) -> float:
            task = entry[0]
            started = task.started_at
            return (now if started is None else started) + task.cpu_seconds

        for _task, (batch, _mode) in sorted(self._running.items(), key=due):
            yield from batch
        if self._halted or self.recovering or self.lock.contended:
            return
        vector = self._dedup_vector
        for event in self.inbox:
            if vector and event.seq <= vector.get(event.source, -1):
                continue
            yield event

    # -- processing -----------------------------------------------------------

    def _drain_batch(self, head: StreamEvent) -> List[StreamEvent]:
        """Coalesce queued events behind ``head`` if the handler opts in.

        Draining happens under the head's lock, taking only *consecutive*
        inbox events the handler accepts (same lock mode by contract), so
        FIFO order and the per-event cost/sequence accounting are
        preserved; the sum of the batch's costs is charged in one CPU run.
        Disabled during crash recovery, where replayed events must be
        reprocessed one-by-one to realign emission sequence numbers.
        """
        batch = [head]
        if self.recovering:
            return batch
        handler = self.handler
        limit = handler.coalesce_limit(head)
        if limit <= 1:
            return batch
        items = self.inbox
        vector = self._dedup_vector
        coalesce_with = handler.coalesce_with
        while len(batch) < limit and items:
            candidate = items[0]
            if vector and candidate.seq <= vector.get(candidate.source, -1):
                # A worker would drop it on dequeue; drop it here so
                # a stale duplicate does not split an otherwise contiguous
                # run of coalescible events.
                items.popleft()
                self.dropped_duplicates += 1
                continue
            if not coalesce_with(head, candidate):
                break
            items.popleft()
            batch.append(candidate)
        return batch

    def _record_telemetry(self, telemetry, batch: List[StreamEvent]) -> None:
        """Record a processed batch: counters plus one hop span per event.

        A hop span measures ``[event.sent_at, now]`` — emission at the
        upstream slice to completed processing here — so queueing, network
        and CPU time all land in the per-operator latency breakdown.
        Events whose payload carries a ``pub_id`` (publications, match
        lists, notifications) are correlated into one publication's
        AP → M → EP → SINK trace.  Called only when a bundle is bound;
        pure recording, never scheduling.
        """
        counters = self._counters
        if counters is None or counters[0] is not telemetry:
            counters = self._counters = [
                telemetry,
                telemetry.events_processed.labels(operator=self._operator),
                None,
                None,
            ]
        counters[1].inc(len(batch))
        if len(batch) > 1:
            if counters[2] is None:
                counters[2] = telemetry.batches_coalesced.labels(
                    operator=self._operator
                )
                counters[3] = telemetry.events_coalesced.labels(
                    operator=self._operator
                )
            counters[2].inc()
            counters[3].inc(len(batch))
        tracer = telemetry.tracer
        name = "hop." + self._operator
        now = self.env.now
        for event in batch:
            attrs = {
                "slice": self.logical_id,
                "kind": event.kind,
                "source": event.source,
            }
            pub_id = getattr(event.payload, "pub_id", None)
            if pub_id is not None:
                attrs["pub_id"] = pub_id
            tracer.add_span(name, event.sent_at, now, **attrs)

    def _start_workers(self) -> None:
        # The workers come up in an URGENT step of their own, as the
        # processes they replace did: activate()'s caller switches
        # ``logical.active`` only after it returns, so a handler run from
        # inside it would emit from the origin's host.
        self.env.call_later(0.0, self._workers_up, priority=URGENT)

    def _workers_up(self) -> None:
        for _ in range(self.parallelism):
            self._take(self._next())

    def _next(self) -> Optional[StreamEvent]:
        """A free worker's next queued event; ``None`` leaves it idle."""
        if self.inbox:
            return self.inbox.popleft()
        self._idle += 1
        return None

    def _take(self, event: Optional[StreamEvent]) -> None:
        """Run one worker from ``event`` on, until it has to wait (for the
        lock, for a core) or goes idle (``event`` is ``None``)."""
        while event is not None:
            if self._halted:
                if self._destroyed:
                    return
                # Safe drop: duplicated to the new instance.  Kept
                # reversible: an aborted migration re-splices these in
                # order (see resume()).
                self._halt_dropped.append(event)
                event = self._next()
            elif (
                self._dedup_vector
                and event.seq <= self._dedup_vector.get(event.source, -1)
            ):
                self.dropped_duplicates += 1
                event = self._next()
            else:
                self._busy += 1
                # Replay after a crash is processed exclusively: re-emission
                # sequence numbers realign with the originals only if inputs
                # are reprocessed in order (see recovery.py).
                mode = "W" if self.recovering else self.handler.lock_mode(event)
                if not self.lock.try_acquire(mode):
                    self.lock.when_granted(mode, self._granted, event, mode)
                    return
                event = self._under_lock(event, mode)

    def _granted(self, event: StreamEvent, mode: str) -> None:
        """The lock a worker queued for is now its own."""
        if self._destroyed:
            self.lock.release(mode)
            self._busy -= 1
            return
        self._take(self._under_lock(event, mode))

    def _under_lock(self, event: StreamEvent, mode: str) -> Optional[StreamEvent]:
        """Form the batch headed by ``event`` and put its cost on a core.

        Returns the worker's next event when the batch cost nothing and is
        already done, ``None`` when the worker now waits for the CPU.
        """
        batch = self._drain_batch(event)
        handler = self.handler
        # Deliberate leftover (see SliceHandler.prepare_batch): no handler
        # does anything here; the call goes with the hook.
        handler.prepare_batch(batch, self._ctx)
        cost = sum(map(handler.cost, batch))
        if cost > 0.0:
            task = self.host.cpu.submit(cost, self.logical_id)
            task.callbacks.append(self._completed)
            self._running[task] = (batch, mode)
            return None
        return self._finish(batch, mode)

    def _completed(self, task: CpuTask) -> None:
        event = self._finish(*self._running.pop(task))
        if event is not None:
            self._take(event)

    def _finish(self, batch: List[StreamEvent], mode: str) -> Optional[StreamEvent]:
        """Run the handler on a paid-for batch; returns the worker's next event."""
        if len(batch) == 1:
            self.handler.process(batch[0], self._ctx)
        else:
            self.handler.process_batch(batch, self._ctx)
        self.lock.release(mode)
        last_processed = self.last_processed
        get = last_processed.get
        for processed in batch:
            seq = processed.seq
            if seq > get(processed.source, -1):
                last_processed[processed.source] = seq
        self.processed_count += len(batch)
        telemetry = self.runtime.telemetry
        if telemetry is not None:
            self._record_telemetry(telemetry, batch)
        self._busy -= 1
        if self._progress_watchers:
            self._check_progress()
        if self._halted:
            self._check_quiescence()
        return self._next()
