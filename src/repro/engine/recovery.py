"""Passive replication: periodic checkpoints and crash recovery.

The :class:`ReliabilityCoordinator` implements the passive scheme the
paper's runtime supports (§III, StreamMine3G ref [26]):

* every managed slice is checkpointed periodically (state + timestamp
  vector + outgoing sequence counters) into a :class:`CheckpointStore`;
* upstream retention buffers (``EngineRuntime.enable_retention``) keep the
  events each channel sent since the receiver's last checkpoint;
* when a host crash is detected, each slice that lived on it is recreated
  on a replacement host from its last checkpoint, and the retained suffix
  of every inbound channel is replayed to it.

Exactly-once processing is restored end to end: replayed inputs the crash
victim had already processed are filtered by the checkpoint vector;
re-emissions the downstream had already received carry their original
sequence numbers (regenerated from the checkpointed counters) and a
``replayed`` flag, and are dropped by receive-side deduplication.

Determinism caveat: with multiple upstream channels, sequence-number
realignment of re-emissions additionally requires a deterministic
channel merge order, which this engine does not enforce — see DESIGN.md
§11 for the full statement of what is and is not guaranteed.

The :class:`DeadLetterQueue` supports the chaos scenarios (see
RESILIENCE.md): it parks events whose destination slice is unrecoverable
instead of losing them silently.  A network partition needs no replay:
the transport's per-channel circuit breaker holds a partitioned link's
queue and flushes it on heal.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional

from ..cluster import Host
from .checkpoint import STABLE_STORAGE, Checkpoint, CheckpointStore
from .runtime import EngineRuntime

__all__ = ["DeadLetterQueue", "ReliabilityCoordinator", "RecoveryReport"]

#: Replacement-host name in a RecoveryReport for a dead-lettered slice.
UNRECOVERABLE = "<unrecoverable>"


@dataclasses.dataclass(frozen=True)
class DeadLetterEntry:
    """One batch of events parked because their destination is gone."""

    slice_id: str
    reason: str
    time: float
    events: tuple


class DeadLetterQueue:
    """Terminal parking lot for events with an unrecoverable destination.

    When a destination slice cannot be recovered (no replacement host,
    or the logical slice was torn down), routing an event to it would
    either crash the run or lose the event silently.  The dead-letter
    queue makes the loss explicit and auditable instead: events are
    parked per destination slice with a reason, counted in
    ``dead_letter_events_total``, and can be drained later if the slice
    ever comes back (an operator decision, not automatic).
    """

    def __init__(self, env, telemetry=None):
        self.env = env
        self.telemetry = telemetry
        self._entries: Dict[str, List[DeadLetterEntry]] = {}
        #: Total events parked, across all slices and reasons.
        self.total = 0

    def push(self, slice_id: str, events, reason: str) -> None:
        """Park ``events`` destined for ``slice_id``."""
        events = tuple(events)
        if not events:
            return
        entry = DeadLetterEntry(
            slice_id=slice_id, reason=reason, time=self.env.now, events=events
        )
        self._entries.setdefault(slice_id, []).append(entry)
        self.total += len(events)
        tel = self.telemetry
        if tel is not None:
            tel.dead_letter_events.inc(len(events))
            tel.tracer.event(
                "recovery.dead_letter",
                slice=slice_id,
                reason=reason,
                events=len(events),
            )

    def entries(self, slice_id: Optional[str] = None) -> List[DeadLetterEntry]:
        if slice_id is not None:
            return list(self._entries.get(slice_id, ()))
        return [e for batch in self._entries.values() for e in batch]

    def drain(self, slice_id: str) -> List[DeadLetterEntry]:
        """Remove and return every parked entry for ``slice_id``."""
        return self._entries.pop(slice_id, [])

    def slices(self) -> List[str]:
        return sorted(self._entries)

    def __len__(self) -> int:
        return self.total


@dataclasses.dataclass(frozen=True)
class RecoveryReport:
    """Outcome of recovering one slice after a crash."""

    slice_id: str
    replacement_host: str
    restored_epoch: Optional[int]
    replayed_events: int
    started_at: float
    completed_at: float
    #: Events parked in the dead-letter queue because no replacement
    #: host could be found (``replacement_host == UNRECOVERABLE``).
    dead_lettered: int = 0

    @property
    def duration_s(self) -> float:
        return self.completed_at - self.started_at


class ReliabilityCoordinator:
    """Checkpoints slices and recovers them after host crashes."""

    def __init__(
        self,
        runtime: EngineRuntime,
        store: Optional[CheckpointStore] = None,
        interval_s: float = 10.0,
        replacement_host_fn: Optional[Callable[[], Host]] = None,
    ):
        if interval_s <= 0:
            raise ValueError("checkpoint interval must be positive")
        self.runtime = runtime
        self.env = runtime.env
        self.store = store or CheckpointStore()
        self.interval_s = interval_s
        self.replacement_host_fn = replacement_host_fn
        self._epochs: Dict[str, int] = {}
        self._managed: List[str] = []
        self._started = False
        self.recovery_reports: List[RecoveryReport] = []
        #: Slice ids whose recovery was abandoned to the dead-letter
        #: queue (no replacement host).
        self.unrecoverable: List[str] = []
        runtime.enable_retention()

    @property
    def _tracer(self):
        telemetry = self.runtime.telemetry
        return telemetry.tracer if telemetry is not None else None

    # -- checkpointing ---------------------------------------------------------

    def start(self, slice_ids: List[str]) -> None:
        """Begin periodic checkpointing of ``slice_ids`` (staggered)."""
        if self._started:
            raise RuntimeError("coordinator already started")
        if not slice_ids:
            raise ValueError("need at least one slice to manage")
        self._started = True
        self._managed = list(slice_ids)
        for index, slice_id in enumerate(self._managed):
            offset = self.interval_s * index / len(self._managed)
            self.env.process(self._checkpoint_loop(slice_id, offset))

    def checkpoint_now(self, slice_id: str):
        """Checkpoint one slice; returns the coordinating process."""
        return self.env.process(self._checkpoint(slice_id))

    def _checkpoint_loop(self, slice_id: str, offset: float):
        yield self.env.timeout(offset)
        while True:
            logical = self.runtime.slices.get(slice_id)
            if logical is not None and logical.active is not None:
                instance = logical.active
                if not instance.is_buffering and not instance.host.released:
                    yield from self._checkpoint(slice_id)
            yield self.env.timeout(self.interval_s)

    def _checkpoint(self, slice_id: str):
        logical = self.runtime.slices[slice_id]
        instance = logical.active
        if instance is None:
            raise RuntimeError(f"slice {slice_id} is not deployed")
        # Atomic capture under the slice's write lock.
        if not instance.lock.try_acquire("W"):
            yield instance.lock.acquire("W")
        try:
            state = instance.handler.export_state()
            vector = dict(instance.last_processed)
            counters = self.runtime.seq_counters_from(slice_id)
            state_bytes = instance.handler.state_size_bytes()
        finally:
            instance.lock.release("W")

        # Serialize on the origin CPU, ship to stable storage.
        costs = self.runtime.migration_costs
        serialize_cpu = state_bytes * costs.serialize_s_per_byte
        if serialize_cpu > 0:
            yield from instance.host.cpu.run(serialize_cpu, tag=slice_id)
        if state_bytes > 0:
            yield self.runtime.network.ship(
                instance.host.host_id, STABLE_STORAGE, state_bytes
            )

        epoch = self._epochs.get(slice_id, 0) + 1
        self._epochs[slice_id] = epoch
        checkpoint = Checkpoint(
            slice_id=slice_id,
            epoch=epoch,
            captured_at=self.env.now,
            state=state,
            vector=vector,
            seq_counters=counters,
            state_bytes=state_bytes,
        )
        self.store.put(checkpoint)
        # The sender side no longer needs events covered by this vector.
        if self.runtime.retention is not None:
            self.runtime.retention.prune_for_destination(slice_id, vector)
        return checkpoint

    # -- crash recovery ------------------------------------------------------------

    def handle_host_crash(self, host: Host):
        """Recover every slice that was running on ``host``.

        Returns the coordinating process (value: list of RecoveryReports).
        """
        return self.env.process(self._recover_host(host))

    def _recover_host(self, host: Host):
        victims = [
            slice_id
            for slice_id, logical in self.runtime.slices.items()
            if logical.active is not None and logical.active.host is host
        ]
        tracer = self._tracer
        span = None
        if tracer is not None:
            span = tracer.start_span(
                "recovery.host", host=host.host_id, slices=len(victims)
            )
        reports = []
        for slice_id in victims:
            self.runtime.slices[slice_id].active.destroy()
        for slice_id in victims:
            report = yield from self._recover_slice(slice_id, parent=span)
            reports.append(report)
        if span is not None:
            tracer.finish_span(
                span,
                recovered=sum(
                    1 for r in reports if r.replacement_host != UNRECOVERABLE
                ),
                dead_lettered=sum(r.dead_lettered for r in reports),
            )
        return reports

    def _replacement_host(self) -> Optional[Host]:
        if self.replacement_host_fn is None:
            return None
        try:
            return self.replacement_host_fn()
        except Exception:
            return None

    def _abandon_slice(self, slice_id: str, started_at: float, parent=None):
        """No replacement host: dead-letter the retained suffix.

        The slice's logical id stays routable (``active = None``), so
        the runtime dead-letters every *future* event toward it too; the
        retained suffix — everything the victim had not durably
        processed per its last checkpoint — is parked with it.
        """
        logical = self.runtime.slices[slice_id]
        logical.active = None
        checkpoint = self.store.get(slice_id)
        vector = dict(checkpoint.vector) if checkpoint is not None else {}
        parked = 0
        dead_letters = self.runtime.dead_letters
        retention = self.runtime.retention
        if dead_letters is not None and retention is not None:
            for source, buffer in retention.channels_to(slice_id):
                events = buffer.suffix_after(vector.get(source, -1))
                if events:
                    dead_letters.push(slice_id, events, "unrecoverable")
                    parked += len(events)
        self.unrecoverable.append(slice_id)
        tracer = self._tracer
        if tracer is not None:
            tracer.event(
                "recovery.unrecoverable",
                parent=parent,
                slice=slice_id,
                dead_lettered=parked,
            )
        report = RecoveryReport(
            slice_id=slice_id,
            replacement_host=UNRECOVERABLE,
            restored_epoch=checkpoint.epoch if checkpoint else None,
            replayed_events=0,
            started_at=started_at,
            completed_at=self.env.now,
            dead_lettered=parked,
        )
        self.recovery_reports.append(report)
        return report

    def _recover_slice(self, slice_id: str, parent=None):
        started_at = self.env.now
        replacement = self._replacement_host()
        if replacement is None:
            if self.runtime.dead_letters is None:
                raise RuntimeError("no replacement_host_fn configured")
            return self._abandon_slice(slice_id, started_at, parent=parent)
        network = self.runtime.network
        checkpoint = self.store.get(slice_id)
        tracer = self._tracer
        span = None
        if tracer is not None:
            span = tracer.start_span(
                "recovery.slice",
                parent=parent,
                slice=slice_id,
                replacement=replacement.host_id,
            )

        instance = self.runtime.buffering_twin(slice_id, replacement)
        # New original events start flowing here.
        self.runtime.slices[slice_id].active = instance

        vector: Dict[str, int] = {}
        if checkpoint is not None:
            # Fetch the state from stable storage (even an empty one: the
            # round trip is still paid) and install it.
            yield network.ship(
                STABLE_STORAGE, replacement.host_id, checkpoint.state_bytes
            )
            costs = self.runtime.migration_costs
            deserialize_cpu = checkpoint.state_bytes * costs.deserialize_s_per_byte
            if deserialize_cpu > 0:
                yield from replacement.cpu.run(deserialize_cpu, tag=slice_id)
            instance.handler.import_state(checkpoint.state)
            vector = dict(checkpoint.vector)
            self.runtime.restore_seq_counters(slice_id, checkpoint.seq_counters)

        # Replay the retained suffix of every inbound channel.  Replayed
        # events must be processed *before* any original events that were
        # buffered while the replacement was being set up: re-emissions
        # regenerate their original sequence numbers only if inputs are
        # reprocessed in their original per-source order.  The replay is
        # therefore spliced at the *front* of the inbox, and buffered
        # originals it covers (same source and sequence range — retention
        # recorded them too) are dropped as duplicates.
        replay_cutoffs: Dict[str, int] = {}
        replay_events = []
        replay_bytes_by_source: Dict[str, int] = {}
        retention = self.runtime.retention
        if retention is not None:
            for source, buffer in retention.channels_to(slice_id):
                events = buffer.suffix_after(vector.get(source, -1))
                if not events:
                    continue
                replay_cutoffs[source] = events[-1].seq
                replay_bytes_by_source[source] = sum(e.size_bytes for e in events)
                replay_events.extend(
                    event._replace(replayed=True) for event in events
                )

        # Charge the replay transfers (one bulk send per channel).
        transfers = [
            network.ship(
                self.runtime._source_host_id(source), replacement.host_id, size
            )
            for source, size in replay_bytes_by_source.items()
        ]
        for done in transfers:
            yield done

        surviving = [
            event
            for event in instance.inbox
            if event.seq > replay_cutoffs.get(event.source, -1)
        ]
        instance.inbox.clear()
        instance.inbox.extend(replay_events + surviving)

        instance.recovering = True
        instance.activate(vector)
        if replay_cutoffs:
            yield instance.wait_until_processed(replay_cutoffs)
        instance.recovering = False
        replayed = len(replay_events)

        report = RecoveryReport(
            slice_id=slice_id,
            replacement_host=replacement.host_id,
            restored_epoch=checkpoint.epoch if checkpoint else None,
            replayed_events=replayed,
            started_at=started_at,
            completed_at=self.env.now,
        )
        self.recovery_reports.append(report)
        if span is not None:
            tracer.finish_span(
                span,
                replayed_events=replayed,
                restored_epoch=report.restored_epoch,
            )
        return report
