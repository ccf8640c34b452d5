"""Slice handoff: live migration (paper §IV-A, Figure 3) and reshard.

The protocol minimizes service interruption through slice duplication and
in-memory buffering of duplicated events:

1. The slice runs on the origin host.
2. A new, inactive instance is created on the destination host and the
   DAG is rewired so every incoming event is *duplicated* to it, where it
   is queued (one logical queue per originating slice, realized by the
   per-source sequence numbers on the shared inbox).
3. Once the destination queues are guaranteed to contain every event the
   origin has not yet processed (per-source sequence cutoffs taken at
   duplication start have been processed), processing stops on the origin.
4. The state — tagged with the origin's per-source timestamp vector — is
   serialized, transferred and installed; the new instance resumes,
   filtering obsolete events (seq ≤ vector) to prevent duplicate
   processing.
5. The origin instance is removed.

Stateless slices (AP) skip the transfer entirely, hence their much lower
migration time (paper Table I).

One coordinator, :func:`_handoff`, runs these five phases — ``pre``
(destination creation and DAG rewiring), ``sync`` (drain to the
duplication cutoffs), ``pause`` (origin halt to quiescence), ``copy``
(the state step, then resume) and ``post`` (final configuration update)
— for two protocols that differ only in the copy step:

* :func:`migrate_slice` moves a slice to another host: serialize, ship,
  deserialize and install the state.
* :func:`reshard_slice` splits or merges a key-range shard inside a slice
  whose handler supports runtime resharding (see
  :class:`~repro.filtering.ShardedAspeLibrary`).  The twin adopts the
  state by reference on the same host, so the copy charges CPU only for
  the rows the shard operation physically rewrites (zero for merges and
  boundary-aligned splits) instead of serializing the whole partition.

When the runtime carries a :class:`repro.telemetry.Telemetry` bundle, the
coordinator emits one ``migration`` (or ``reshard``) root span plus five
contiguous phase spans ``{protocol}.{phase}``.  The phases tile
``[started_at, completed_at]`` exactly, so their durations sum to the
report's ``duration_s``, and the pause + copy phases together equal its
``interruption_s`` — the Fig. 7 signal, visible per migration instead of
only in aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cluster import Host
from ..sim import Interrupt

__all__ = [
    "MigrationReport",
    "MigrationError",
    "ShardOpReport",
    "migrate_slice",
    "reshard_slice",
]

#: Runtime counter prefix of each protocol (``{prefix}_completed`` and
#: ``{prefix}_aborted`` on :class:`~repro.engine.runtime.EngineRuntime`).
_COUNTERS = {"migration": "migrations", "reshard": "shard_ops"}


class MigrationError(RuntimeError):
    """A migration could not be performed.

    Raised synchronously by :func:`migrate_slice` for invalid requests:
    unknown or undeployed slices, a slice already migrating, a
    destination equal to the origin, or a destination host that has been
    released back to the provider.  Also raised *asynchronously* (the
    coordinating process fails with it) when an in-flight operation
    rolls back: it was interrupted — by a watchdog timeout or a crashing
    manager — or its state copy met a partitioned link.
    """


def _undo_shard_op(handler, op: str, result) -> None:
    """Apply the inverse shard operation after an aborted reshard.

    The reshard "copy" adopts the origin's library by reference, so a
    split/merge that already ran has mutated state the origin will keep
    using after the rollback.  Reversing it (split ↔ merge at the same
    boundary) makes the rollback exact; if the inverse is not applicable
    (concurrent structural change) the slice keeps the applied op, which
    is semantically harmless — sharding never changes match results.
    """
    try:
        if op == "split":
            handler.reshard("merge", shard_index=result.shard_index)
        else:
            handler.reshard(
                "split",
                shard_index=result.shard_index,
                pivot_key=result.pivot_key,
            )
    except Exception:
        pass


def _handoff_target(runtime, slice_id: str):
    """The logical slice a handoff may start on, else :class:`MigrationError`."""
    logical = runtime.slices.get(slice_id)
    if logical is None:
        raise MigrationError(f"unknown slice {slice_id!r}")
    if logical.active is None:
        raise MigrationError(f"slice {slice_id} is not deployed")
    if logical.pending is not None:
        raise MigrationError(f"slice {slice_id} is already migrating")
    return logical


def _handoff(runtime, protocol: str, logical, host: Host, attrs, copy, undo=None):
    """The five-phase handoff of ``logical`` to a buffering twin on ``host``.

    Runs inside the caller's coordinator process (``yield from``), so it
    adds no process or event of its own.  ``attrs`` open the
    ``protocol`` root span.  ``copy(twin)`` is the protocol's state step,
    a generator run while the origin is halted; it returns the attributes
    that close both the copy span and the root span.

    An :class:`Interrupt` before the twin is activated — a watchdog, a
    crashing manager, or a copy step refusing a partitioned link — runs
    ``undo(twin)``, rolls back and fails with :class:`MigrationError`;
    one in the post phase rolls forward.

    Returns ``(copy attributes, started_at, interruption_s)``.
    """
    env = runtime.env
    costs = runtime.migration_costs
    slice_id = logical.id
    origin = logical.active
    started_at = env.now
    telemetry = runtime.telemetry
    tracer = telemetry.tracer if telemetry is not None else None
    root = span = None
    if tracer is not None and tracer.enabled:
        root = tracer.start_span(protocol, **attrs)

    def enter(phase: str, **closing) -> None:
        # Close the open phase span, open this one, tell the listeners.
        nonlocal span
        if root is not None:
            if span is not None:
                tracer.finish_span(span, **closing)
            span = tracer.start_span(f"{protocol}.{phase}", parent=root)
        runtime._notify_migration_phase(slice_id, protocol, phase)

    twin = None
    halted = activated = False
    try:
        # (2) Create the buffering twin and rewire the DAG to duplicate
        # incoming events.  The fixed pre-overhead models the round-trips
        # through the shared configuration service.
        enter("pre")
        yield env.timeout(costs.pre_s)
        twin = runtime.buffering_twin(slice_id, host)
        logical.pending = twin
        cutoffs = runtime.sent_cutoffs(slice_id)

        # (3) Wait until the origin processed everything sent before
        # duplication, then stop it and wait for in-flight work to finish.
        enter("sync")
        yield origin.wait_until_processed(cutoffs)
        interruption_start = env.now
        enter("pause")
        halted = True
        yield origin.halt()

        # (4) Copy the state with its timestamp vector, then resume on the
        # twin; obsolete duplicated events are filtered via the vector
        # inside the worker loop.
        enter("copy")
        vector = dict(origin.last_processed)
        copied = yield from copy(twin)
        twin.activate(vector)
        logical.active = twin
        logical.pending = None
        origin.destroy()
        activated = True
        interruption_end = env.now

        # (5) Final configuration update.
        enter("post", **copied)
        yield env.timeout(costs.post_s)
    except Interrupt as interrupt:
        if not activated:
            # The origin is still authoritative and received every event
            # the twin did: drop the twin, splice back what the halt
            # dropped (SliceInstance.resume), and fail the process so the
            # operation's waiter sees the abort.  Activation → origin
            # destruction happen in one synchronous block, which an
            # interrupt cannot split.  Phase spans close at the abort
            # instant, so they still tile [started_at, now].
            if undo is not None:
                undo(twin)
            if twin is not None:
                logical.pending = None
                twin.destroy()
            if halted:
                origin.resume()
            aborted = _COUNTERS[protocol] + "_aborted"
            setattr(runtime, aborted, getattr(runtime, aborted) + 1)
            if root is not None:
                tracer.finish_span(span, outcome="aborted")
                tracer.finish_span(
                    root, outcome="aborted", resolution="rolled_back",
                    duration_s=env.now - started_at,
                )
            raise MigrationError(
                f"{protocol} of {slice_id} aborted ({interrupt.cause}): "
                f"rolled back to {origin.host.host_id}"
            ) from None
        # Interrupted in the post phase: the twin is already live and the
        # origin destroyed — roll forward, reporting completion at the
        # abort instant (only the config-update tail was cut).
        if root is not None:
            tracer.finish_span(span, outcome="aborted")
            span = None
            root.attrs["outcome"] = "aborted"
            root.attrs["resolution"] = "completed"
    completed = _COUNTERS[protocol] + "_completed"
    setattr(runtime, completed, getattr(runtime, completed) + 1)
    interruption_s = interruption_end - interruption_start
    if root is not None:
        if span is not None:
            tracer.finish_span(span)
        tracer.finish_span(
            root,
            **copied,
            interruption_s=interruption_s,
            duration_s=env.now - started_at,
        )
    return copied, started_at, interruption_s


@dataclass(frozen=True)
class MigrationReport:
    """Outcome of one completed slice migration.

    Returned as the value of the coordinating process started by
    :meth:`~repro.engine.runtime.EngineRuntime.migrate`; the manager
    collects these into its migration log and the Table I experiment
    aggregates their durations.
    """

    #: Logical id of the migrated slice (e.g. ``"M:3"``).
    slice_id: str
    #: Host the slice left.
    source_host: str
    #: Host the slice now runs on.
    destination_host: str
    #: Simulated time the coordinator started (phase 2 begins).
    started_at: float
    #: Simulated time the final configuration update finished.
    completed_at: float
    #: Serialized state size transferred (0 for stateless slices).
    state_bytes: int
    #: Duration of the stop-copy-resume window (actual interruption).
    interruption_s: float

    @property
    def duration_s(self) -> float:
        """Wall-to-wall migration time (``completed_at - started_at``)."""
        return self.completed_at - self.started_at


def migrate_slice(runtime, slice_id: str, dest_host: Host):
    """Coordinator process generator for one slice migration.

    Drive it with :meth:`EngineRuntime.migrate` (which wraps it in a
    simulation process); the process's value is a
    :class:`MigrationReport`.  The generator yields at every simulated
    wait of the §IV-A protocol: the fixed pre/post configuration
    overheads, the drain to the duplication cutoffs, origin quiescence,
    and the serialize/transfer/deserialize of the state copy.
    """
    logical = _handoff_target(runtime, slice_id)
    origin = logical.active
    if origin.host is dest_host:
        raise MigrationError(f"slice {slice_id} is already on {dest_host.host_id}")
    if dest_host.released:
        raise MigrationError(f"destination {dest_host.host_id} has been released")
    costs = runtime.migration_costs
    network = runtime.network

    def copy(twin):
        state = origin.handler.export_state()
        state_bytes = origin.handler.state_size_bytes()
        if state_bytes > 0:
            serialize_cpu = state_bytes * costs.serialize_s_per_byte
            if serialize_cpu > 0:
                yield from origin.host.cpu.run(serialize_cpu, tag=slice_id)
            src, dst = origin.host.host_id, dest_host.host_id
            if network.is_partitioned(src, dst):
                # The fabric would drop the state and nothing resends it:
                # abort while the origin is still authoritative.
                raise Interrupt("partitioned")
            yield network.ship(src, dst, state_bytes)
            deserialize_cpu = state_bytes * costs.deserialize_s_per_byte
            if deserialize_cpu > 0:
                yield from dest_host.cpu.run(deserialize_cpu, tag=slice_id)
        twin.handler.import_state(state)
        return {"state_bytes": state_bytes}

    copied, started_at, interruption_s = yield from _handoff(
        runtime,
        "migration",
        logical,
        dest_host,
        {
            "slice": slice_id,
            "from_host": origin.host.host_id,
            "to_host": dest_host.host_id,
        },
        copy,
    )
    state_bytes = copied["state_bytes"]
    report = MigrationReport(
        slice_id=slice_id,
        source_host=origin.host.host_id,
        destination_host=dest_host.host_id,
        started_at=started_at,
        completed_at=runtime.env.now,
        state_bytes=state_bytes,
        interruption_s=interruption_s,
    )
    telemetry = runtime.telemetry
    if telemetry is not None and telemetry.migrations is not None:
        telemetry.migrations.inc()
        telemetry.migration_state_bytes.inc(state_bytes)
        telemetry.migration_duration.observe(report.duration_s)
        telemetry.migration_interruption.observe(report.interruption_s)
    return report


@dataclass(frozen=True)
class ShardOpReport:
    """Outcome of one completed runtime shard split or merge.

    Returned as the value of the coordinating process started by
    :meth:`~repro.engine.runtime.EngineRuntime.reshard`.
    """

    #: Logical id of the resharded slice (e.g. ``"M:3"``).
    slice_id: str
    #: ``"split"`` or ``"merge"``.
    op: str
    #: Host the slice runs on (resharding never changes placement).
    host: str
    #: Key the range was cut (split) or rejoined (merge) at.
    pivot_key: Optional[int]
    #: Shard count of the slice before/after the operation.
    shards_before: int
    shards_after: int
    #: Subscriptions whose shard assignment changed.
    moved_subscriptions: int
    #: Packed rows physically copied (0 for merges and boundary splits).
    rows_rewritten: int
    #: Bytes of those rows — the CPU-charged "state copy" of this protocol.
    state_bytes: int
    #: Simulated time the coordinator started / finished.
    started_at: float
    completed_at: float
    #: Duration of the stop-reshard-resume window (actual interruption).
    interruption_s: float

    @property
    def duration_s(self) -> float:
        """Wall-to-wall reshard time (``completed_at - started_at``)."""
        return self.completed_at - self.started_at


def reshard_slice(
    runtime,
    slice_id: str,
    op: str,
    shard_index: Optional[int] = None,
    pivot_key: Optional[int] = None,
):
    """Coordinator process generator for one same-host shard split/merge.

    Drive it with :meth:`EngineRuntime.reshard`; the process's value is a
    :class:`ShardOpReport`.  The handoff is the migration's (§IV-A) —
    duplicate-and-buffer, drain to cutoffs, halt, swap, resume with the
    timestamp vector — but the twin sits on the same host and adopts the
    origin handler's state by reference, so the only state cost is the
    CPU for rows the shard operation rewrites.
    """
    if op not in ("split", "merge"):
        raise MigrationError(f"unknown shard operation {op!r}")
    logical = _handoff_target(runtime, slice_id)
    handler = logical.active.handler
    if not getattr(handler, "can_reshard", lambda _op: False)(op):
        raise MigrationError(
            f"slice {slice_id} cannot {op}: handler does not support it "
            f"or the operation is not applicable right now"
        )
    host = logical.active.host
    costs = runtime.migration_costs
    result = None

    def copy(twin):
        # Only the physically rewritten rows cost CPU — a merge or a
        # boundary-aligned split swaps chunk ownership and charges nothing.
        nonlocal result
        twin.handler.adopt_from(handler)
        result = twin.handler.reshard(
            op, shard_index=shard_index, pivot_key=pivot_key
        )
        rework_cpu = result.bytes_rewritten * (
            costs.serialize_s_per_byte + costs.deserialize_s_per_byte
        )
        if rework_cpu > 0:
            yield from host.cpu.run(rework_cpu, tag=slice_id)
        return {
            "shards_after": result.shards_after,
            "rows_rewritten": result.rows_rewritten,
        }

    def undo(twin):
        if result is not None:
            _undo_shard_op(twin.handler, op, result)

    _, started_at, interruption_s = yield from _handoff(
        runtime,
        "reshard",
        logical,
        host,
        {"slice": slice_id, "op": op, "host": host.host_id},
        copy,
        undo,
    )
    report = ShardOpReport(
        slice_id=slice_id,
        op=op,
        host=host.host_id,
        pivot_key=result.pivot_key,
        shards_before=result.shards_before,
        shards_after=result.shards_after,
        moved_subscriptions=result.moved_subscriptions,
        rows_rewritten=result.rows_rewritten,
        state_bytes=result.bytes_rewritten,
        started_at=started_at,
        completed_at=runtime.env.now,
        interruption_s=interruption_s,
    )
    telemetry = runtime.telemetry
    if telemetry is not None and telemetry.shard_operations is not None:
        telemetry.shard_operations.labels(op=op).inc()
    return report
