"""Live slice migration (paper §IV-A, Figure 3).

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
migration time (paper Table I).  Slices are static partitions: migration
moves a whole slice and is the only way state changes hosts.

:func:`migrate_slice` runs these as five phases — ``pre`` (destination
creation and DAG rewiring), ``sync`` (drain to the duplication cutoffs),
``pause`` (origin halt to quiescence), ``copy`` (serialize, ship,
deserialize and install the state, then resume) and ``post`` (final
configuration update).

When the runtime carries a :class:`repro.telemetry.Telemetry` bundle, the
coordinator emits one ``migration`` root span plus five contiguous phase
spans ``migration.{phase}``.  The phases tile ``[started_at,
completed_at]`` exactly, so their durations sum to the report's
``duration_s``, and the pause + copy phases together equal its
``interruption_s`` — the Fig. 7 signal, visible per migration instead of
only in aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import Host
from ..sim import Interrupt

__all__ = [
    "MigrationReport",
    "MigrationError",
    "migrate_slice",
]


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
    and the serialize/transfer/deserialize of the state copy.  It adds no
    process or event of its own beyond those waits.

    An :class:`Interrupt` before the twin is activated — a watchdog, a
    crashing manager, or a state copy refusing a partitioned link — rolls
    back and fails with :class:`MigrationError`; one in the post phase
    rolls forward.
    """
    logical = runtime.slices.get(slice_id)
    if logical is None:
        raise MigrationError(f"unknown slice {slice_id!r}")
    if logical.active is None:
        raise MigrationError(f"slice {slice_id} is not deployed")
    if logical.pending is not None:
        raise MigrationError(f"slice {slice_id} is already migrating")
    origin = logical.active
    if origin.host is dest_host:
        raise MigrationError(f"slice {slice_id} is already on {dest_host.host_id}")
    if dest_host.released:
        raise MigrationError(f"destination {dest_host.host_id} has been released")
    env = runtime.env
    costs = runtime.migration_costs
    network = runtime.network
    src, dst = origin.host.host_id, dest_host.host_id
    started_at = env.now
    telemetry = runtime.telemetry
    tracer = telemetry.tracer if telemetry is not None else None
    root = span = None
    if tracer is not None:
        root = tracer.start_span(
            "migration", slice=slice_id, from_host=src, to_host=dst
        )

    def enter(phase: str, **closing) -> None:
        # Close the open phase span, open this one, tell the listeners.
        nonlocal span
        if root is not None:
            if span is not None:
                tracer.finish_span(span, **closing)
            span = tracer.start_span(f"migration.{phase}", parent=root)
        runtime._notify_migration_phase(slice_id, phase)

    twin = None
    halted = activated = False
    try:
        # (2) Create the buffering twin and rewire the DAG to duplicate
        # incoming events.  The fixed pre-overhead models the round-trips
        # through the shared configuration service.
        enter("pre")
        yield env.timeout(costs.pre_s)
        twin = runtime.buffering_twin(slice_id, dest_host)
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
        state = origin.handler.export_state()
        state_bytes = origin.handler.state_size_bytes()
        if state_bytes > 0:
            serialize_cpu = state_bytes * costs.serialize_s_per_byte
            if serialize_cpu > 0:
                yield from origin.host.cpu.run(serialize_cpu, tag=slice_id)
            if network.is_partitioned(src, dst):
                # The fabric would drop the state and nothing resends it:
                # abort while the origin is still authoritative.
                raise Interrupt("partitioned")
            yield network.ship(src, dst, state_bytes)
            deserialize_cpu = state_bytes * costs.deserialize_s_per_byte
            if deserialize_cpu > 0:
                yield from dest_host.cpu.run(deserialize_cpu, tag=slice_id)
        twin.handler.import_state(state)
        del state  # installed: do not hold a second copy through post
        twin.activate(vector)
        logical.active = twin
        logical.pending = None
        origin.destroy()
        activated = True
        interruption_end = env.now

        # (5) Final configuration update.
        enter("post", state_bytes=state_bytes)
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
            if twin is not None:
                logical.pending = None
                twin.destroy()
            if halted:
                origin.resume()
            runtime.migrations_aborted += 1
            if root is not None:
                tracer.finish_span(span, outcome="aborted")
                tracer.finish_span(
                    root, outcome="aborted", resolution="rolled_back",
                    duration_s=env.now - started_at,
                )
            raise MigrationError(
                f"migration of {slice_id} aborted ({interrupt.cause}): "
                f"rolled back to {src}"
            ) from None
        # Interrupted in the post phase: the twin is already live and the
        # origin destroyed — roll forward, reporting completion at the
        # abort instant (only the config-update tail was cut).
        if root is not None:
            tracer.finish_span(span, outcome="aborted")
            span = None
            root.attrs["outcome"] = "aborted"
            root.attrs["resolution"] = "completed"
    runtime.migrations_completed += 1
    report = MigrationReport(
        slice_id=slice_id,
        source_host=src,
        destination_host=dst,
        started_at=started_at,
        completed_at=env.now,
        state_bytes=state_bytes,
        interruption_s=interruption_end - interruption_start,
    )
    if root is not None:
        if span is not None:
            tracer.finish_span(span)
        tracer.finish_span(
            root,
            state_bytes=state_bytes,
            interruption_s=report.interruption_s,
            duration_s=report.duration_s,
        )
    if telemetry is not None:
        telemetry.migrations.inc()
        telemetry.migration_state_bytes.inc(state_bytes)
        telemetry.migration_duration.observe(report.duration_s)
        telemetry.migration_interruption.observe(report.interruption_s)
    return report
