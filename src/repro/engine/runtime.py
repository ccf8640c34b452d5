"""The engine runtime: operators, logical slices, routing, placement.

The runtime owns the operator DAG.  Operators have a *fixed* number of
logical slices (static partitioning, paper §IV): elasticity moves slices
between hosts but never changes their count, so the application never has
to split or merge state.

Routing follows the paper's two primitives: modulo hashing of a key onto
the destination operator's slices, or broadcast to all of them.  Sequence
numbers are assigned per (source, destination logical slice) channel at
emission time, and during a migration each event is transparently
duplicated to the destination instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..cluster import Host, Network
from ..sim import Environment
from .event import StreamEvent
from .handler import BROADCAST, SliceHandler

__all__ = ["EngineRuntime", "MigrationCosts", "OperatorInfo", "LogicalSlice"]


@dataclass(frozen=True)
class MigrationCosts:
    """Fixed costs of the migration protocol (see CostModel calibration).

    ``pre_s`` covers creating the destination instance and rewiring the DAG
    through the shared configuration; ``post_s`` covers the final
    configuration update and tear-down; the per-byte costs model state
    (de)serialization CPU on the origin/destination hosts.
    """

    pre_s: float = 0.11
    post_s: float = 0.11
    serialize_s_per_byte: float = 4.9e-9
    deserialize_s_per_byte: float = 4.9e-9


@dataclass
class OperatorInfo:
    """Static description of one operator."""

    name: str
    slice_count: int
    handler_factory: Callable[[int], SliceHandler]
    parallelism: int
    #: Receive-side deduplication of crash-replayed events by sequence
    #: range.  Operators whose handlers are content-idempotent (they
    #: tolerate duplicate deliveries semantically, like the pub/sub EP
    #: join) disable it, sidestepping the multi-channel sequence
    #: realignment caveat (see recovery.py).
    replay_dedup: bool = True
    #: The operator's logical slices by index — routing's targets.
    slices: List["LogicalSlice"] = field(default_factory=list)


class LogicalSlice:
    """A logical slice: stable identity, one active (+ one pending) instance."""

    def __init__(self, operator: str, index: int):
        self.operator = operator
        self.index = index
        self.id = f"{operator}:{index}"
        self.active = None  # type: Optional[object]
        self.pending = None  # type: Optional[object]

    def instances(self):
        if self.pending is not None:
            return (self.active, self.pending)
        return (self.active,)


class EngineRuntime:
    """Deploys operators onto hosts and routes events between slices."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        migration_costs: MigrationCosts = MigrationCosts(),
        transport_config=None,
    ):
        from ..transport import Transport

        self.env = env
        self.network = network
        #: Event-plane transport over the fabric; a pure passthrough
        #: unless its flush mode is ``adaptive`` (``None`` config: eager).
        self.transport = Transport(env, network, transport_config)
        self.migration_costs = migration_costs
        self.operators: Dict[str, OperatorInfo] = {}
        self.slices: Dict[str, LogicalSlice] = {}
        #: Sequence counters per (source key, destination logical slice id),
        #: indexed both ways so migration cutoffs (per destination) and
        #: recovery checkpoints (per source) read only their own channels
        #: instead of scanning every channel in the system.
        self._next_seq_by_src: Dict[str, Dict[str, int]] = {}
        self._next_seq_by_dst: Dict[str, Dict[str, int]] = {}
        self.migrations_completed = 0
        self.migrations_aborted = 0
        #: Upstream retention for crash recovery; None unless enabled.
        self.retention = None
        #: Dead-letter queue for events whose destination slice is gone
        #: and unrecoverable (``None`` = strict mode: routing to an
        #: undeployed slice raises, the seed behaviour).
        self.dead_letters = None
        #: ``listener(slice_id, phase)`` callbacks fired at the start of
        #: every migration phase — the hook chaos plans use to crash a
        #: manager at a chosen protocol point.
        self.migration_phase_listeners: List[Callable[[str, str], None]] = []
        #: Observability bundle (:class:`repro.telemetry.Telemetry`), or
        #: ``None``.  Hot paths test the pre-resolved fields below so the
        #: unbound cost is a single ``is None`` check.
        self.telemetry = None
        self._routed_fam = None

    # -- observability -----------------------------------------------------------

    def bind_telemetry(self, telemetry) -> None:
        """Attach a :class:`repro.telemetry.Telemetry` bundle.

        Binding is idempotent and may happen before or after deployment.
        """
        self.telemetry = telemetry
        self._routed_fam = telemetry.events_routed if telemetry is not None else None
        self.transport.bind_telemetry(telemetry)

    # -- topology construction ---------------------------------------------------

    def add_operator(
        self,
        name: str,
        slice_count: int,
        handler_factory: Callable[[int], SliceHandler],
        parallelism: int = 8,
        replay_dedup: bool = True,
    ) -> None:
        """Declare an operator with a fixed number of logical slices."""
        if name in self.operators:
            raise ValueError(f"operator {name!r} already declared")
        if slice_count <= 0:
            raise ValueError("slice_count must be positive")
        info = self.operators[name] = OperatorInfo(
            name, slice_count, handler_factory, parallelism, replay_dedup
        )
        for index in range(slice_count):
            logical = LogicalSlice(name, index)
            info.slices.append(logical)
            self.slices[logical.id] = logical

    def deploy(self, slice_id: str, host: Host) -> None:
        """Place the (not yet deployed) logical slice on ``host``."""
        from .instance import SliceInstance

        logical = self._logical(slice_id)
        if logical.active is not None:
            raise RuntimeError(f"slice {slice_id} is already deployed; migrate instead")
        info = self.operators[logical.operator]
        handler = info.handler_factory(logical.index)
        logical.active = SliceInstance(
            self, slice_id, handler, host, parallelism=info.parallelism
        )

    def buffering_twin(self, slice_id: str, host: Host):
        """A fresh, inactive instance of ``slice_id`` on ``host``.

        The twin every state handoff installs — migration and crash
        recovery: it queues what it is sent until
        :meth:`SliceInstance.activate` hands it the timestamp vector to
        resume from.
        """
        from .instance import SliceInstance

        logical = self._logical(slice_id)
        info = self.operators[logical.operator]
        return SliceInstance(
            self,
            slice_id,
            info.handler_factory(logical.index),
            host,
            parallelism=info.parallelism,
            buffering=True,
        )

    def deploy_operator(self, name: str, hosts: List[Host]) -> None:
        """Round-robin all slices of ``name`` over ``hosts``."""
        if not hosts:
            raise ValueError("need at least one host")
        info = self.operators[name]
        for index in range(info.slice_count):
            self.deploy(f"{name}:{index}", hosts[index % len(hosts)])

    # -- introspection ------------------------------------------------------------

    def slice_count(self, operator: str) -> int:
        return self.operators[operator].slice_count

    def slice_ids(self, operator: Optional[str] = None) -> List[str]:
        if operator is None:
            return list(self.slices)
        info = self.operators[operator]
        return [f"{operator}:{i}" for i in range(info.slice_count)]

    def host_of(self, slice_id: str) -> Host:
        return self._active(slice_id).host

    def handler_of(self, slice_id: str) -> SliceHandler:
        return self._active(slice_id).handler

    def placement(self) -> Dict[str, str]:
        """slice id → host id for every deployed slice."""
        return {
            sid: logical.active.host.host_id
            for sid, logical in self.slices.items()
            if logical.active is not None
        }

    def slice_stats(self, slice_id: str) -> Dict[str, Any]:
        instance = self._active(slice_id)
        return {
            "host": instance.host.host_id,
            "queue_length": instance.queue_length,
            "processed": instance.processed_count,
            "state_bytes": instance.handler.state_size_bytes(),
            "migrating": self._logical(slice_id).pending is not None,
        }

    # -- routing --------------------------------------------------------------------

    def route(
        self,
        source_key: str,
        operator: str,
        kind: str,
        payload: Any,
        size_bytes: int,
        key: Any,
    ) -> None:
        """Deliver an event to ``operator`` by modulo hash or broadcast.

        ``source_key`` is the logical id of the emitting slice, or any
        stable name for an external producer.
        """
        info = self.operators.get(operator)
        if info is None:
            raise KeyError(f"unknown operator {operator!r}")
        if key is BROADCAST:
            targets = info.slices
        else:
            targets = (info.slices[int(key) % info.slice_count],)
        src_host = self._source_host_id(source_key)
        now = self.env.now
        replayed = self._replaying(source_key)
        routed_fam = self._routed_fam
        if routed_fam is not None:
            routed_fam.labels(operator=operator).inc(len(targets))
        by_dst = self._next_seq_by_src.setdefault(source_key, {})
        by_src = self._next_seq_by_dst
        retention = self.retention
        send = self.transport.send
        for logical in targets:
            dest_id = logical.id
            active = logical.active
            if active is None and self.dead_letters is None:
                raise RuntimeError(f"slice {dest_id} is not deployed")
            seq = by_dst.get(dest_id, 0)
            by_dst[dest_id] = seq + 1
            sent = by_src.get(dest_id)
            if sent is None:
                sent = by_src[dest_id] = {}
            sent[source_key] = seq + 1
            event = StreamEvent(kind, payload, source_key, seq, size_bytes, now, replayed)
            if retention is not None:
                retention.record(source_key, dest_id, event)
            if active is None:
                self.dead_letters.push(dest_id, [event], "undeployed")
                continue
            send(source_key, src_host, active, event)
            if logical.pending is not None:
                send(source_key, src_host, logical.pending, event)

    def route_batch(
        self,
        source_key: str,
        emissions: Sequence[Tuple[str, str, Any, int, Any]],
    ) -> None:
        """Route a batch of emissions, one transfer per destination group.

        ``emissions`` is a sequence of ``(operator, kind, payload,
        size_bytes, key)`` tuples in emission order (``key`` may be
        ``BROADCAST``).  Semantically equivalent to calling :meth:`route`
        once per tuple — identical destinations, sequence numbers,
        retention records and migration duplication — except that all
        events of the batch headed for the same destination logical slice
        travel as *one* simulated transfer (one latency charge, summed
        bandwidth cost; see ``Network.send_batch``), the per-sender
        channel micro-batching the paper's engine uses for throughput.
        Per-(source, destination) FIFO order is preserved: events of a
        group arrive in emission order, and the shared NIC watermark
        orders the groups themselves.
        """
        if not emissions:
            return
        src_host = self._source_host_id(source_key)
        now = self.env.now
        replayed = self._replaying(source_key)
        by_dst = self._next_seq_by_src.setdefault(source_key, {})
        groups: Dict[str, List[StreamEvent]] = {}
        for operator, kind, payload, size_bytes, key in emissions:
            info = self.operators.get(operator)
            if info is None:
                raise KeyError(f"unknown operator {operator!r}")
            if key is BROADCAST:
                targets = info.slices
            else:
                targets = (info.slices[int(key) % info.slice_count],)
            for logical in targets:
                if logical.active is None and self.dead_letters is None:
                    raise RuntimeError(f"slice {logical.id} is not deployed")
                seq = by_dst.get(logical.id, 0)
                by_dst[logical.id] = seq + 1
                event = StreamEvent(
                    kind, payload, source_key, seq, size_bytes, now, replayed
                )
                if self.retention is not None:
                    self.retention.record(source_key, logical.id, event)
                groups.setdefault(logical.id, []).append(event)
        routed_fam = self._routed_fam
        for dest_id, events in groups.items():
            self._next_seq_by_dst.setdefault(dest_id, {})[source_key] = by_dst[dest_id]
            logical = self.slices[dest_id]
            if routed_fam is not None:
                routed_fam.labels(
                    operator=dest_id.split(":", 1)[0]
                ).inc(len(events))
            if logical.active is None:
                self.dead_letters.push(dest_id, events, "undeployed")
                continue
            for instance in logical.instances():
                self.transport.send_many(source_key, src_host, instance, events)

    def inject(
        self,
        source_key: str,
        operator: str,
        kind: str,
        payload: Any,
        size_bytes: int,
        key: Any,
    ) -> None:
        """External injection (clients); same routing surface as slices."""
        self.route(source_key, operator, kind, payload, size_bytes, key)

    def sent_cutoffs(self, slice_id: str) -> Dict[str, int]:
        """Last sequence number sent to ``slice_id`` per source, so far."""
        return {
            source: next_seq - 1
            for source, next_seq in self._next_seq_by_dst.get(slice_id, {}).items()
        }

    # -- crash-recovery support ----------------------------------------------

    def enable_retention(self) -> None:
        """Start retaining sent events for replay (passive replication)."""
        from .retention import RetentionLog

        if self.retention is None:
            self.retention = RetentionLog()

    def enable_dead_letters(self):
        """Park events for unrecoverable destinations instead of raising.

        Returns the :class:`~repro.engine.recovery.DeadLetterQueue`
        (idempotent) that :meth:`route`/:meth:`route_batch` feed when a
        destination slice has no active instance — the terminal shed
        point when recovery cannot find a replacement host.
        """
        from .recovery import DeadLetterQueue

        if self.dead_letters is None:
            self.dead_letters = DeadLetterQueue(self.env, self.telemetry)
        return self.dead_letters

    def _notify_migration_phase(self, slice_id: str, phase: str) -> None:
        for listener in list(self.migration_phase_listeners):
            listener(slice_id, phase)

    def seq_counters_from(self, slice_id: str) -> Dict[str, int]:
        """Outgoing sequence counters of ``slice_id`` (checkpointed so a
        recovered instance regenerates identical sequence numbers)."""
        return dict(self._next_seq_by_src.get(slice_id, {}))

    def restore_seq_counters(self, slice_id: str, counters: Dict[str, int]) -> None:
        """Reset ``slice_id``'s outgoing counters to a checkpointed value."""
        for dst in self._next_seq_by_src.get(slice_id, {}):
            self._next_seq_by_dst[dst].pop(slice_id, None)
        self._next_seq_by_src[slice_id] = dict(counters)
        for dst, next_seq in counters.items():
            self._next_seq_by_dst.setdefault(dst, {})[slice_id] = next_seq

    # -- migration --------------------------------------------------------------------

    def migrate(self, slice_id: str, dest_host: Host):
        """Start a live migration; returns the coordinating process.

        The process's value is a :class:`~repro.engine.migration.
        MigrationReport`.
        """
        from .migration import migrate_slice

        return self.env.process(migrate_slice(self, slice_id, dest_host))

    # -- internals ----------------------------------------------------------------------

    def _logical(self, slice_id: str) -> LogicalSlice:
        logical = self.slices.get(slice_id)
        if logical is None:
            raise KeyError(f"unknown slice {slice_id!r}")
        return logical

    def _active(self, slice_id: str):
        logical = self._logical(slice_id)
        if logical.active is None:
            raise RuntimeError(f"slice {slice_id} is not deployed")
        return logical.active

    def _source_host_id(self, source_key: str) -> str:
        logical = self.slices.get(source_key)
        if logical is not None and logical.active is not None:
            return logical.active.host.host_id
        return f"ext:{source_key}"

    def _replaying(self, source_key: str) -> bool:
        # A recovering source regenerates emissions it already made before
        # the crash; flag them so receivers deduplicate (see recovery.py).
        logical = self.slices.get(source_key)
        return bool(
            logical is not None
            and logical.active is not None
            and logical.active.recovering
        )
