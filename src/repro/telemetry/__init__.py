"""Always-on observability for the reproduction: tracing + metrics.

The paper evaluates E-STREAMHUB through internal signals — per-slice
probes on heartbeats, migration phase timings, end-to-end delays — and
this package makes those signals first-class instead of post-hoc: a
span-based :class:`~repro.telemetry.tracing.Tracer` follows publications
and migrations on the simulation clock, and a
:class:`~repro.telemetry.registry.MetricsRegistry` counts what the
engine does, sampled on the existing heartbeat path.

One :class:`Telemetry` object bundles both and is threaded through the
stack via ``HubConfig(telemetry=...)``::

    from repro.telemetry import Telemetry

    tel = Telemetry(env)                  # tracing + metrics on
    config = HubConfig(..., telemetry=tel)
    ...
    env.run()
    print(tel.metrics.render())           # registry snapshot table
    tel.tracer.write_jsonl("trace.jsonl") # deterministic span trace

Telemetry has two states.  Off is ``telemetry=None``, the default of
every component: instrumented hot paths guard with a single ``is None``
test.  On is a ``Telemetry(env)`` bundle, which records every span and
every instrument.  Tracing and metrics never schedule simulation
events, so turning them on does not change simulated behavior, and all
timestamps come from the DES clock — traces are reproducible
run-to-run.  The full span/metric catalog lives
in OBSERVABILITY.md.
"""

from __future__ import annotations

from .export import to_prometheus, write_prometheus, write_snapshot_json
from .registry import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from .tracing import Span, Tracer, read_jsonl

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "Tracer",
    "read_jsonl",
    "to_prometheus",
    "write_prometheus",
    "write_snapshot_json",
]

#: Migration-duration histograms need coarser buckets than event hops.
_MIGRATION_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 30.0)


class Telemetry:
    """Bundle of one tracer and one metric registry for a deployment.

    ``env`` supplies the clock (``env.now``); pass ``None`` to bind it
    later (``StreamHub`` binds automatically when it first sees the
    bundle).  A bundle records everything; telemetry off is no bundle
    (``telemetry=None``), the one state instrumented call sites test for.

    All standard instruments are declared here, once, so every layer of
    the stack shares the same families (see OBSERVABILITY.md for the
    catalog with meanings and units).
    """

    def __init__(self, env=None):
        self.env = env
        self.tracer = Tracer()
        if env is not None:
            self.bind_env(env)
        self.metrics = MetricsRegistry()
        self._declare_instruments()

    def bind_env(self, env) -> None:
        """Attach the simulation environment driving the trace clock."""
        self.env = env
        self.tracer.bind_clock(lambda: env.now)

    # -- standard instruments -------------------------------------------------

    def _declare_instruments(self) -> None:
        m = self.metrics
        # Event plane.
        self.events_routed = m.counter(
            "engine_events_routed_total",
            "Events routed between slices (after broadcast fan-out)",
            labels=("operator",),
        )
        self.events_processed = m.counter(
            "engine_events_processed_total",
            "Events fully processed by slice workers",
            labels=("operator",),
        )
        self.batches_coalesced = m.counter(
            "engine_batches_coalesced_total",
            "Coalesced batches (size > 1) executed by slice workers",
            labels=("operator",),
        )
        self.events_coalesced = m.counter(
            "engine_events_coalesced_total",
            "Events that travelled inside coalesced batches",
            labels=("operator",),
        )
        self.net_messages = m.counter(
            "net_messages_sent_total", "Messages handed to the network fabric"
        )
        self.net_batches = m.counter(
            "net_batches_sent_total", "Grouped transfers (send_batch calls)"
        )
        self.net_bytes = m.counter(
            "net_bytes_sent_total", "Bytes handed to the network fabric",
            unit="bytes",
        )
        # Adaptive-flush transport (repro.transport channels).
        self.transport_flushes = m.counter(
            "transport_flushes_total",
            "Channel flushes by cause (eager/full/deadline/heal)",
            labels=("cause",),
        )
        # Matching plane.
        self.matcher_publications = m.counter(
            "matcher_publications_total", "Publications filtered by M slices"
        )
        self.matcher_matches = m.counter(
            "matcher_matches_total",
            "Subscriptions matched across all filtered publications",
        )
        # Out-of-core packed-row store (repro.filtering.store; wall-clock
        # side residency of mmap chunks, not simulated quantities).
        self.store_chunk_faults = m.counter(
            "store_chunk_faults_total",
            "Evicted packed-row chunks mapped back in on access",
            labels=("store",),
        )
        self.store_chunk_evictions = m.counter(
            "store_chunk_evictions_total",
            "Packed-row chunks flushed and dropped to honor the memory budget",
            labels=("store",),
        )
        self.store_resident_chunks = m.gauge(
            "store_resident_chunks",
            "Packed-row chunks currently mapped in memory",
            labels=("store",),
        )
        self.store_resident_bytes = m.gauge(
            "store_resident_bytes",
            "Bytes of packed-row chunk data currently mapped in memory",
            unit="bytes",
            labels=("store",),
        )
        self.notification_delay = m.histogram(
            "notification_delay_seconds",
            "End-to-end publication-to-notification delay",
            unit="seconds",
        )
        # Migration protocol.
        self.migrations = m.counter(
            "migrations_total", "Completed live slice migrations"
        )
        self.migration_state_bytes = m.counter(
            "migration_state_bytes_total",
            "Slice state serialized and transferred by migrations",
            unit="bytes",
        )
        self.migration_duration = m.histogram(
            "migration_duration_seconds",
            "Wall-to-wall duration of completed migrations",
            unit="seconds",
            buckets=_MIGRATION_BUCKETS,
        )
        self.migration_interruption = m.histogram(
            "migration_interruption_seconds",
            "Stop-copy-resume service interruption of completed migrations",
            unit="seconds",
            buckets=_MIGRATION_BUCKETS,
        )
        # Elasticity control loop.
        self.rule_firings = m.counter(
            "enforcer_rule_firings_total",
            "Policy violations handed to the enforcer",
            labels=("rule",),
        )
        self.scaling_decisions = m.counter(
            "enforcer_decisions_total",
            "Non-empty scaling decisions produced by the enforcer",
            labels=("kind",),
        )
        self.signal_violations = m.counter(
            "policy_signal_violations_total",
            "Violations raised by the CPU band rules, including rounds "
            "vetoed or spent inside a grace period",
            labels=("kind",),
        )
        self.scale_in_vetoes = m.counter(
            "policy_scale_in_vetoes_total",
            "Scale-in requests suppressed by the p99 veto",
        )
        self.slo_margin = m.gauge(
            "policy_slo_margin_seconds",
            "Target SLO minus the windowed p99 notification delay "
            "(negative while the SLO is breached)",
            unit="seconds",
        )
        # Chaos / resilience (see RESILIENCE.md for the catalog).
        self.faults_injected = m.counter(
            "faults_injected_total",
            "Faults injected by a FaultPlan, by kind "
            "(host_crash/rack_loss/partition/heal/manager_crash)",
            labels=("kind",),
        )
        self.manager_failovers = m.counter(
            "manager_failovers_total",
            "Standby managers elected and resumed after a manager crash",
        )
        self.dead_letter_events = m.counter(
            "dead_letter_events_total",
            "Events parked in the dead-letter queue because their "
            "destination slice is unrecoverable",
        )
        self.partition_drops = m.counter(
            "net_partition_drops_total",
            "Messages dropped at send time by an active network partition",
        )
        self.watchdog_timeouts = m.counter(
            "watchdog_timeouts_total",
            "Stuck operations interrupted by a watchdog timer",
        )
        self.breaker_trips = m.counter(
            "transport_breaker_trips_total",
            "Per-channel circuit breakers opened on a partitioned link",
        )
        self.heartbeats = m.counter(
            "heartbeats_total", "Probe rounds collected by the manager"
        )
        self.engine_hosts = m.gauge(
            "engine_hosts", "Engine hosts currently managed"
        )
        self.slice_queue_depth = m.gauge(
            "slice_queue_depth", "Inbox length at the last heartbeat",
            labels=("slice",),
        )
        self.slice_cpu_cores = m.gauge(
            "slice_cpu_cores",
            "Average cores consumed by the slice over the last probe window",
            labels=("slice",),
        )
        self.slice_state_bytes = m.gauge(
            "slice_state_bytes",
            "Probe-reported state footprint (migration cost signal)",
            unit="bytes",
            labels=("slice",),
        )
        self.host_cpu_utilization = m.gauge(
            "host_cpu_utilization",
            "Average host CPU utilization over the last probe window",
            labels=("host",),
        )
