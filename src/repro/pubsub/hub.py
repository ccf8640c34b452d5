"""The STREAMHUB façade: assembling the pub/sub pipeline on the engine.

A :class:`StreamHub` declares the AP → M → EP operator chain (plus a SINK
convenience operator standing in for subscriber connection points), deploys
the slices onto hosts, and offers the client API: ``subscribe`` and
``publish``.  Slice counts are fixed at construction — the static
partitioning that makes elastic migration application-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..cluster import Host, Network
from ..elastic.policy import ElasticityPolicy
from ..engine import EngineRuntime, MigrationCosts
from ..filtering import CostModel, MatchingBackend, SampledBackend, StoreConfig
from ..sim import Environment
from ..telemetry import DelaySample, DelayTracker, Telemetry
from ..transport import TransportConfig
from .messages import Notification, Publication, Subscription
from .operators import (
    AccessPointHandler,
    ExitPointHandler,
    MatcherHandler,
    NotificationSinkHandler,
    KIND_PUBLICATION,
    KIND_SUBSCRIPTION,
)

__all__ = ["HubConfig", "StreamHub"]

#: Builds a :class:`DelaySample` from a full field tuple without the
#: generated ``__new__`` frame: one per notified publication.
_new = tuple.__new__


@dataclass
class HubConfig:
    """Static configuration of a STREAMHUB deployment.

    Defaults mirror the paper's evaluation setup: 8 AP, 16 M and 8 EP
    slices (§VI-A), encrypted (ASPE-cost) filtering, slice thread pools
    sized to the 8-core hosts.

    Knobs that belong together live in grouped sub-configs (knob groups,
    see :mod:`repro.config`): :attr:`store`, :attr:`net` and
    :attr:`policy`.
    """

    ap_slices: int = 8
    m_slices: int = 16
    ep_slices: int = 8
    sink_slices: int = 4
    parallelism: int = 8
    encrypted: bool = True
    cost_model: CostModel = field(default_factory=CostModel)
    #: Per-M-slice matching backend factory (index → backend).
    backend_factory: Optional[Callable[[int], MatchingBackend]] = None
    #: Max consecutively queued publications an M slice coalesces into one
    #: batched backend call (1 = no coalescing, the default).  Batching
    #: charges the same summed CPU cost and emits identical match lists in
    #: identical order, but collapses backend calls — worthwhile with
    #: exact (vectorized) backends under publication backlogs.
    matcher_batch_limit: int = 1
    #: Max consecutively queued events an AP slice coalesces into one
    #: routing pass with shared per-destination network transfers.
    ap_batch_limit: int = 1
    #: Max consecutively queued events an EP slice coalesces into one join
    #: pass; completed notifications of a batch dispatch together.
    ep_batch_limit: int = 1
    #: Optional :class:`repro.telemetry.Telemetry` bundle.  When set, the
    #: hub binds it to the engine runtime and the network fabric so every
    #: layer records into the same tracer/registry (see OBSERVABILITY.md).
    #: ``None`` (the default) keeps all hot paths on their no-op branch.
    telemetry: Optional["Telemetry"] = None
    #: Packed-row store every exact (ASPE) M-slice library is switched to
    #: at deployment: ``chunked`` (in-RAM row chunks) or ``mmap`` (chunks
    #: over spill files with an LRU resident set), with its chunk size,
    #: residency budget and spill directory.  ``None`` (the default)
    #: keeps whatever store each library was built with; sampled
    #: backends ignore it.  See DESIGN.md §8.
    store: Optional[StoreConfig] = None
    #: Event-plane transport: channel flush policy (``eager``, ``fixed``
    #: fabric epochs or ``adaptive`` per-channel latency-bounded flush).
    #: See DESIGN.md §9.
    net: TransportConfig = field(default_factory=TransportConfig)
    #: The policy of managers driving this hub (the paper's by default).
    policy: ElasticityPolicy = field(default_factory=ElasticityPolicy)

    def __post_init__(self):
        if min(self.ap_slices, self.m_slices, self.ep_slices, self.sink_slices) <= 0:
            raise ValueError("slice counts must be positive")
        if self.matcher_batch_limit <= 0:
            raise ValueError("matcher_batch_limit must be positive")
        if self.ap_batch_limit <= 0:
            raise ValueError("ap_batch_limit must be positive")
        if self.ep_batch_limit <= 0:
            raise ValueError("ep_batch_limit must be positive")

    @classmethod
    def sampled(cls, matching_rate: float = 0.01, **kwargs) -> "HubConfig":
        """Configuration with statistically sampled matching (see backends)."""
        return cls(
            backend_factory=lambda index: SampledBackend(matching_rate, seed=index),
            **kwargs,
        )

    def migration_costs(self) -> MigrationCosts:
        """Migration cost parameters derived from the cost model."""
        per_byte = (
            self.cost_model.migration_serialize_sub_s / self.cost_model.subscription_bytes
        )
        return MigrationCosts(
            pre_s=self.cost_model.migration_overhead_s / 2,
            post_s=self.cost_model.migration_overhead_s / 2,
            serialize_s_per_byte=per_byte,
            deserialize_s_per_byte=per_byte,
        )


class StreamHub:
    """A deployed pub/sub engine instance."""

    AP = "AP"
    M = "M"
    EP = "EP"
    SINK = "SINK"

    def __init__(self, env: Environment, network: Network, config: HubConfig):
        if config.backend_factory is None:
            raise ValueError(
                "HubConfig.backend_factory is required (use HubConfig.sampled() "
                "or provide ExactBackend factories)"
            )
        self.env = env
        self.config = config
        self.runtime = EngineRuntime(
            env,
            network,
            migration_costs=config.migration_costs(),
            transport_config=config.net,
        )
        #: The bound telemetry bundle (``config.telemetry``), or ``None``.
        self.telemetry = config.telemetry
        self._delay_hist = None
        if self.telemetry is not None:
            if self.telemetry.env is None:
                self.telemetry.bind_env(env)
            self.runtime.bind_telemetry(self.telemetry)
            network.bind_telemetry(self.telemetry)
            self._delay_hist = self.telemetry.notification_delay
        self.delay_tracker = DelayTracker()
        #: Joined notifications in delivery order (subscriber ids are
        #: present in exact-matching mode, ``None`` in sampled mode).
        self.notification_log: List[Notification] = []
        #: Duplicate notifications suppressed at the connection point
        #: (at-least-once redelivery during crash recovery).
        self.duplicate_notifications = 0
        self._seen_pub_ids = set()
        self._published = 0
        self._subscribed = 0

        cost_model = config.cost_model
        # All pub/sub operators are content-idempotent (the EP join is
        # keyed by M slice, the sink deduplicates by publication id), so
        # crash-replay deduplication by sequence range is unnecessary and
        # disabled (see engine.recovery's multi-channel caveat).
        self.runtime.add_operator(
            self.AP,
            config.ap_slices,
            lambda index: AccessPointHandler(
                cost_model,
                matching_operator=self.M,
                batch_limit=config.ap_batch_limit,
            ),
            parallelism=config.parallelism,
            replay_dedup=False,
        )
        self.runtime.add_operator(
            self.M,
            config.m_slices,
            lambda index: MatcherHandler(
                index,
                config.backend_factory(index),
                cost_model,
                encrypted=config.encrypted,
                exit_operator=self.EP,
                batch_limit=config.matcher_batch_limit,
                store_config=config.store,
            ),
            parallelism=config.parallelism,
            replay_dedup=False,
        )
        self.runtime.add_operator(
            self.EP,
            config.ep_slices,
            lambda index: ExitPointHandler(
                cost_model,
                m_slice_count=config.m_slices,
                own_operator=self.EP,
                sink_operator=self.SINK,
                batch_limit=config.ep_batch_limit,
            ),
            parallelism=config.parallelism,
            replay_dedup=False,
        )
        self.runtime.add_operator(
            self.SINK,
            config.sink_slices,
            lambda index: NotificationSinkHandler(self._collect),
            parallelism=config.parallelism,
            replay_dedup=False,
        )

    # -- deployment -----------------------------------------------------------

    def deploy(
        self,
        ap_hosts: List[Host],
        m_hosts: List[Host],
        ep_hosts: List[Host],
        sink_hosts: List[Host],
    ) -> None:
        """Round-robin each operator's slices over its host group."""
        self.runtime.deploy_operator(self.AP, ap_hosts)
        self.runtime.deploy_operator(self.M, m_hosts)
        self.runtime.deploy_operator(self.EP, ep_hosts)
        self.runtime.deploy_operator(self.SINK, sink_hosts)

    def deploy_all_on(self, engine_hosts: List[Host], sink_hosts: List[Host]) -> None:
        """Place all engine slices round-robin on one host group."""
        for operator in (self.AP, self.M, self.EP):
            self.runtime.deploy_operator(operator, engine_hosts)
        self.runtime.deploy_operator(self.SINK, sink_hosts)

    def engine_slice_ids(self) -> List[str]:
        """The elastically managed slices (AP, M, EP — not the sink)."""
        return (
            self.runtime.slice_ids(self.AP)
            + self.runtime.slice_ids(self.M)
            + self.runtime.slice_ids(self.EP)
        )

    # -- client API --------------------------------------------------------------

    def subscribe(self, subscription: Subscription, source: str = "client") -> None:
        """Register a subscription (routed through the AP operator)."""
        self.runtime.inject(
            source,
            self.AP,
            KIND_SUBSCRIPTION,
            subscription,
            self.config.cost_model.subscription_bytes,
            key=subscription.sub_id,
        )
        self._subscribed += 1

    def publish(self, publication: Publication, source: str = "client") -> None:
        """Publish an event (routed through the AP operator)."""
        self.runtime.inject(
            source,
            self.AP,
            KIND_PUBLICATION,
            publication,
            self.config.cost_model.publication_bytes,
            key=publication.pub_id,
        )
        self._published += 1

    # -- measurement ----------------------------------------------------------------

    @property
    def published_count(self) -> int:
        return self._published

    @property
    def subscribed_count(self) -> int:
        return self._subscribed

    @property
    def notified_publications(self) -> int:
        return len(self.delay_tracker)

    def _collect(self, notification: Notification, now: float) -> None:
        if notification.pub_id in self._seen_pub_ids:
            self.duplicate_notifications += 1
            return
        self._seen_pub_ids.add(notification.pub_id)
        self.notification_log.append(notification)
        self.delay_tracker.add(
            _new(
                DelaySample,
                (notification.pub_id, notification.published_at, now, notification.count),
            )
        )
        if self._delay_hist is not None:
            self._delay_hist.observe(now - notification.published_at)
