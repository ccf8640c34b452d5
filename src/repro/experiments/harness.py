"""Shared deployment harness for the paper's experiments.

Builds the simulated cluster (the paper's 30-host / 240-core private
cloud), deploys a STREAMHUB instance with the evaluation's slice counts
(8 AP / 16 M / 8 EP, §VI-A), preloads the subscription workload, and wires
sources and sinks.  Each experiment module composes these pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cluster import CloudProvider, Host, HostSpec
from ..filtering import CostModel
from ..pubsub import HubConfig, StreamHub, Subscription
from ..pubsub.source import SourceDriver
from ..sim import Environment
from ..transport import TransportConfig

__all__ = ["ExperimentSetup", "Deployment", "host_split"]


@dataclass
class ExperimentSetup:
    """Knobs shared by all experiments (paper defaults)."""

    subscriptions: int = 100_000
    matching_rate: float = 0.01
    ap_slices: int = 8
    m_slices: int = 16
    ep_slices: int = 8
    sink_slices: int = 4
    parallelism: int = 8
    host_cores: int = 8
    max_hosts: int = 30
    cost_model: CostModel = field(default_factory=CostModel)
    #: Credit-based backpressure on every transport channel.  ``None``
    #: leaves it to ``REPRO_NET_BACKPRESSURE`` (else off), so the
    #: environment flips the experiments too.
    backpressure: Optional[bool] = None
    #: Send credits per channel when backpressure is on.  ``None`` leaves
    #: it to ``REPRO_NET_CREDIT_WINDOW`` (else the transport default).
    credit_window: Optional[int] = None
    seed: int = 1
    #: Optional :class:`repro.telemetry.Telemetry` bundle; when set, every
    #: experiment run records spans and metrics (see OBSERVABILITY.md).
    telemetry: Optional[object] = None

    def hub_config(self) -> HubConfig:
        """The paper deployment's hub.  Its transport flushes on fixed
        0.1 s per-sender epochs (StreamMine3G micro-batching), which
        dominate the steady-state notification delay (DESIGN.md §5)."""
        return HubConfig.sampled(
            self.matching_rate,
            ap_slices=self.ap_slices,
            m_slices=self.m_slices,
            ep_slices=self.ep_slices,
            sink_slices=self.sink_slices,
            parallelism=self.parallelism,
            cost_model=self.cost_model,
            telemetry=self.telemetry,
            net=TransportConfig.from_env(
                flush_mode="fixed",
                flush_s=0.10,
                backpressure=self.backpressure,
                credit_window=self.credit_window,
            ),
        )


def host_split(total_hosts: int) -> Dict[str, int]:
    """The paper's static host allocation: M gets twice AP's and EP's share.

    With 8 hosts: 2 AP, 4 M, 2 EP; with 2 hosts: AP and EP share one host
    while M gets the other (§VI-C).
    """
    if total_hosts < 2:
        raise ValueError("the static split needs at least 2 hosts")
    m_hosts = max(1, total_hosts // 2)
    rest = total_hosts - m_hosts
    ap_hosts = max(1, rest // 2)
    ep_hosts = max(1, rest - ap_hosts)
    return {"AP": ap_hosts, "M": m_hosts, "EP": ep_hosts}


class Deployment:
    """A ready-to-run hub on a simulated cluster."""

    def __init__(self, setup: Optional[ExperimentSetup] = None):
        self.setup = setup or ExperimentSetup()
        self.env = Environment()
        from ..cluster import Network

        self.cloud = CloudProvider(
            self.env,
            # The transport layer programs the fabric's flush epochs from
            # the hub configuration (single source of truth) when the hub
            # is constructed below.
            network=Network(self.env),
            spec=HostSpec(cores=self.setup.host_cores),
            max_hosts=self.setup.max_hosts + 2,  # + sink/source hosts
        )
        self.hub = StreamHub(self.env, self.cloud.network, self.setup.hub_config())
        self.engine_hosts: List[Host] = []
        self.sink_host: Optional[Host] = None
        self.source = SourceDriver(self.hub, seed=self.setup.seed)

    # -- deployment shapes -----------------------------------------------------

    def deploy_static_split(self, total_hosts: int) -> None:
        """The baseline experiments' 1:2:1 operator/host allocation."""
        split = host_split(total_hosts)
        if total_hosts == 2:
            # One host runs all AP and EP slices, the other all M slices.
            shared = self.cloud.provision_now()
            m_host = self.cloud.provision_now()
            self.engine_hosts = [shared, m_host]
            self.hub.runtime.deploy_operator(self.hub.AP, [shared])
            self.hub.runtime.deploy_operator(self.hub.M, [m_host])
            self.hub.runtime.deploy_operator(self.hub.EP, [shared])
        else:
            ap = [self.cloud.provision_now() for _ in range(split["AP"])]
            m = [self.cloud.provision_now() for _ in range(split["M"])]
            ep = [self.cloud.provision_now() for _ in range(split["EP"])]
            self.engine_hosts = ap + m + ep
            self.hub.runtime.deploy_operator(self.hub.AP, ap)
            self.hub.runtime.deploy_operator(self.hub.M, m)
            self.hub.runtime.deploy_operator(self.hub.EP, ep)
        self._deploy_sink()

    def deploy_single_host(self) -> None:
        """Elasticity experiments start with one host running all slices."""
        host = self.cloud.provision_now()
        self.engine_hosts = [host]
        for operator in (self.hub.AP, self.hub.M, self.hub.EP):
            self.hub.runtime.deploy_operator(operator, [host])
        self._deploy_sink()

    def deploy_groups(self, ap_hosts: int, m_hosts: int, ep_hosts: int) -> None:
        """Explicit per-operator host groups (migration experiments)."""
        ap = [self.cloud.provision_now() for _ in range(ap_hosts)]
        m = [self.cloud.provision_now() for _ in range(m_hosts)]
        ep = [self.cloud.provision_now() for _ in range(ep_hosts)]
        self.engine_hosts = ap + m + ep
        self.hub.runtime.deploy_operator(self.hub.AP, ap)
        self.hub.runtime.deploy_operator(self.hub.M, m)
        self.hub.runtime.deploy_operator(self.hub.EP, ep)
        self._deploy_sink()

    def _deploy_sink(self) -> None:
        self.sink_host = self.cloud.provision_now()
        self.hub.runtime.deploy_operator(self.hub.SINK, [self.sink_host])

    # -- workload -----------------------------------------------------------------

    def preload_subscriptions(self, count: Optional[int] = None) -> None:
        """Install the stored-subscription state directly into the M slices.

        The storage phase precedes every measurement in the paper and is
        itself unmeasured, so experiments skip the pipeline and place each
        subscription in the slice the AP's modulo hashing would pick.
        """
        count = count if count is not None else self.setup.subscriptions
        m_slices = self.setup.m_slices
        handlers = [
            self.hub.runtime.handler_of(f"{self.hub.M}:{i}") for i in range(m_slices)
        ]
        for sub_id in range(count):
            handlers[sub_id % m_slices].preload(
                Subscription(sub_id=sub_id, subscriber=sub_id, filter_payload=None)
            )

    def stored_subscriptions(self) -> int:
        return sum(
            self.hub.runtime.handler_of(f"{self.hub.M}:{i}").backend.subscription_count()
            for i in range(self.setup.m_slices)
        )

    def fresh_host(self) -> Host:
        """Provision an extra host immediately (migration targets)."""
        host = self.cloud.provision_now()
        self.engine_hosts.append(host)
        return host
