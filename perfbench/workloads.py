"""The four pinned workloads (why each exists: perfbench/README.md).

Every workload makes its inputs from the seed alone — ciphertexts through
:class:`~repro.workloads.ScaleWorkload`, the rate profile through
:func:`~repro.workloads.trapezoid` — so the engine only ever sees generated
ciphertexts and rates.  A workload is run in *waves*: wave ``w`` does the
same work in every repetition, which is what lets the runner take a median
per wave.  Closed-loop workloads inject the next wave when ``env.run()``
has drained the previous one; ``elastic_surge`` is open loop on the
simulated clock and a wave is one slice of simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster import CloudProvider, HostSpec
from repro.coord import CoordinationKernel
from repro.elastic import ElasticityManager, ElasticityPolicy
from repro.experiments.harness import Deployment, ExperimentSetup
from repro.filtering import AspeLibrary, ExactBackend, SampledBackend, StoreConfig
from repro.pubsub import HubConfig, Publication, StreamHub, Subscription
from repro.sim import Environment
from repro.workloads import ScaleWorkload, trapezoid

__all__ = ["DEFAULT_SEED", "WORKLOADS", "Rig", "ClosedLoop", "ElasticSurge"]

DEFAULT_SEED = 20140630

M_SLICES = 4
BATCH_LIMIT = 128


@dataclass
class Rig:
    """One deployed hub, built fresh for every repetition."""

    env: Environment
    cloud: CloudProvider
    hub: StreamHub
    #: Elasticity manager (``elastic_surge`` only).
    manager: Optional[ElasticityManager] = None
    #: ``(simulated time, engine hosts)`` at every probe round.
    host_series: List[Tuple[float, int]] = field(default_factory=list)


@dataclass
class ClosedLoopInputs:
    #: ``(sub_id, ciphertext)`` of the preloaded subscriptions, and the same
    #: split by the AP's modulo placement over the M slices.
    subscriptions: List[tuple]
    per_slice: List[List[tuple]]
    publications: List[Any]
    #: Per wave, the injection order: ``("pub", pub_id)`` or
    #: ``("sub", (sub_id, ciphertext))``.
    waves: List[List[tuple]]
    #: Dense packed footprint of one M slice's share of the subscriptions.
    packed_bytes_per_slice: float


@dataclass(frozen=True)
class ClosedLoop:
    """2 AP / 4 M / 2 EP / 1 sink on three hosts, exact ASPE matching."""

    name: str
    subscriptions: int
    matching_rate: float
    publications: int
    window: int
    ap_slices: int = 2
    #: Out-of-core store: mmap chunks of 4096 rows under a residency budget
    #: of this share of the per-slice packed footprint (0 = default store).
    mmap_budget_share: float = 0.0
    #: One new subscription through ``hub.subscribe`` per this many
    #: publications, interleaved in injection order (0 = none).
    pubs_per_new_subscription: int = 0
    #: Worker threads per slice.  With more than one, a short tail batch at
    #: the AP finishes before the full batches ahead of it and overtakes
    #: them, so a workload that needs injection order at M pins this to 1.
    parallelism: int = 8
    #: Run one extra repetition with a ``Telemetry()`` bundle bound when
    #: tracing, to price the engine's own observability.
    telemetry_rep: bool = False
    #: The calibration kernels that share this workload's bottleneck.
    calibration: Tuple[str, ...] = ("python",)
    #: The oracle's hub-free reference checks every n-th publication.
    verify_every: int = 8

    def generate(self, seed: int) -> ClosedLoopInputs:
        source = ScaleWorkload(dimensions=4, matching_rate=self.matching_rate, seed=seed)
        subscriptions = [
            item
            for batch in source.subscription_batches(self.subscriptions)
            for item in batch
        ]
        publications = source.publications(self.publications)
        new_subscriptions = iter(())
        if self.pubs_per_new_subscription:
            new_subscriptions = iter(next(source.subscription_batches(
                self.publications // self.pubs_per_new_subscription,
                batch_size=self.publications,
                start_id=self.subscriptions,
            )))
        waves = []
        for low in range(0, self.publications, self.window):
            wave = []
            for pub_id in range(low, min(low + self.window, self.publications)):
                wave.append(("pub", pub_id))
                if self.pubs_per_new_subscription and (
                    (pub_id + 1) % self.pubs_per_new_subscription == 0
                ):
                    wave.append(("sub", next(new_subscriptions)))
            waves.append(wave)
        rows = sum(len(sub.predicates) for _, sub in subscriptions)
        width = subscriptions[0][1].predicates[0].vector.shape[0]
        per_slice = [
            [item for item in subscriptions if item[0] % M_SLICES == index]
            for index in range(M_SLICES)
        ]
        return ClosedLoopInputs(
            subscriptions, per_slice, publications, waves,
            rows / M_SLICES * (width + 2) * 8,
        )

    def build(self, inputs: ClosedLoopInputs, spill_dir: str, telemetry=None) -> Rig:
        store = StoreConfig()
        if self.mmap_budget_share:
            store = StoreConfig(
                backend="mmap",
                chunk_rows=4096,
                memory_budget_mb=(
                    self.mmap_budget_share * inputs.packed_bytes_per_slice / 2**20
                ),
                spill_dir=spill_dir,
            )
        env = Environment()
        cloud = CloudProvider(env, spec=HostSpec(cores=8), max_hosts=8)
        hosts = [cloud.provision_now() for _ in range(3)]
        config = HubConfig(
            ap_slices=self.ap_slices,
            m_slices=M_SLICES,
            ep_slices=2,
            sink_slices=1,
            parallelism=self.parallelism,
            encrypted=False,
            backend_factory=lambda index: ExactBackend(AspeLibrary()),
            ap_batch_limit=BATCH_LIMIT,
            matcher_batch_limit=BATCH_LIMIT,
            ep_batch_limit=BATCH_LIMIT,
            store=store,
            telemetry=telemetry,
        )
        hub = StreamHub(env, cloud.network, config)
        hub.deploy_all_on(hosts[:2], [hosts[2]])
        if self.pubs_per_new_subscription:
            # An external client has no NIC queue: a 4 KB subscription would
            # be overtaken by every 512 B publication injected after it in
            # the same instant.  Attached, the client sends in FIFO order.
            cloud.network.attach("ext:client")
        # Preload straight into the M libraries; subscriber == sub_id, which
        # is what a match list falls back to.
        for index, part in enumerate(inputs.per_slice):
            hub.runtime.handler_of(f"M:{index}").backend.library.store_many(part)
        return Rig(env, cloud, hub)

    def wave_count(self, inputs: ClosedLoopInputs) -> int:
        return len(inputs.waves)

    def run_wave(self, rig: Rig, inputs: ClosedLoopInputs, wave: int) -> None:
        hub, now = rig.hub, rig.env.now
        for kind, item in inputs.waves[wave]:
            if kind == "pub":
                hub.publish(Publication(item, payload=inputs.publications[item],
                                        published_at=now))
            else:
                sub_id, ciphertext = item
                hub.subscribe(Subscription(sub_id, sub_id, ciphertext))
        rig.env.run()


class _SeededSetup(ExperimentSetup):
    """The paper deployment with its sampled match counts drawn from the seed."""

    def hub_config(self) -> HubConfig:
        config = super().hub_config()
        rate, seed = self.matching_rate, self.seed
        config.backend_factory = lambda index: SampledBackend(
            rate, seed=seed * 1009 + index
        )
        return config


@dataclass
class ElasticInputs:
    seed: int
    rate_fn: Any
    duration_s: float


@dataclass(frozen=True)
class ElasticSurge:
    """Paper topology (8/16/8/4) scaling 1 -> 4 -> 1 hosts under a trapezoid.

    The issue's sizing (100 k modelled subscriptions, peak 160 pubs/s,
    23 040 publications, ~22 s of wall time per repetition) does not fit the
    benchmark's time cap.  Matching cost is linear in stored subscriptions,
    so four times the subscriptions at a quarter of the rate and of the
    matching probability walk the same utilisation trajectory — same hosts,
    same host-seconds, ~1 000 notifications per publication — with a quarter
    of the publications.
    """

    name: str = "elastic_surge"
    subscriptions: int = 400_000
    matching_rate: float = 0.0025
    peak_rate: float = 40.0
    time_scale: float = 0.08
    drain_s: float = 30.0
    waves: int = 12
    telemetry_rep: bool = False
    calibration: Tuple[str, ...] = ("python",)
    #: No reference: the sampled backend is stateful, not a function of input.
    verify_every: int = 0

    def generate(self, seed: int) -> ElasticInputs:
        ramp, plateau = 1200.0 * self.time_scale, 600.0 * self.time_scale
        rate_fn = trapezoid(ramp, plateau, ramp, peak=self.peak_rate)
        return ElasticInputs(seed, rate_fn, 2 * ramp + plateau + 300.0 * self.time_scale)

    def build(self, inputs: ElasticInputs, spill_dir: str, telemetry=None) -> Rig:
        deployment = Deployment(_SeededSetup(
            subscriptions=self.subscriptions,
            matching_rate=self.matching_rate,
            seed=inputs.seed,
            telemetry=telemetry,
        ))
        deployment.deploy_single_host()
        deployment.preload_subscriptions()
        manager = ElasticityManager(
            deployment.hub,
            deployment.cloud,
            deployment.engine_hosts,
            policy=ElasticityPolicy(),
            coord=CoordinationKernel(),
        )
        rig = Rig(deployment.env, deployment.cloud, deployment.hub, manager)
        manager.probe_listeners.append(
            lambda probes: rig.host_series.append((probes.time, len(probes.hosts)))
        )
        manager.start()
        deployment.source.publish_profile(inputs.rate_fn, duration_s=inputs.duration_s)
        return rig

    def wave_count(self, inputs: ElasticInputs) -> int:
        return self.waves

    def run_wave(self, rig: Rig, inputs: ElasticInputs, wave: int) -> None:
        total = inputs.duration_s + self.drain_s
        rig.env.run(until=total * (wave + 1) / self.waves)


WORKLOADS: Dict[str, Any] = {
    workload.name: workload
    for workload in (
        ClosedLoop("pipeline_burst", subscriptions=200, matching_rate=0.01,
                   publications=20_480, window=2_048, telemetry_rep=True,
                   verify_every=1),
        ClosedLoop("match_100k", subscriptions=100_000, matching_rate=0.001,
                   publications=1_024, window=256, calibration=("numpy_stream",)),
        ClosedLoop("outofcore_churn_100k", subscriptions=100_000, matching_rate=0.001,
                   publications=384, window=128, ap_slices=1,
                   mmap_budget_share=0.25, pubs_per_new_subscription=4,
                   parallelism=1,
                   calibration=("python", "numpy_stream", "numpy_block")),
        ElasticSurge(),
    )
}
