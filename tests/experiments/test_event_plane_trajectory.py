"""The event plane's trajectory on a small paper-shaped hub, pinned by digest.

A 2 AP / 4 M / 2 EP / 1 sink hub on two 2-core hosts with fixed 0.1 s flush
epochs or adaptive flush on the same budget (match lists arrive in bursts,
so cores and the EP write lock are contended), a constant-interval source
and two live migrations mid-run.  The M backend below draws its match
counts from an integer recurrence over the *order* of its ``match`` calls,
so any change to the order of same-instant work — which worker wakes
first, who gets a freed core, what a woken worker coalesces — changes
counts, message sizes, EP costs and delays downstream.

The digests were recorded at the commit before the generator-per-worker
event plane was replaced by callbacks (PR 19's parent) and must not move: a
kernel or event-plane change that moves one has changed the tie rule, and
owes a re-baseline of every sim-clock figure in the repository.

Everything here is integer arithmetic or IEEE ``+ - * /`` on values the test
fixes (no ``random.gauss``, no ``**``, no env-dependent default), so the
constants hold on any host.
"""

import hashlib

import pytest

from repro.cluster import CloudProvider, HostSpec, Network
from repro.filtering import MatchingBackend, MatchResult
from repro.pubsub import HubConfig, StreamHub, Subscription
from repro.pubsub.source import SourceDriver
from repro.sim import Environment
from repro.transport import TransportConfig

MASK64 = (1 << 64) - 1
SUBSCRIPTIONS_PER_SLICE = 10_000
RATE_PER_S = 50.0
DURATION_S = 4.0

#: The two ways the transport batches the event plane: the fabric's fixed
#: 0.1 s epochs, or per-channel adaptive flush on the same 0.1 s budget.
FIXED = TransportConfig(flush_mode="fixed", flush_s=0.1)
ADAPTIVE = TransportConfig(flush_mode="adaptive", flush_s=0.1)


class OrderSensitiveBackend(MatchingBackend):
    """Match counts from a 64-bit LCG stepped once per ``match`` call."""

    def __init__(self, index: int):
        self.state = (0x9E3779B97F4A7C15 * (index + 1)) & MASK64
        self._subs = {}

    def store(self, sub_id, payload):
        self._subs[sub_id] = payload

    def remove(self, sub_id):
        del self._subs[sub_id]

    def match(self, pub_id, payload):
        self.state = (
            self.state * 6364136223846793005 + 2 * pub_id + 1
        ) & MASK64
        return MatchResult(count=(self.state >> 40) % 23)

    def subscription_count(self):
        return len(self._subs)

    def export_state(self):
        return (self.state, dict(self._subs))

    def import_state(self, state):
        self.state, self._subs = state[0], dict(state[1])


def build_hub(batch_limit: int, adaptive: bool):
    """The hub, deployed and loaded, its source and migrations scheduled."""
    env = Environment()
    cloud = CloudProvider(env, network=Network(env), spec=HostSpec(cores=2),
                          max_hosts=8)
    engine_hosts = [cloud.provision_now() for _ in range(2)]
    sink_host = cloud.provision_now()
    spare = cloud.provision_now()
    hub = StreamHub(env, cloud.network, HubConfig(
        ap_slices=2, m_slices=4, ep_slices=2, sink_slices=1, parallelism=2,
        backend_factory=OrderSensitiveBackend,
        ap_batch_limit=batch_limit,
        matcher_batch_limit=batch_limit,
        ep_batch_limit=batch_limit,
        net=ADAPTIVE if adaptive else FIXED,
    ))
    hub.deploy_all_on(engine_hosts, [sink_host])
    for index in range(4):
        handler = hub.runtime.handler_of(f"M:{index}")
        for n in range(SUBSCRIPTIONS_PER_SLICE):
            sub_id = n * 4 + index
            handler.preload(Subscription(sub_id, sub_id, None))
    SourceDriver(hub).publish_constant(RATE_PER_S, DURATION_S)
    reports = []

    def migrations():
        yield env.timeout(1.25)
        reports.append((yield hub.runtime.migrate("M:1", spare)))
        yield env.timeout(0.5)
        reports.append((yield hub.runtime.migrate("EP:0", spare)))

    env.process(migrations())
    return env, hub, reports


def run_hub(batch_limit: int, adaptive: bool):
    env, hub, reports = build_hub(batch_limit, adaptive)
    env.run()
    return hub, reports


def trajectory_digest(hub, reports) -> str:
    digest = hashlib.sha256()
    for sample in hub.delay_tracker.samples:
        digest.update(repr((
            sample.pub_id, sample.notifications, sample.delay.hex(),
        )).encode())
    for report in reports:
        digest.update(repr((
            report.slice_id, report.duration_s.hex(), report.interruption_s.hex(),
        )).encode())
    return digest.hexdigest()


#: (batch limit, adaptive flush) → the recorded digest.  The fixed-epoch
#: digests are the ones the module docstring dates; the adaptive ones were
#: recorded later, when the transport kept adaptive flush and the circuit
#: breaker as its only policies, and pin that channel path the same way.
RECORDED = {
    (1, False): "654d0361a3d2a69b6f1e852a3834864997c2508d75e67e432107fe493714d9a1",
    (1, True): "67eababc869fe23dd2d537c12c35eff851db590aa391ec63acc329d4f40ec232",
    (8, False): "af3a81d8bd068d0e75f380b136f3a841bdbad46cb62d1531591aed8b138218a5",
    (8, True): "2535da041a0ef3c9a5c209e036b04f37769eb7faac529bcc49563f020602f1dd",
}


@pytest.mark.parametrize("batch_limit,adaptive", sorted(RECORDED))
def test_trajectory_digest_is_the_recorded_one(batch_limit, adaptive):
    hub, reports = run_hub(batch_limit, adaptive)
    assert hub.notified_publications == hub.published_count == 200
    assert [report.slice_id for report in reports] == ["M:1", "EP:0"]
    assert trajectory_digest(hub, reports) == RECORDED[batch_limit, adaptive]
