"""MatcherHandler publication coalescing: equivalence and accounting.

With `matcher_batch_limit > 1`, an M slice drains consecutively queued
publications into one `match_batch` backend call.  These tests pin the
invariants the batching must preserve: identical match lists in identical
per-publication order, identical summed CPU cost, and no interference
with subscription (write-locked) events.
"""

import random

import pytest

from repro.engine import StreamEvent
from repro.filtering import (
    AspeCipher,
    AspeKey,
    AspeLibrary,
    BruteForceLibrary,
    CostModel,
    ExactBackend,
    Op,
    Predicate,
    PredicateSet,
)
from repro.pubsub import (
    MatcherHandler,
    Publication,
    StreamHub,
    Subscription,
    KIND_PUBLICATION,
    KIND_SUBSCRIPTION,
)

from ..stores import on_mmap_store
from .conftest import HubHarness, small_exact_config, small_sampled_config


def band(attribute, low, high):
    return PredicateSet.of(
        Predicate(attribute, Op.GE, low), Predicate(attribute, Op.LE, high)
    )


def event(kind, payload, seq=0):
    return StreamEvent(kind, payload, "test", seq, 100, 0.0)


class FakeContext:
    def __init__(self):
        self.emitted = []
        self.batches = 0

    def emit(self, operator, kind, payload, size_bytes, key):
        self.emitted.append((operator, kind, payload, size_bytes, key))

    def emit_batch(self, emissions):
        self.emitted.extend(emissions)
        self.batches += 1


class TestHandlerUnit:
    def make(self, batch_limit=8):
        return MatcherHandler(
            0,
            ExactBackend(BruteForceLibrary()),
            CostModel(),
            encrypted=False,
            batch_limit=batch_limit,
        )

    def test_coalesce_only_publications(self):
        handler = self.make()
        pub = event(KIND_PUBLICATION, Publication(1, payload=[5.0]))
        sub = event(KIND_SUBSCRIPTION, Subscription(1, 1, band(0, 0, 10)))
        assert handler.coalesce_limit(pub) == 8
        assert handler.coalesce_limit(sub) == 1
        assert handler.coalesce_with(pub, pub)
        assert not handler.coalesce_with(pub, sub)

    def test_batch_limit_one_disables(self):
        handler = self.make(batch_limit=1)
        pub = event(KIND_PUBLICATION, Publication(1, payload=[5.0]))
        assert handler.coalesce_limit(pub) == 1

    def test_invalid_batch_limit(self):
        with pytest.raises(ValueError):
            self.make(batch_limit=0)

    def test_process_batch_emits_per_publication_in_order(self):
        handler = self.make()
        handler.process(
            event(KIND_SUBSCRIPTION, Subscription(3, 333, band(0, 0, 10))),
            FakeContext(),
        )
        ctx = FakeContext()
        events = [
            event(KIND_PUBLICATION, Publication(i, payload=[float(v)]), seq=i)
            for i, v in enumerate([5.0, 50.0, 7.0])
        ]
        handler.process_batch(events, ctx)
        assert [e[2].pub_id for e in ctx.emitted] == [0, 1, 2]
        assert [e[2].count for e in ctx.emitted] == [1, 0, 1]
        assert ctx.emitted[0][2].subscriber_ids == (333,)
        assert handler.publications_matched == 3
        assert handler.publications_batched == 3


def run_hub(batch_limit, config_factory=small_exact_config, publications=30):
    harness = HubHarness(config_factory(matcher_batch_limit=batch_limit))
    for sub_id in range(40):
        payload = band(0, 0, 50) if sub_id % 2 == 0 else band(0, 60, 70)
        harness.hub.subscribe(Subscription(sub_id, 1000 + sub_id, payload))
    harness.env.run()
    for pub_id in range(publications):
        harness.hub.publish(
            Publication(
                pub_id, payload=[float(pub_id * 2), 0, 0, 0], published_at=harness.env.now
            )
        )
    harness.env.run()
    return harness


class TestHubEquivalence:
    def test_batched_hub_produces_identical_notifications(self):
        plain = run_hub(1)
        batched = run_hub(8)
        assert [
            (n.pub_id, n.count, tuple(sorted(n.subscriber_ids)))
            for n in plain.hub.notification_log
        ] == [
            (n.pub_id, n.count, tuple(sorted(n.subscriber_ids)))
            for n in batched.hub.notification_log
        ]
        coalesced = sum(
            batched.hub.runtime.handler_of(f"M:{i}").publications_batched
            for i in range(batched.hub.config.m_slices)
        )
        assert coalesced > 0  # the burst actually exercised batching

    def test_batched_hub_charges_identical_cpu(self):
        plain = run_hub(1)
        batched = run_hub(8)
        for harness in (plain, batched):
            harness.cpu_s = sum(
                host.cpu.busy_core_seconds() for host in harness.engine_hosts
            )
        assert batched.cpu_s == pytest.approx(plain.cpu_s, rel=1e-9)

    def test_sampled_backend_total_draws_invariant(self):
        # Each M slice's SampledBackend draws once per publication from a
        # per-slice RNG with constant (n, p), so the *sequence* of draws is
        # identical under coalescing — batching only reassigns which
        # in-flight publication receives which draw (process-completion
        # order across parallel workers shifts).  Every publication still
        # gets exactly one notification and the total matched count is
        # bit-identical.
        plain = run_hub(1, config_factory=small_sampled_config)
        batched = run_hub(8, config_factory=small_sampled_config)
        assert sorted(n.pub_id for n in plain.hub.notification_log) == sorted(
            n.pub_id for n in batched.hub.notification_log
        )
        assert sum(n.count for n in plain.hub.notification_log) == sum(
            n.count for n in batched.hub.notification_log
        )


def test_batched_aspe_pipeline(store_config, aspe_cipher):
    """Encrypted end-to-end flow with coalescing: ids survive the batch."""
    config = small_exact_config(
        encrypted=True,
        backend_factory=lambda index: ExactBackend(AspeLibrary()),
        store=store_config,
        matcher_batch_limit=4,
    )
    harness = HubHarness(config)
    rng = random.Random(5)
    matching = set()
    for sub_id in range(20):
        low = 0.0 if sub_id % 3 == 0 else 600.0
        if sub_id % 3 == 0:
            matching.add(1000 + sub_id)
        harness.hub.subscribe(
            Subscription(
                sub_id,
                1000 + sub_id,
                aspe_cipher.encrypt_subscription(band(0, low, low + 300.0)),
            )
        )
    harness.env.run()
    for pub_id in range(6):
        harness.hub.publish(
            Publication(
                pub_id,
                payload=aspe_cipher.encrypt_publication(
                    [100.0 + rng.random(), 0.0, 0.0, 0.0]
                ),
                published_at=harness.env.now,
            )
        )
    harness.env.run()
    assert len(harness.hub.notification_log) == 6
    for notification in harness.hub.notification_log:
        assert set(notification.subscriber_ids) == matching


TestOnMmapStore = on_mmap_store(test_batched_aspe_pipeline)
