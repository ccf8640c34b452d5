"""AP/EP event coalescing: equivalence, accounting and exactly-once.

With ``ap_batch_limit``/``ep_batch_limit`` > 1, AP and EP slices drain
consecutively queued events into one handler call and micro-batch their
emissions per destination slice (one simulated transfer per group).
These tests pin the invariants batching must preserve: the identical
notification multiset (exactly-once, including across a live migration),
identical summed CPU cost, and unchanged per-event counters.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import StreamEvent
from repro.filtering import (
    BruteForceLibrary,
    CostModel,
    ExactBackend,
    Op,
    Predicate,
    PredicateSet,
)
from repro.pubsub import (
    AccessPointHandler,
    ExitPointHandler,
    Publication,
    Subscription,
    KIND_MATCH_LIST,
    KIND_NOTIFY,
    KIND_PUBLICATION,
    KIND_SUBSCRIPTION,
)
from repro.pubsub.messages import MatchList
from repro.telemetry import Telemetry
from repro.engine.handler import BROADCAST

from .conftest import HubHarness, small_exact_config


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

    def emit_broadcast(self, operator, kind, payload, size_bytes):
        self.emitted.append((operator, kind, payload, size_bytes, BROADCAST))

    def emit_batch(self, emissions):
        self.emitted.extend(emissions)
        self.batches += 1


class TestAccessPointUnit:
    def make(self, batch_limit=8):
        return AccessPointHandler(CostModel(), batch_limit=batch_limit)

    def test_coalesces_mixed_kinds(self):
        handler = self.make()
        pub = event(KIND_PUBLICATION, Publication(1, payload=[5.0]))
        sub = event(KIND_SUBSCRIPTION, Subscription(1, 1, band(0, 0, 10)))
        assert handler.coalesce_limit(pub) == 8
        assert handler.coalesce_limit(sub) == 8
        assert handler.coalesce_with(pub, sub)
        assert handler.coalesce_with(sub, pub)

    def test_batch_limit_one_disables(self):
        assert self.make(batch_limit=1).coalesce_limit(
            event(KIND_PUBLICATION, Publication(1, payload=[5.0]))
        ) == 1

    def test_invalid_batch_limit(self):
        with pytest.raises(ValueError):
            self.make(batch_limit=0)

    def test_process_batch_matches_per_event_emissions(self):
        batched, plain = self.make(), self.make()
        events = [
            event(KIND_SUBSCRIPTION, Subscription(3, 333, band(0, 0, 10)), seq=0),
            event(KIND_PUBLICATION, Publication(7, payload=[5.0]), seq=1),
            event(KIND_SUBSCRIPTION, Subscription(4, 444, band(0, 0, 10)), seq=2),
        ]
        batched_ctx, plain_ctx = FakeContext(), FakeContext()
        batched.process_batch(events, batched_ctx)
        for e in events:
            plain.process(e, plain_ctx)
        assert batched_ctx.emitted == plain_ctx.emitted
        assert batched_ctx.batches == 1
        assert batched.events_batched == 3
        assert batched.subscriptions_routed == plain.subscriptions_routed == 2
        assert batched.publications_routed == plain.publications_routed == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            self.make().process(event("bogus", None), FakeContext())


class TestExitPointUnit:
    def make(self, batch_limit=8, m_slices=2):
        return ExitPointHandler(
            CostModel(), m_slice_count=m_slices, batch_limit=batch_limit
        )

    def match_list(self, pub_id, m_slice, subscribers=(1,)):
        return event(
            KIND_MATCH_LIST,
            MatchList(
                pub_id=pub_id,
                m_slice=m_slice,
                count=len(subscribers),
                subscriber_ids=tuple(subscribers),
                published_at=0.0,
            ),
        )

    def test_coalesces_joins_and_dispatches(self):
        handler = self.make()
        ml = self.match_list(1, 0)
        assert handler.coalesce_limit(ml) == 8
        assert handler.coalesce_with(ml, ml)

    def test_invalid_batch_limit(self):
        with pytest.raises(ValueError):
            self.make(batch_limit=0)

    def test_batch_join_accumulates_whole_batch_before_dispatch(self):
        handler = self.make()
        ctx = FakeContext()
        handler.process_batch(
            [self.match_list(5, 0, (10,)), self.match_list(5, 1, (20,))], ctx
        )
        # Both partial lists joined in one pass -> one NOTIFY emission.
        assert ctx.batches == 1
        assert len(ctx.emitted) == 1
        operator, kind, notification, _, key = ctx.emitted[0]
        assert kind == KIND_NOTIFY and key == 5
        assert notification.count == 2
        assert sorted(notification.subscriber_ids) == [10, 20]
        assert handler.pending == {}
        assert handler.events_batched == 2

    def test_batch_matches_per_event_emissions(self):
        batched, plain = self.make(), self.make()
        events = [
            self.match_list(1, 0, (10,)),
            self.match_list(2, 0, (30,)),
            self.match_list(1, 1, (20,)),
        ]
        batched_ctx, plain_ctx = FakeContext(), FakeContext()
        batched.process_batch(events, batched_ctx)
        for e in events:
            plain.process(e, plain_ctx)
        assert batched_ctx.emitted == plain_ctx.emitted
        assert batched.pending.keys() == plain.pending.keys()

    def test_incomplete_batch_emits_nothing(self):
        handler = self.make(m_slices=3)
        ctx = FakeContext()
        handler.process_batch([self.match_list(1, 0), self.match_list(1, 1)], ctx)
        assert ctx.emitted == []
        assert 1 in handler.pending


def notification_key(n):
    return (n.pub_id, n.count, tuple(sorted(n.subscriber_ids)))


def run_hub(ap_limit, ep_limit, matcher_limit=1, publications=40, telemetry=None):
    harness = HubHarness(
        small_exact_config(
            ap_batch_limit=ap_limit,
            ep_batch_limit=ep_limit,
            matcher_batch_limit=matcher_limit,
            telemetry=telemetry,
        )
    )
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


def processed_events(harness):
    runtime = harness.hub.runtime
    return sum(
        runtime.slice_stats(slice_id)["processed"]
        for slice_id in harness.hub.engine_slice_ids()
    )


class TestHubEquivalence:
    def test_batched_hub_produces_identical_notification_multiset(self):
        plain = run_hub(1, 1)
        batched = run_hub(16, 16, matcher_limit=16)
        assert sorted(map(notification_key, plain.hub.notification_log)) == sorted(
            map(notification_key, batched.hub.notification_log)
        )
        assert batched.hub.duplicate_notifications == 0
        # Batching collapses transfers and calls, never the event stream.
        assert processed_events(batched) == processed_events(plain)
        # The burst actually exercised both batch paths.
        ap_batched = sum(
            batched.hub.runtime.handler_of(f"AP:{i}").events_batched
            for i in range(batched.hub.config.ap_slices)
        )
        ep_batched = sum(
            batched.hub.runtime.handler_of(f"EP:{i}").events_batched
            for i in range(batched.hub.config.ep_slices)
        )
        assert ap_batched > 0
        assert ep_batched > 0

    def test_coalesced_batches_are_counted(self):
        telemetry = Telemetry()
        run_hub(16, 16, matcher_limit=16, telemetry=telemetry)
        for operator in ("AP", "M", "EP"):
            batches = telemetry.batches_coalesced.labels(operator=operator).value
            events = telemetry.events_coalesced.labels(operator=operator).value
            assert batches > 0, operator
            assert events >= 2 * batches, operator

    def test_batched_hub_charges_identical_cpu(self):
        plain = run_hub(1, 1)
        batched = run_hub(16, 16, matcher_limit=16)
        for harness in (plain, batched):
            harness.cpu_s = sum(
                host.cpu.busy_core_seconds() for host in harness.engine_hosts
            )
        assert batched.cpu_s == pytest.approx(plain.cpu_s, rel=1e-9)

    def test_batched_hub_sends_fewer_network_batches(self):
        plain = run_hub(1, 1)
        batched = run_hub(16, 16, matcher_limit=16)

        def grouped_transfers(harness):
            return sum(
                harness.cloud.network.stats(host.host_id).batches_sent
                for host in harness.engine_hosts
            )

        assert grouped_transfers(plain) == 0
        assert grouped_transfers(batched) > 0


@settings(max_examples=15, deadline=None)
@given(
    filters=st.lists(
        st.tuples(st.floats(0, 80, allow_nan=False), st.floats(10, 40, allow_nan=False)),
        min_size=1,
        max_size=10,
    ),
    publications=st.lists(st.floats(0, 120, allow_nan=False), min_size=1, max_size=25),
    limits=st.tuples(st.integers(2, 16), st.integers(2, 16), st.integers(2, 16)),
    migrate=st.booleans(),
)
def test_batching_preserves_notification_multiset(filters, publications, limits, migrate):
    """Batched AP+M+EP == per-event path, including across a live migration."""
    ap_limit, m_limit, ep_limit = limits
    runs = []
    for config in (
        small_exact_config(),
        small_exact_config(
            ap_batch_limit=ap_limit,
            matcher_batch_limit=m_limit,
            ep_batch_limit=ep_limit,
        ),
    ):
        h = HubHarness(config)
        for sub_id, (low, width) in enumerate(filters):
            h.hub.subscribe(Subscription(sub_id, 1000 + sub_id, band(0, low, low + width)))
        h.env.run()
        for pub_id, value in enumerate(publications):
            h.hub.publish(
                Publication(pub_id, payload=[value, 0, 0, 0], published_at=h.env.now)
            )
        if migrate:
            h.hub.runtime.migrate("M:0", h.cloud.provision_now())
        h.env.run()
        runs.append(h)
    plain, batched = runs
    assert sorted(map(notification_key, plain.hub.notification_log)) == sorted(
        map(notification_key, batched.hub.notification_log)
    )
    assert plain.hub.notified_publications == len(publications)
    assert batched.hub.duplicate_notifications == 0
    if migrate:
        assert batched.hub.runtime.migrations_completed == 1
