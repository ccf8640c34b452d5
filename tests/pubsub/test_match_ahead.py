"""Match-ahead: the real kernel call is decoupled from the simulated batch.

An M slice whose library keeps a mutation epoch matches, in one backend
call, its batch *and* the publications it already has in hand at the same
library state, and later batches pop their results.  Nothing simulated may
notice: same notifications, same instants, same counters.  What these
tests pin is the other half — every publication is matched exactly once,
at the epoch it is processed at, whatever was computed ahead of it.
"""

import random
from itertools import chain
from math import ceil

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import SliceContext, StreamEvent
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
    SampledBackend,
)
from repro.pubsub import (
    KIND_PUBLICATION,
    KIND_SUBSCRIPTION,
    MatcherHandler,
    Publication,
    Subscription,
)
from repro.pubsub.operators import _MATCH_AHEAD

from ..stores import on_mmap_store
from .conftest import HubHarness, small_exact_config

CIPHER = AspeCipher(AspeKey.generate(4, rng=random.Random(7)), rng=random.Random(8))


def band(low, high):
    return CIPHER.encrypt_subscription(
        PredicateSet.of(Predicate(0, Op.GE, low), Predicate(0, Op.LE, high))
    )


def point(value):
    return CIPHER.encrypt_publication([float(value), 0.0, 0.0, 0.0])


def pub_event(pub_id, value, seq=None):
    return StreamEvent(
        KIND_PUBLICATION,
        Publication(pub_id, payload=point(value)),
        "test", pub_id if seq is None else seq, 100, 0.0,
    )


def sub_event(sub_id, low, high, seq=0):
    return StreamEvent(
        KIND_SUBSCRIPTION,
        Subscription(sub_id, 1000 + sub_id, band(low, high)),
        "test-subs", seq, 100, 0.0,
    )


class RecordingBackend(ExactBackend):
    """Notes, per backend call, the epoch and the publications it matched."""

    def __init__(self, store_config=None):
        super().__init__(AspeLibrary(store_config))
        self.calls = []

    def match(self, pub_id, payload):
        self.calls.append((self.library.epoch, [pub_id]))
        return super().match(pub_id, payload)

    def match_batch(self, pub_ids, payloads):
        self.calls.append((self.library.epoch, list(pub_ids)))
        return super().match_batch(pub_ids, payloads)

    def matched(self):
        return list(chain.from_iterable(pub_ids for _, pub_ids in self.calls))


def recording_config(store_config, **kwargs):
    return small_exact_config(
        backend_factory=lambda index: RecordingBackend(),
        store=store_config,
        **kwargs,
    )


class PlainContext:
    """The fake context of the older handler tests: no view."""

    def __init__(self):
        self.emitted = []

    def emit(self, *emission):
        self.emitted.append(emission)

    def emit_batch(self, emissions):
        self.emitted.extend(emissions)


class ViewContext(PlainContext):
    """A context whose view is whatever the test says is in hand."""

    def __init__(self, in_hand=()):
        super().__init__()
        self.in_hand = list(in_hand)

    def upcoming(self):
        return iter(self.in_hand)


def make_handler(store_config=None, backend=None, **kwargs):
    return MatcherHandler(
        0, backend or RecordingBackend(store_config), CostModel(),
        encrypted=False, **kwargs,
    )


def subscribers(ctx):
    return [emission[2].subscriber_ids for emission in ctx.emitted]


# -- (i) nothing simulated notices --------------------------------------------


def run_script(look_ahead, parallelism, limit, script, migrate, store_config):
    """Two bursts of interleaved subscriptions and publications, the second
    injected while the first is still being matched (and M:0 is moving)."""
    with pytest.MonkeyPatch.context() as patch:
        if not look_ahead:
            patch.delattr(SliceContext, "upcoming")
        h = HubHarness(
            recording_config(
                store_config,
                m_slices=2, parallelism=parallelism, matcher_batch_limit=limit,
            )
        )
        for sub_id in range(6):
            h.hub.subscribe(Subscription(sub_id, 1000 + sub_id, band(10 * sub_id, 10 * sub_id + 25)))
        h.env.run()
        half = len(script) // 2
        pub_id, sub_id = 0, 100
        for index, burst in enumerate((script[:half], script[half:])):
            for kind, value in burst:
                if kind == "pub":
                    h.hub.publish(
                        Publication(pub_id, payload=point(value), published_at=h.env.now)
                    )
                    pub_id += 1
                else:
                    h.hub.subscribe(Subscription(sub_id, 1000 + sub_id, band(value, value + 30)))
                    sub_id += 1
            if migrate and index == 0:
                h.hub.runtime.migrate("M:0", h.cloud.provision_now())
            h.env.run(until=h.env.now + 0.002)
        h.env.run()
    handlers = [h.hub.runtime.handler_of(f"M:{i}") for i in range(2)]
    return h, handlers, pub_id


STEP = st.one_of(
    st.tuples(st.just("pub"), st.integers(0, 80)),
    st.tuples(st.just("pub"), st.integers(0, 80)),
    st.tuples(st.just("pub"), st.integers(0, 80)),
    st.tuples(st.just("sub"), st.integers(0, 60)),
)


@settings(max_examples=20, deadline=None)
@given(
    parallelism=st.sampled_from([1, 8]),
    limit=st.sampled_from([1, 8, 128]),
    script=st.lists(STEP, min_size=8, max_size=60),
    migrate=st.booleans(),
)
def test_look_ahead_is_invisible_on_the_simulated_clock(
    store_config, parallelism, limit, script, migrate
):
    ahead, ahead_handlers, published = run_script(
        True, parallelism, limit, script, migrate, store_config
    )
    plain, plain_handlers, _ = run_script(
        False, parallelism, limit, script, migrate, store_config
    )
    assert ahead.hub.notification_log == plain.hub.notification_log
    assert ahead.hub.delay_tracker.samples == plain.hub.delay_tracker.samples
    assert ahead.env.now == plain.env.now
    assert ahead.hub.notified_publications == published
    assert ahead.hub.duplicate_notifications == 0
    for with_view, without in zip(ahead_handlers, plain_handlers):
        assert with_view.publications_matched == without.publications_matched
        assert with_view.publications_batched == without.publications_batched
        assert without.publications_matched_ahead == 0
        assert len(with_view._ahead) <= _MATCH_AHEAD
    if migrate:
        assert ahead.hub.runtime.migrations_completed == 1


def test_look_ahead_engages_on_a_burst_through_the_hub(store_config):
    script = [("pub", value % 80) for value in range(64)]
    ahead, handlers, _ = run_script(True, 8, 1, script, False, store_config)
    plain, plain_handlers, _ = run_script(False, 8, 1, script, False, store_config)
    assert ahead.hub.notification_log == plain.hub.notification_log
    assert sum(handler.publications_matched_ahead for handler in handlers) > 0
    for handler, reference in zip(handlers, plain_handlers):
        assert len(handler.backend.calls) < len(reference.backend.calls)
        assert sorted(handler.backend.matched()) == sorted(reference.backend.matched())


# -- (ii) one call per 128 in hand, each publication exactly once -------------


@pytest.mark.parametrize("limit", [1, 8, 128])
@pytest.mark.parametrize("count", [5, 128, 300])
def test_a_burst_in_hand_reaches_the_kernel_in_whole_calls(store_config, count, limit):
    h = HubHarness(
        recording_config(
            store_config, ap_slices=1, m_slices=1, ep_slices=1,
            matcher_batch_limit=limit,
        )
    )
    handler = h.hub.runtime.handler_of("M:0")
    for sub_id in range(4):
        handler.preload(Subscription(sub_id, 1000 + sub_id, band(20 * sub_id, 20 * sub_id + 30)))
    instance = h.hub.runtime._active("M:0")
    for pub_id in range(count):
        instance.deliver(pub_event(pub_id, pub_id % 80))
    h.env.run()
    backend = handler.backend
    assert len(backend.calls) == ceil(count / _MATCH_AHEAD)
    assert all(len(pub_ids) <= _MATCH_AHEAD for _, pub_ids in backend.calls)
    assert sorted(backend.matched()) == list(range(count))
    assert handler.publications_matched == count
    assert h.hub.notified_publications == count
    assert not handler._ahead
    reference = AspeLibrary()
    reference.import_state(backend.library.export_state())
    by_pub = {n.pub_id: n.subscriber_ids for n in h.hub.notification_log}
    for pub_id in range(count):
        expected = tuple(1000 + sub_id for sub_id in reference.match(point(pub_id % 80)))
        assert by_pub[pub_id] == expected


def test_the_cache_never_outgrows_one_look_ahead(store_config):
    handler = make_handler(store_config)
    handler.preload(Subscription(0, 1000, band(0, 40)))
    events = [pub_event(pub_id, pub_id % 80) for pub_id in range(400)]
    ctx = ViewContext()
    position, sizes = 0, iter([1, 3, 127, 1, 128, 2, 60, 5, 1, 72])
    while position < len(events):
        batch = events[position : position + next(sizes)]
        position += len(batch)
        ctx.in_hand = events[position:]
        if len(batch) == 1:
            handler.process(batch[0], ctx)
        else:
            handler.process_batch(batch, ctx)
        assert len(handler._ahead) <= _MATCH_AHEAD
    assert sorted(handler.backend.matched()) == list(range(400))
    assert [emission[2].pub_id for emission in ctx.emitted] == list(range(400))
    assert not handler._ahead


# -- (iii) a store between look-ahead and consumption -------------------------


def test_a_queued_writer_keeps_the_inbox_out_of_the_look_ahead(store_config):
    """p0 and p1 run, the subscription waits for the lock, p2 waits in the
    inbox behind it: p2 is matched after the store, and only then."""
    h = HubHarness(
        recording_config(
            store_config, ap_slices=1, m_slices=1, ep_slices=1, parallelism=3
        )
    )
    handler = h.hub.runtime.handler_of("M:0")
    handler.preload(Subscription(0, 1000, band(0, 40)))
    stored_at = handler.backend.library.epoch
    instance = h.hub.runtime._active("M:0")
    for delivered in (
        pub_event(0, 5), pub_event(1, 5), sub_event(1, 0, 40), pub_event(2, 5),
    ):
        instance.deliver(delivered)
    h.env.run()
    assert handler.backend.calls == [(stored_at, [0, 1]), (stored_at + 1, [2])]
    by_pub = {n.pub_id: n.subscriber_ids for n in h.hub.notification_log}
    assert by_pub == {0: (1000,), 1: (1000,), 2: (1000, 1001)}


def test_the_inbox_run_stops_at_a_subscription(store_config):
    """p2 is matched ahead with p0 and p1, before the subscription queued
    behind it takes the lock; p3 behind the subscription is not."""
    h = HubHarness(
        recording_config(
            store_config, ap_slices=1, m_slices=1, ep_slices=1, parallelism=2
        )
    )
    handler = h.hub.runtime.handler_of("M:0")
    handler.preload(Subscription(0, 1000, band(0, 40)))
    stored_at = handler.backend.library.epoch
    instance = h.hub.runtime._active("M:0")
    for delivered in (
        pub_event(0, 5), pub_event(1, 5), pub_event(2, 5),
        sub_event(1, 0, 40), pub_event(3, 5),
    ):
        instance.deliver(delivered)
    h.env.run()
    assert handler.backend.calls == [(stored_at, [0, 1, 2]), (stored_at + 1, [3])]
    by_pub = {n.pub_id: n.subscriber_ids for n in h.hub.notification_log}
    assert by_pub == {0: (1000,), 1: (1000,), 2: (1000,), 3: (1000, 1001)}


def test_a_subscription_on_its_way_to_an_idle_worker_overtakes_the_inbox(store_config):
    """The case the view cannot see: at the instant p0 completes, a
    subscription has been handed to the idle second worker but that
    worker's step has not run, and p2, p3 wait in the inbox with no one
    queued for the lock.  They are matched ahead; the subscription then
    gets the lock between them, and p3's early result must not be used."""
    h = HubHarness(
        recording_config(
            store_config, ap_slices=1, m_slices=1, ep_slices=1, parallelism=2
        )
    )
    handler = h.hub.runtime.handler_of("M:0")
    handler.preload(Subscription(0, 1000, band(0, 40)))
    stored_at = handler.backend.library.epoch
    instance = h.hub.runtime._active("M:0")
    first = pub_event(0, 5)
    instance.deliver(first)

    def arrive():
        for delivered in (sub_event(1, 0, 40), pub_event(2, 5), pub_event(3, 5)):
            instance.deliver(delivered)

    # Scheduled before p0's core time is, so at that instant it goes first.
    h.env.call_later(handler.cost(first), arrive)
    h.env.run()
    assert handler.backend.calls == [(stored_at, [0, 2, 3]), (stored_at + 1, [3])]
    by_pub = {n.pub_id: n.subscriber_ids for n in h.hub.notification_log}
    assert by_pub == {0: (1000,), 2: (1000,), 3: (1000, 1001)}


def test_a_result_from_another_epoch_is_dropped_unread(store_config):
    """The guard itself: the library changes behind the handler's back."""
    handler = make_handler(store_config)
    handler.preload(Subscription(0, 1000, band(0, 40)))
    first, second, third = (pub_event(pub_id, 5) for pub_id in range(3))
    ctx = ViewContext([second, third])
    handler.process(first, ctx)
    assert len(handler._ahead) == 2
    handler.backend.library.store(1, band(0, 40))
    ctx.in_hand = [third]
    handler.process(second, ctx)
    ctx.in_hand = []
    handler.process(third, ctx)
    assert subscribers(ctx) == [(1000,), (1000, 1), (1000, 1)]
    assert handler.backend.matched() == [0, 1, 2, 1, 2]
    assert not handler._ahead


def test_a_subscription_through_the_handler_drops_the_cache(store_config):
    handler = make_handler(store_config)
    first, second = pub_event(0, 5), pub_event(1, 5)
    ctx = ViewContext([second])
    handler.process(first, ctx)
    assert len(handler._ahead) == 1
    handler.process(sub_event(0, 0, 40), ctx)
    assert not handler._ahead
    handler.process(second, ViewContext())
    assert subscribers(ctx) == [()]


# -- (iv) results belong to events, not to publication ids --------------------


def test_two_publications_sharing_an_id_get_their_own_results(store_config):
    handler = make_handler(store_config)
    handler.preload(Subscription(0, 1000, band(0, 40)))
    inside, outside = pub_event(7, 5, seq=0), pub_event(7, 70, seq=1)
    lone = pub_event(8, 5, seq=2)
    ctx = ViewContext([inside, outside])
    handler.process(lone, ctx)
    assert len(handler._ahead) == 2
    ctx.in_hand = []
    handler.process_batch([inside, outside], ctx)
    assert subscribers(ctx) == [(1000,), (1000,), ()]
    assert len(handler.backend.calls) == 1


# -- (v) whatever replaces the library empties the cache ----------------------


@pytest.fixture
def primed(store_config):
    handler = make_handler(store_config)
    handler.preload(Subscription(0, 1000, band(0, 40)))
    events = [pub_event(pub_id, 5) for pub_id in range(4)]
    handler.process(events[0], ViewContext(events[1:]))
    assert len(handler._ahead) == 3 and handler.publications_matched_ahead == 3
    return handler, events


def test_detach_empties_the_cache(primed):
    handler, _ = primed
    handler.detach()
    assert not handler._ahead


def test_import_state_empties_the_cache(primed):
    handler, events = primed
    handler.import_state(
        {"backend": {5: band(0, 40)}, "subscribers": {5: 1005}}
    )
    assert not handler._ahead
    ctx = ViewContext()
    handler.process(events[1], ctx)
    assert subscribers(ctx) == [(1005,)]


# -- (vi) who keeps the old path ----------------------------------------------


class NoLookingContext(PlainContext):
    def upcoming(self):
        raise AssertionError("this backend must not look ahead")


def test_a_sampled_backend_never_looks_ahead():
    handler = make_handler(backend=SampledBackend(0.5, seed=3))
    reference = SampledBackend(0.5, seed=3)
    for sub_id in range(50):
        handler.preload(Subscription(sub_id, sub_id))
        reference.store(sub_id, None)
    ctx = NoLookingContext()
    events = [
        StreamEvent(KIND_PUBLICATION, Publication(pub_id), "test", pub_id, 100, 0.0)
        for pub_id in range(6)
    ]
    handler.process(events[0], ctx)
    handler.process_batch(events[1:], ctx)
    # The RNG draws stay in processing order.
    assert [emission[2].count for emission in ctx.emitted] == [
        reference.match(pub_id, None).count for pub_id in range(6)
    ]
    assert handler.publications_matched_ahead == 0


def test_a_library_without_an_epoch_never_looks_ahead():
    handler = make_handler(backend=ExactBackend(BruteForceLibrary()))
    handler.process(
        StreamEvent(KIND_PUBLICATION, Publication(0, payload=[5.0]), "test", 0, 100, 0.0),
        NoLookingContext(),
    )
    assert handler.publications_matched == 1


def test_a_context_without_the_view_matches_each_batch_itself(store_config):
    handler = make_handler(store_config)
    handler.preload(Subscription(0, 1000, band(0, 40)))
    ctx = PlainContext()
    events = [pub_event(pub_id, 5) for pub_id in range(5)]
    handler.process(events[0], ctx)
    handler.process_batch(events[1:], ctx)
    assert [pub_ids for _, pub_ids in handler.backend.calls] == [[0], [1, 2, 3, 4]]
    assert handler.publications_matched_ahead == 0 and not handler._ahead
    assert subscribers(ctx) == [(1000,)] * 5


TestOnMmapStore = on_mmap_store(
    test_look_ahead_is_invisible_on_the_simulated_clock,
    test_look_ahead_engages_on_a_burst_through_the_hub,
    test_a_burst_in_hand_reaches_the_kernel_in_whole_calls,
    test_the_cache_never_outgrows_one_look_ahead,
    test_a_queued_writer_keeps_the_inbox_out_of_the_look_ahead,
    test_the_inbox_run_stops_at_a_subscription,
    test_a_subscription_on_its_way_to_an_idle_worker_overtakes_the_inbox,
    test_a_result_from_another_epoch_is_dropped_unread,
    test_a_subscription_through_the_handler_drops_the_cache,
    test_two_publications_sharing_an_id_get_their_own_results,
    test_detach_empties_the_cache,
    test_import_state_empties_the_cache,
    test_a_context_without_the_view_matches_each_batch_itself,
)
