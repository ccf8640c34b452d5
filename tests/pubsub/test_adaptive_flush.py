"""End-to-end adaptive flush: zero loss, identical content, lower p99.

The transport's per-channel adaptive flush must batch the event plane
without changing what the hub computes: the notification multiset of a
run throttled by adaptive flush is exactly the multiset of an eager run,
and nothing is lost — including while a live M-slice migration runs in
the middle of an overload.  At moderate load it must also beat fixed
flush epochs on p99 delay.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filtering import Op, Predicate, PredicateSet
from repro.pubsub import Publication, Subscription
from repro.transport import TransportConfig

from .conftest import HubHarness, small_exact_config


def band(attribute, low, high):
    return PredicateSet.of(
        Predicate(attribute, Op.GE, low), Predicate(attribute, Op.LE, high)
    )


def notification_key(n):
    return (n.pub_id, n.count, tuple(sorted(n.subscriber_ids)))


def notifications(h):
    return sorted(map(notification_key, h.hub.notification_log))


THROTTLED = TransportConfig(
    flush_mode="adaptive",
    flush_s=0.01,
    flush_max_batch=8,
)


def run_overloaded(config, publications=120, subscriptions=40, disturb=None):
    h = HubHarness(config)
    for sub_id in range(subscriptions):
        low = (sub_id * 7) % 60
        h.hub.subscribe(Subscription(sub_id, 1000 + sub_id, band(0, low, low + 40)))
    h.env.run()
    # The whole burst lands at one instant: far beyond the drain rate.
    for pub_id in range(publications):
        h.hub.publish(
            Publication(
                pub_id,
                payload=[float(pub_id % 100), 0, 0, 0],
                published_at=h.env.now,
            )
        )
    if disturb is not None:
        disturb(h)
    h.env.run()
    return h


class TestOverload:
    def test_throttled_overload_matches_unthrottled_content(self):
        plain = run_overloaded(small_exact_config())
        throttled = run_overloaded(small_exact_config(net=THROTTLED))
        assert notifications(plain) == notifications(throttled)
        assert throttled.hub.duplicate_notifications == 0
        assert throttled.hub.notified_publications == 120

    def test_migration_mid_overload_keeps_content_and_exactly_once(self):
        def migrate(h):
            h.hub.runtime.migrate("M:0", h.cloud.provision_now())

        plain = run_overloaded(small_exact_config(), disturb=migrate)
        throttled = run_overloaded(small_exact_config(net=THROTTLED), disturb=migrate)
        assert notifications(plain) == notifications(throttled)
        assert throttled.hub.runtime.migrations_completed == 1
        assert throttled.hub.duplicate_notifications == 0


@settings(max_examples=12, deadline=None)
@given(
    filters=st.lists(
        st.tuples(
            st.floats(0, 80, allow_nan=False), st.floats(5, 40, allow_nan=False)
        ),
        min_size=1,
        max_size=10,
    ),
    publications=st.lists(
        st.floats(0, 120, allow_nan=False), min_size=1, max_size=25
    ),
    flush_s=st.sampled_from([0.0, 0.005, 0.05]),
    migrate=st.booleans(),
)
def test_flow_control_preserves_notification_multiset(
    filters, publications, flush_s, migrate
):
    """Adaptive flush never changes *what* is notified."""
    runs = []
    for config in (
        small_exact_config(),
        small_exact_config(
            net=TransportConfig(
                flush_mode="adaptive",
                flush_s=flush_s,
                flush_max_batch=4,
            )
        ),
    ):
        h = HubHarness(config)
        for sub_id, (low, width) in enumerate(filters):
            h.hub.subscribe(
                Subscription(sub_id, 1000 + sub_id, band(0, low, low + width))
            )
        h.env.run()
        for pub_id, value in enumerate(publications):
            h.hub.publish(
                Publication(pub_id, payload=[value, 0, 0, 0], published_at=h.env.now)
            )
        if migrate:
            h.hub.runtime.migrate("M:0", h.cloud.provision_now())
        h.env.run()
        runs.append(h)
    plain, throttled = runs
    assert notifications(plain) == notifications(throttled)
    assert plain.hub.notified_publications == len(publications)
    assert throttled.hub.notified_publications == len(publications)
    assert throttled.hub.duplicate_notifications == 0
    if migrate:
        assert throttled.hub.runtime.migrations_completed == 1


# -- adaptive flush vs fixed epochs -------------------------------------------

MODERATE_SUBSCRIPTIONS = 150
CALIBRATION_PUBS = 400
MODERATE_PUBS = 1_000
FLUSH_BUDGET_S = 0.08


def paced_hub(net):
    """The 2-host, 2/4/2/1 exact hub with band filters, subscriptions in.

    ``net`` is spelled out in full, so the comparison does not follow the
    environment's transport knobs.
    """
    h = HubHarness(small_exact_config(net=net))
    for sub_id in range(MODERATE_SUBSCRIPTIONS):
        low = (sub_id * 7) % 60
        h.hub.subscribe(Subscription(sub_id, 1000 + sub_id, band(0, low, low + 40)))
    h.env.run()
    return h


def payload_for(pub_id):
    return [float(pub_id % 100), 0.0, 0.0, 0.0]


def calibrated_capacity():
    """Drain rate of an instantaneous burst, in publications per sim-second."""
    h = paced_hub(TransportConfig())
    start = h.env.now
    for pub_id in range(CALIBRATION_PUBS):
        h.hub.publish(
            Publication(pub_id, payload=payload_for(pub_id), published_at=h.env.now)
        )
    h.env.run()
    return CALIBRATION_PUBS / (h.env.now - start)


def paced_delay_stats(net, rate):
    """Publish ``MODERATE_PUBS`` events paced at ``rate``/s, drain, and
    return the hub's delay statistics."""
    h = paced_hub(net)
    env = h.env
    interval = 1.0 / rate

    def driver():
        for pub_id in range(MODERATE_PUBS):
            h.hub.publish(
                Publication(pub_id, payload=payload_for(pub_id), published_at=env.now)
            )
            yield env.timeout(interval)

    env.process(driver())
    env.run()
    stats = h.hub.delay_tracker.stats()
    assert stats is not None and stats.count == MODERATE_PUBS
    return stats


def test_adaptive_flush_beats_fixed_epochs_on_p99_at_half_capacity():
    """Per-channel adaptive flush (batch-full or delay-budget deadline)
    delivers a lower p99 notification delay than fixed flush epochs at
    the same budget: at half the calibrated drain capacity busy channels
    fill their batch long before the budget runs out, while fixed epochs
    hold every message until the next boundary at every hop."""
    rate = 0.5 * calibrated_capacity()
    fixed = paced_delay_stats(
        TransportConfig(flush_mode="fixed", flush_s=FLUSH_BUDGET_S), rate
    )
    adaptive = paced_delay_stats(
        TransportConfig(
            flush_mode="adaptive", flush_s=FLUSH_BUDGET_S, flush_max_batch=4
        ),
        rate,
    )
    assert adaptive.p99 < fixed.p99
