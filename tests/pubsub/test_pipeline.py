"""End-to-end tests of the AP → M → EP → SINK pipeline."""

import pytest

from repro.filtering import AspeLibrary, ExactBackend, Op, Predicate, PredicateSet
from repro.pubsub import HubConfig, Publication, StreamHub, Subscription

from ..stores import on_mmap_store
from .conftest import HubHarness, small_exact_config, small_sampled_config


def band(attribute, low, high):
    return PredicateSet.of(
        Predicate(attribute, Op.GE, low), Predicate(attribute, Op.LE, high)
    )


def test_matching_publication_reaches_sink(exact_hub):
    h = exact_hub
    h.hub.subscribe(Subscription(1, subscriber=101, filter_payload=band(0, 10, 20)))
    h.env.run()
    h.hub.publish(Publication(1, payload=[15.0, 0, 0, 0], published_at=h.env.now))
    h.env.run()
    assert h.hub.notified_publications == 1
    sample = h.hub.delay_tracker.samples[0]
    assert sample.notifications == 1
    assert sample.delay > 0


def test_non_matching_publication_notifies_nobody(exact_hub):
    h = exact_hub
    h.hub.subscribe(Subscription(1, 101, band(0, 10, 20)))
    h.env.run()
    h.hub.publish(Publication(1, payload=[99.0, 0, 0, 0], published_at=h.env.now))
    h.env.run()
    # A notification sample exists (the EP joined all M lists) with count 0.
    assert h.hub.delay_tracker.samples[0].notifications == 0


def test_every_matching_subscriber_notified_exactly_once(exact_hub):
    """The core pub/sub invariant across AP partitioning and EP joining."""
    h = exact_hub
    matching = list(range(0, 40, 2))
    for sub_id in range(40):
        filter_payload = band(0, 0, 50) if sub_id in matching else band(0, 60, 70)
        h.hub.subscribe(Subscription(sub_id, 1000 + sub_id, filter_payload))
    h.env.run()
    h.hub.publish(Publication(7, payload=[25.0, 0, 0, 0], published_at=h.env.now))
    h.env.run()
    samples = h.hub.delay_tracker.samples
    assert len(samples) == 1
    assert samples[0].notifications == len(matching)


def test_subscriptions_partitioned_across_m_slices(exact_hub):
    h = exact_hub
    count = 40
    for sub_id in range(count):
        h.hub.subscribe(Subscription(sub_id, sub_id, band(0, 0, 100)))
    h.env.run()
    per_slice = [
        h.hub.runtime.handler_of(f"M:{i}").backend.subscription_count()
        for i in range(h.hub.config.m_slices)
    ]
    assert sum(per_slice) == count  # a partition: no loss, no duplication
    assert all(c == count // 4 for c in per_slice)  # modulo hashing balance


def test_multiple_publications_each_joined_once(exact_hub):
    h = exact_hub
    h.hub.subscribe(Subscription(0, 0, band(0, 0, 1000)))
    h.env.run()
    for pub_id in range(10):
        h.hub.publish(Publication(pub_id, payload=[1.0, 0, 0, 0], published_at=h.env.now))
    h.env.run()
    assert h.hub.notified_publications == 10
    assert {s.pub_id for s in h.hub.delay_tracker.samples} == set(range(10))


def test_sampled_hub_notification_counts_follow_rate():
    h = HubHarness(small_sampled_config(rate=0.05))
    from repro.pubsub import Subscription as Sub

    for sub_id in range(1000):
        h.hub.subscribe(Sub(sub_id, sub_id, None))
    h.env.run()
    for pub_id in range(50):
        h.hub.publish(Publication(pub_id, published_at=h.env.now))
    h.env.run()
    counts = [s.notifications for s in h.hub.delay_tracker.samples]
    assert len(counts) == 50
    mean = sum(counts) / len(counts)
    assert 40 < mean < 60  # Binomial(1000, 0.05) → mean 50


def test_aspe_end_to_end(store_config, aspe_cipher):
    """Fully encrypted filtering through the pipeline."""
    config = HubConfig(
        ap_slices=2,
        m_slices=2,
        ep_slices=1,
        sink_slices=1,
        encrypted=True,
        backend_factory=lambda index: ExactBackend(AspeLibrary()),
        store=store_config,
    )
    h = HubHarness(config)
    h.hub.subscribe(
        Subscription(1, 11, aspe_cipher.encrypt_subscription(band(0, 100, 200)))
    )
    h.hub.subscribe(
        Subscription(2, 22, aspe_cipher.encrypt_subscription(band(1, 500, 600)))
    )
    h.env.run()
    h.hub.publish(
        Publication(
            1,
            payload=aspe_cipher.encrypt_publication([150.0, 550.0, 0.0, 0.0]),
            published_at=h.env.now,
        )
    )
    h.hub.publish(
        Publication(
            2,
            payload=aspe_cipher.encrypt_publication([150.0, 0.0, 0.0, 0.0]),
            published_at=h.env.now,
        )
    )
    h.env.run()
    by_pub = {s.pub_id: s.notifications for s in h.hub.delay_tracker.samples}
    assert by_pub == {1: 2, 2: 1}


def test_backend_factory_required():
    import pytest as _pytest
    from repro.sim import Environment
    from repro.cluster import Network

    env = Environment()
    with _pytest.raises(ValueError):
        StreamHub(env, Network(env), HubConfig())


def test_invalid_slice_counts_rejected():
    with pytest.raises(ValueError):
        HubConfig(ap_slices=0)


def test_operator_counters(exact_hub):
    h = exact_hub
    h.hub.subscribe(Subscription(0, 0, band(0, 0, 1000)))
    h.env.run()
    h.hub.publish(Publication(0, payload=[1.0, 0, 0, 0], published_at=h.env.now))
    h.env.run()
    ap_handlers = [
        h.hub.runtime.handler_of(f"AP:{i}") for i in range(h.hub.config.ap_slices)
    ]
    assert sum(a.publications_routed for a in ap_handlers) == 1
    assert sum(a.subscriptions_routed for a in ap_handlers) == 1
    m_handlers = [
        h.hub.runtime.handler_of(f"M:{i}") for i in range(h.hub.config.m_slices)
    ]
    # Publications are broadcast: every M slice matched it.
    assert all(m.publications_matched == 1 for m in m_handlers)


def test_engine_slice_ids_excludes_sink(exact_hub):
    ids = exact_hub.hub.engine_slice_ids()
    assert "SINK:0" not in ids
    assert set(ids) == {
        *(f"AP:{i}" for i in range(2)),
        *(f"M:{i}" for i in range(4)),
        *(f"EP:{i}" for i in range(2)),
    }


TestOnMmapStore = on_mmap_store(test_aspe_end_to_end)
