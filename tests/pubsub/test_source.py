"""Tests for the source driver."""

import pytest

from repro.pubsub.source import SourceDriver
from .conftest import HubHarness, small_sampled_config


@pytest.fixture
def harness():
    return HubHarness(small_sampled_config(rate=0.01))


def test_publish_constant_rate(harness):
    driver = SourceDriver(harness.hub)
    driver.publish_constant(rate_per_s=50.0, duration_s=2.0)
    harness.env.run()
    assert driver.publications_sent == pytest.approx(100, abs=2)
    assert harness.hub.notified_publications == driver.publications_sent


def test_publish_profile_follows_rate_function(harness):
    driver = SourceDriver(harness.hub)
    # 10/s for the first second, 100/s for the second.
    driver.publish_profile(lambda t: 10.0 if t < 1.0 else 100.0, duration_s=2.0)
    harness.env.run()
    assert 100 <= driver.publications_sent <= 115


def test_publish_profile_idles_through_zero_rate(harness):
    driver = SourceDriver(harness.hub)
    driver.publish_profile(
        lambda t: 0.0 if t < 5.0 else 10.0, duration_s=6.0, idle_resolution_s=0.5
    )
    harness.env.run()
    assert 8 <= driver.publications_sent <= 12


def test_poisson_arrivals_are_random_but_rate_faithful(harness):
    driver = SourceDriver(harness.hub, seed=3, poisson=True)
    driver.publish_constant(rate_per_s=100.0, duration_s=5.0)
    harness.env.run()
    assert 400 < driver.publications_sent < 600


def test_publication_ids_unique_and_timestamped(harness):
    driver = SourceDriver(harness.hub)
    p1 = driver.publish_now()
    p2 = driver.publish_now()
    assert p1.pub_id != p2.pub_id
    assert p1.published_at == harness.env.now


def test_invalid_arguments(harness):
    driver = SourceDriver(harness.hub)
    with pytest.raises(ValueError):
        driver.publish_constant(10.0, duration_s=0)
