"""Tests for HubConfig derivations and hub accessors."""

import pytest

from repro.engine import MigrationCosts
from repro.filtering import CostModel
from repro.pubsub import HubConfig, Subscription

from .conftest import HubHarness, small_exact_config, small_sampled_config


def test_defaults_match_paper_setup():
    config = HubConfig.sampled(0.01)
    assert (config.ap_slices, config.m_slices, config.ep_slices) == (8, 16, 8)
    assert config.parallelism == 8
    assert config.encrypted is True


def test_migration_costs_derived_from_cost_model():
    cost_model = CostModel()
    config = HubConfig.sampled(0.01, cost_model=cost_model)
    costs = config.migration_costs()
    assert isinstance(costs, MigrationCosts)
    assert costs.pre_s + costs.post_s == pytest.approx(cost_model.migration_overhead_s)
    # Per-byte serialization equals the per-subscription cost spread over
    # the per-subscription state size.
    assert costs.serialize_s_per_byte * cost_model.subscription_bytes == pytest.approx(
        cost_model.migration_serialize_sub_s
    )


def test_sampled_factory_builds_independent_backends():
    config = HubConfig.sampled(0.5)
    a = config.backend_factory(0)
    b = config.backend_factory(1)
    a.store(1, None)
    assert b.subscription_count() == 0


def test_published_and_subscribed_counters():
    h = HubHarness(small_sampled_config())
    assert h.hub.published_count == 0
    h.hub.subscribe(Subscription(1, 1, None))
    assert h.hub.subscribed_count == 1


def test_duplicate_notification_suppression_counter():
    from repro.pubsub import Notification

    h = HubHarness(small_sampled_config())
    notification = Notification(7, 3, None, published_at=0.0)
    h.hub._collect(notification, now=1.0)
    h.hub._collect(notification, now=2.0)
    assert h.hub.notified_publications == 1
    assert h.hub.duplicate_notifications == 1


def test_grouped_configs_are_kept_as_passed():
    from repro.filtering.store import StoreConfig
    from repro.transport import TransportConfig

    store = StoreConfig(backend="mmap", chunk_rows=128)
    net = TransportConfig(flush_mode="adaptive", flush_s=0.01)
    config = small_exact_config(store=store, net=net)
    assert (config.store, config.net) == (store, net)
    h = HubHarness(config)
    assert h.hub.runtime.transport.config is net


def test_net_group_has_no_flat_spelling():
    from repro.transport import TransportConfig

    assert small_exact_config().net == TransportConfig()
    with pytest.raises(TypeError):
        small_exact_config(net_flush_mode="adaptive")


def test_deploy_all_on_places_engine_and_sink_separately():
    h = HubHarness(small_exact_config(), engine_hosts=2)
    placement = h.hub.runtime.placement()
    engine_hosts = {placement[s] for s in h.hub.engine_slice_ids()}
    assert h.sink_host.host_id not in engine_hosts
    assert placement["SINK:0"] == h.sink_host.host_id


def test_importing_the_hub_loads_no_shared_memory_machinery():
    """The only way real matching work leaves the simulated clock is in
    process (match-ahead): nothing under ``repro.pubsub`` maps segments or
    forks workers."""
    import os
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.pubsub; "
         "print('multiprocessing.shared_memory' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.strip() == "False"
