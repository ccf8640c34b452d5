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


def test_match_knob_validation_rejects_bad_values():
    with pytest.raises(ValueError, match="match_workers must be >= 0"):
        small_exact_config(match_workers=-1)
    with pytest.raises(ValueError, match="match_chunk_rows must be >= 1"):
        small_exact_config(match_chunk_rows=0)
    with pytest.raises(ValueError, match="match_backend"):
        small_exact_config(match_backend="bogus")


def test_match_knobs_default_from_environment(monkeypatch):
    monkeypatch.setenv("REPRO_MATCH_WORKERS", "3")
    monkeypatch.setenv("REPRO_MATCH_BACKEND", "pool")
    monkeypatch.setenv("REPRO_MATCH_CHUNK_ROWS", "512")
    config = small_exact_config()
    assert config.match_workers == 3
    assert config.match_backend == "pool"
    assert config.match_chunk_rows == 512


def test_match_knobs_defaults_without_environment(monkeypatch):
    for name in ("REPRO_MATCH_WORKERS", "REPRO_MATCH_BACKEND", "REPRO_MATCH_CHUNK_ROWS"):
        monkeypatch.delenv(name, raising=False)
    config = small_exact_config()
    assert config.match_workers == 0
    assert config.match_backend == "auto"
    assert config.match_chunk_rows == 4096


def test_match_workers_env_rejects_non_integers(monkeypatch):
    monkeypatch.setenv("REPRO_MATCH_WORKERS", "many")
    with pytest.raises(ValueError, match="REPRO_MATCH_WORKERS"):
        small_exact_config()


def test_injected_executor_is_used_verbatim():
    from repro.parallel import InlineMatchExecutor

    executor = InlineMatchExecutor()
    h = HubHarness(small_exact_config(match_executor=executor))
    assert h.hub.match_executor is executor
    executor.shutdown()


def test_zero_workers_without_injection_has_no_executor(monkeypatch):
    monkeypatch.delenv("REPRO_MATCH_WORKERS", raising=False)
    h = HubHarness(small_exact_config())
    assert h.hub.match_executor is None


def test_grouped_configs_mirror_into_flat_aliases():
    from repro.elastic import PolicyConfig
    from repro.parallel import MatchConfig
    from repro.filtering.store import StoreConfig
    from repro.transport import NetConfig

    config = small_exact_config(
        match=MatchConfig(workers=2, backend="pool", chunk_rows=64),
        store=StoreConfig(backend="mmap", chunk_rows=128),
        net=NetConfig(flush_mode="adaptive", backpressure=True),
        policy=PolicyConfig(signals=("cpu", "slo")),
    )
    assert (config.match_workers, config.match_backend) == (2, "pool")
    assert config.match_chunk_rows == 64
    assert (config.store.backend, config.store.chunk_rows) == ("mmap", 128)
    assert config.net_flush_mode == "adaptive"
    assert config.net_backpressure is True
    assert config.policy.signals == ("cpu", "slo")


def test_flat_fields_build_the_groups_when_no_group_is_given():
    config = small_exact_config(match_workers=3, net_backpressure=True)
    assert config.match.workers == 3
    assert config.net.backpressure is True
    assert config.policy is not None


def test_explicit_group_wins_over_flat_fields():
    from repro.parallel import MatchConfig

    config = small_exact_config(
        match=MatchConfig(workers=4), match_workers=1
    )
    assert config.match_workers == 4


def test_deprecated_config_accessors_return_the_groups():
    config = small_exact_config()
    assert config.transport_config() is config.net


def test_policy_group_defaults_from_environment(monkeypatch):
    monkeypatch.setenv("REPRO_POLICY_SIGNALS", "cpu,spill")
    monkeypatch.setenv("REPRO_POLICY_SPILL_DEPTH_LIMIT", "75")
    config = small_exact_config()
    assert config.policy.signals == ("cpu", "spill")
    assert config.policy.spill_depth_limit == 75


def test_deploy_all_on_places_engine_and_sink_separately():
    h = HubHarness(small_exact_config(), engine_hosts=2)
    placement = h.hub.runtime.placement()
    engine_hosts = {placement[s] for s in h.hub.engine_slice_ids()}
    assert h.sink_host.host_id not in engine_hosts
    assert placement["SINK:0"] == h.sink_host.host_id
