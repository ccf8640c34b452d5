"""Tests for the experiment deployment harness."""

import pytest

from repro.experiments import Deployment, ExperimentSetup, host_split


def tiny_setup(**kwargs):
    defaults = dict(
        subscriptions=800,
        ap_slices=2,
        m_slices=4,
        ep_slices=2,
        sink_slices=1,
        max_hosts=16,
    )
    defaults.update(kwargs)
    return ExperimentSetup(**defaults)


class TestHostSplit:
    def test_paper_example_8_hosts(self):
        assert host_split(8) == {"AP": 2, "M": 4, "EP": 2}

    def test_12_hosts(self):
        assert host_split(12) == {"AP": 3, "M": 6, "EP": 3}

    def test_2_hosts(self):
        split = host_split(2)
        assert split["M"] == 1

    def test_too_few_hosts(self):
        with pytest.raises(ValueError):
            host_split(1)


class TestDeployment:
    def test_static_split_places_all_operators(self):
        deployment = Deployment(tiny_setup())
        deployment.deploy_static_split(4)
        placement = deployment.hub.runtime.placement()
        assert len(placement) == 2 + 4 + 2 + 1  # + sink
        assert len(deployment.engine_hosts) == 4

    def test_two_host_split_shares_ap_ep(self):
        deployment = Deployment(tiny_setup())
        deployment.deploy_static_split(2)
        placement = deployment.hub.runtime.placement()
        shared = placement["AP:0"]
        assert placement["EP:0"] == shared
        assert placement["M:0"] != shared

    def test_single_host_deployment(self):
        deployment = Deployment(tiny_setup())
        deployment.deploy_single_host()
        placement = deployment.hub.runtime.placement()
        engine_hosts = {
            placement[s] for s in deployment.hub.engine_slice_ids()
        }
        assert len(engine_hosts) == 1

    def test_preload_respects_ap_partitioning(self):
        deployment = Deployment(tiny_setup())
        deployment.deploy_single_host()
        deployment.preload_subscriptions()
        assert deployment.stored_subscriptions() == 800
        for index in range(4):
            handler = deployment.hub.runtime.handler_of(f"M:{index}")
            assert handler.backend.subscription_count() == 200

    def test_preload_matches_pipeline_storage(self):
        """Preloading must land each subscription exactly where the AP's
        modulo hashing would have."""
        from repro.pubsub import Subscription

        preloaded = Deployment(tiny_setup())
        preloaded.deploy_single_host()
        preloaded.preload_subscriptions(count=40)

        piped = Deployment(tiny_setup())
        piped.deploy_single_host()
        for sub_id in range(40):
            piped.hub.subscribe(Subscription(sub_id, sub_id, None))
        piped.env.run()

        for index in range(4):
            a = preloaded.hub.runtime.handler_of(f"M:{index}").backend
            b = piped.hub.runtime.handler_of(f"M:{index}").backend
            assert set(a.export_state()) == set(b.export_state())
