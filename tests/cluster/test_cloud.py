"""Unit tests for hosts and the cloud provider."""

import pytest

from repro.sim import Environment
from repro.cluster import CloudProvider, HostSpec


def test_host_spec_defaults_match_testbed():
    spec = HostSpec()
    assert spec.cores == 8
    assert spec.memory_bytes == 8 * 1024 ** 3


def test_host_spec_validation():
    with pytest.raises(ValueError):
        HostSpec(cores=0)
    with pytest.raises(ValueError):
        HostSpec(memory_bytes=-1)


def test_provision_now_creates_running_host():
    env = Environment()
    cloud = CloudProvider(env)
    host = cloud.provision_now()
    assert not host.released
    assert cloud.active_count == 1
    assert host.host_id == "host-0"


def test_provision_takes_boot_delay():
    env = Environment()
    cloud = CloudProvider(env, provisioning_delay_s=5.0)
    booted = []

    def proc():
        host = yield from cloud.provision()
        booted.append((host.host_id, env.now))

    env.process(proc())
    env.run()
    assert booted == [("host-0", 5.0)]


def test_release_frees_capacity_and_ids_are_unique():
    env = Environment()
    cloud = CloudProvider(env, max_hosts=1)
    host = cloud.provision_now()
    cloud.release(host)
    assert cloud.active_count == 0
    host2 = cloud.provision_now()
    assert host2.host_id != host.host_id


def test_capacity_exhaustion_raises():
    env = Environment()
    cloud = CloudProvider(env, max_hosts=2)
    cloud.provision_now()
    cloud.provision_now()
    with pytest.raises(RuntimeError):
        cloud.provision_now()


def test_double_release_rejected():
    env = Environment()
    cloud = CloudProvider(env)
    host = cloud.provision_now()
    cloud.release(host)
    with pytest.raises(RuntimeError):
        cloud.release(host)


def test_host_seconds_accounting():
    env = Environment()
    cloud = CloudProvider(env)
    host = cloud.provision_now()

    def proc():
        yield env.timeout(10.0)
        cloud.release(host)
        yield env.timeout(5.0)

    env.process(proc())
    env.run(until=15.0)
    assert cloud.host_seconds() == pytest.approx(10.0)


def test_released_host_detaches_from_network():
    env = Environment()
    cloud = CloudProvider(env)
    host = cloud.provision_now()
    assert cloud.network.is_attached(host.host_id)
    cloud.release(host)
    assert not cloud.network.is_attached(host.host_id)
