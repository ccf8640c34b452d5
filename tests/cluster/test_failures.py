"""Tests for host crash injection and the failure detector."""

import pytest

from repro.cluster import (
    CloudProvider,
    FailureDetector,
    crash_host,
)
from repro.sim import Environment


def test_crash_host_releases_immediately():
    env = Environment()
    cloud = CloudProvider(env)
    host = cloud.provision_now()
    crash_host(cloud, host)
    assert host.released
    assert cloud.active_count == 0
    with pytest.raises(RuntimeError):
        crash_host(cloud, host)


def test_detector_notifies_after_delay():
    env = Environment()
    cloud = CloudProvider(env)
    host = cloud.provision_now()
    detector = FailureDetector(env, detection_delay_s=3.0)
    heard = []
    detector.subscribe(lambda h: heard.append((env.now, h.host_id)))

    def scenario():
        yield env.timeout(10.0)
        crash_host(cloud, host)
        detector.report_crash(host)

    env.process(scenario())
    env.run()
    assert heard == [(13.0, host.host_id)]
    assert detector.detected == [host]


def test_detector_invalid_delay():
    env = Environment()
    with pytest.raises(ValueError):
        FailureDetector(env, detection_delay_s=-1)

