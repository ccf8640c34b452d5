"""Unit tests of the adaptive-flush transport channels.

Each test drives a small engine deployment through ``EngineRuntime`` so
channels sit exactly where production puts them — between the routing
layer and the network fabric — and asserts the channel-level contracts:
flush causes, the delay budget, the circuit breaker, FIFO preservation
under every flush mode, and teardown.
"""

import pytest

from repro.telemetry import Telemetry
from repro.transport import TransportConfig
from repro.transport.channel import BREAKER_PROBE_S, FLUSH_CAUSES

from ..engine.helpers import Harness, Recorder


def make(transport_config=None, hosts=1, slices=1, cost_s=0.0):
    h = Harness(hosts=hosts, transport_config=transport_config)
    h.runtime.add_operator("M", slices, lambda i: Recorder(cost_s=cost_s))
    h.runtime.deploy_operator("M", h.hosts)
    return h


def route_n(h, n, key=0):
    for i in range(n):
        h.runtime.route("client", "M", "e", i, 100, key=key)


def payloads(h, slice_id="M:0"):
    return [p for (_, _, p) in h.handler(slice_id).received]


def adaptive(flush_s=0.05, max_batch=64):
    return TransportConfig(
        flush_mode="adaptive", flush_s=flush_s, flush_max_batch=max_batch
    )


def split(hosts=2, config=None):
    """Source slice ``S:0`` on the first host, receiver ``M:0`` on the second."""
    h = Harness(hosts=hosts, transport_config=config or adaptive())
    h.runtime.add_operator("S", 1, lambda i: Recorder())
    h.runtime.deploy_operator("S", h.hosts[:1])
    h.runtime.add_operator("M", 1, lambda i: Recorder())
    h.runtime.deploy_operator("M", h.hosts[1:2])
    return h, [host.host_id for host in h.hosts]


def send_from_s(h, payloads_):
    for payload in payloads_:
        h.runtime.route("S:0", "M", "e", payload, 100, key=0)


def s_channel(h):
    return h.runtime.transport.channel("S:0", h.runtime._active("M:0"))


#: Every flush policy the transport offers, across the adaptive space.
EVERY_MODE = [
    pytest.param(TransportConfig(flush_mode="fixed", flush_s=0.05), id="fixed-0.05"),
    pytest.param(TransportConfig(flush_mode="fixed", flush_s=0.2), id="fixed-0.2"),
    pytest.param(adaptive(0.0, 1), id="adaptive-0-1"),
    pytest.param(adaptive(0.0, 64), id="adaptive-0-64"),
    pytest.param(adaptive(0.02, 1), id="adaptive-0.02-1"),
    pytest.param(adaptive(0.02, 8), id="adaptive-0.02-8"),
    pytest.param(adaptive(0.2, 8), id="adaptive-0.2-8"),
    pytest.param(adaptive(0.2, 64), id="adaptive-0.2-64"),
    pytest.param(adaptive(1.0, 4), id="adaptive-1-4"),
    pytest.param(adaptive(1.0, 1000), id="adaptive-1-1000"),
]


class TestPassthrough:
    def test_default_config_is_passthrough_with_no_channels(self):
        h = make()
        assert h.runtime.transport.passthrough
        route_n(h, 5)
        h.env.run()
        assert payloads(h) == list(range(5))
        assert h.runtime.transport.channel_count() == 0

    def test_fixed_mode_programs_the_fabric_epochs(self):
        h = make(TransportConfig(flush_mode="fixed", flush_s=0.25))
        assert h.cloud.network.batch_flush_s == 0.25
        assert h.runtime.transport.passthrough

    def test_adaptive_mode_disables_fabric_epochs(self):
        h = Harness(transport_config=TransportConfig(flush_mode="adaptive"))
        assert h.cloud.network.batch_flush_s == 0.0
        assert not h.runtime.transport.passthrough


class TestAdaptiveFlush:
    def test_full_batch_flushes_immediately(self):
        h = make(TransportConfig(
            flush_mode="adaptive", flush_s=1.0, flush_max_batch=4
        ))
        route_n(h, 4)
        h.env.run(until=0.5)  # well before the 1 s deadline
        assert payloads(h) == list(range(4))
        assert h.runtime.transport.flush_cause_totals()["full"] == 1

    def test_small_batch_waits_for_the_deadline(self):
        h = make(TransportConfig(
            flush_mode="adaptive", flush_s=0.05, flush_max_batch=64
        ))
        route_n(h, 3)
        h.env.run()
        assert payloads(h) == list(range(3))
        # Nothing left the sender before the delay budget expired.
        assert all(t >= 0.05 for (t, _, _) in h.handler("M:0").received)
        totals = h.runtime.transport.flush_cause_totals()
        assert totals["deadline"] == 1
        assert totals["full"] == 0

    def test_zero_budget_flushes_each_message_eagerly(self):
        h = make(TransportConfig(
            flush_mode="adaptive", flush_s=0.0, flush_max_batch=64
        ))
        route_n(h, 3)
        h.env.run()
        assert payloads(h) == list(range(3))
        assert h.runtime.transport.flush_cause_totals()["eager"] == 3

    def test_deadline_timer_does_not_refire_for_delivered_batch(self):
        h = make(TransportConfig(
            flush_mode="adaptive", flush_s=0.05, flush_max_batch=2
        ))
        route_n(h, 2)  # full flush; the armed timer must not double-send
        h.env.run()
        assert payloads(h) == [0, 1]
        totals = h.runtime.transport.flush_cause_totals()
        assert totals["full"] == 1
        assert totals["deadline"] == 0


class TestChannels:
    def config(self, max_batch=4):
        return adaptive(0.05, max_batch)

    def test_adaptive_run_delivers_the_same_sequences(self):
        plain = make(hosts=2, slices=2, cost_s=0.005)
        batched = make(
            TransportConfig(flush_mode="adaptive", flush_s=0.02, flush_max_batch=8),
            hosts=2,
            slices=2,
            cost_s=0.005,
        )
        for h in (plain, batched):
            for i in range(60):
                h.runtime.route("client", "M", "e", i, 100, key=i % 2)
            h.env.run()
        for index in range(2):
            assert payloads(plain, f"M:{index}") == payloads(
                batched, f"M:{index}"
            )

    def test_release_instance_discards_queued_messages_silently(self):
        h = make(self.config(max_batch=4), cost_s=0.01)
        route_n(h, 6)
        transport = h.runtime.transport
        instance = h.runtime._active("M:0")
        channel = transport.channel("client", instance)
        # One full batch went on the wire; two wait for the deadline.
        assert channel.pending_count == 2
        transport.release_instance(instance)
        assert channel.released
        assert transport.channel_count() == 0
        h.env.run()  # the armed deadline fires into the released channel
        # Only the wire-sent batch arrived; the queued remainder is gone.
        assert payloads(h) == [0, 1, 2, 3]

    def test_channel_is_per_source_and_destination(self):
        h = make(self.config(), hosts=2, slices=2)
        h.runtime.route("client", "M", "e", "a", 100, key=0)
        h.runtime.route("other", "M", "e", "b", 100, key=0)
        h.runtime.route("client", "M", "e", "c", 100, key=1)
        assert h.runtime.transport.channel_count() == 3
        h.env.run()
        assert sorted(payloads(h, "M:0")) == ["a", "b"]
        assert payloads(h, "M:1") == ["c"]

    def test_breaker_holds_the_queue_and_flushes_on_heal(self):
        h, ids = split(config=self.config(max_batch=64))
        network = h.cloud.network
        network.partition(ids[:1], ids[1:])
        send_from_s(h, range(5))
        h.env.run(until=2.0)
        channel = s_channel(h)
        # The deadline flush found the link cut: nothing left the sender.
        assert channel.pending_count == 5
        assert payloads(h) == []
        assert channel.breaker_trips == 1
        assert network.partition_drops == 0
        network.heal()
        h.env.run()
        assert payloads(h) == list(range(5))
        assert channel.pending_count == 0
        assert channel.flush_causes["heal"] == 1

@pytest.mark.parametrize("config", EVERY_MODE)
class TestEveryModeAgreesWithEager:
    MESSAGES = 60

    def run(self, config):
        h = make(config, hosts=2, slices=2, cost_s=0.005)
        for i in range(self.MESSAGES):
            h.runtime.route("client", "M", "e", i, 100, key=i % 2)
        h.env.run()
        return h

    def test_per_slice_sequences_match_eager(self, config):
        eager, other = self.run(None), self.run(config)
        for index in range(2):
            assert payloads(other, f"M:{index}") == payloads(
                eager, f"M:{index}"
            )

    def test_every_message_crosses_the_fabric_once(self, config):
        h = self.run(config)
        network = h.cloud.network
        received = sum(
            network.stats(host.host_id).messages_received for host in h.hosts
        )
        assert received == self.MESSAGES
        channels = h.runtime.transport._channels.values()
        assert all(channel.pending_count == 0 for channel in channels)


@pytest.mark.parametrize("flush_s,max_batch,n", [
    (0.01, 2, 5),
    (0.01, 8, 8),
    (0.01, 64, 3),
    (0.05, 1, 4),
    (0.05, 4, 10),
    (0.05, 64, 64),
    (0.25, 3, 7),
    (0.25, 16, 33),
    (0.25, 100, 99),
])
def test_nothing_waits_past_the_delay_budget(flush_s, max_batch, n):
    h = make(adaptive(flush_s, max_batch))
    route_n(h, n)
    channel = h.runtime.transport.channel("client", h.runtime._active("M:0"))
    assert channel.pending_count == n % max_batch
    h.env.run(until=flush_s * 1.001)
    assert channel.pending_count == 0
    assert channel.flush_causes["full"] == n // max_batch
    assert channel.flush_causes["deadline"] == (1 if n % max_batch else 0)
    h.env.run()
    # A batch lands at once and the slice's workers split it, so this
    # checks exactly-once; the FIFO tests above check the order.
    assert sorted(payloads(h)) == list(range(n))


class TestBreaker:
    @pytest.mark.parametrize("config,n", [
        pytest.param(adaptive(0.0, 64), 3, id="eager"),
        pytest.param(adaptive(0.05, 2), 5, id="full"),
        pytest.param(adaptive(0.05, 64), 1, id="deadline-one"),
        pytest.param(adaptive(0.05, 64), 7, id="deadline-many"),
    ])
    def test_breaker_holds_whatever_cause_finds_the_link_cut(self, config, n):
        h, ids = split(config=config)
        network = h.cloud.network
        network.partition(ids[:1], ids[1:])
        send_from_s(h, range(n))
        h.env.run(until=1.0)
        channel = s_channel(h)
        assert channel.pending_count == n
        assert payloads(h) == []
        assert channel.breaker_trips == 1
        assert network.partition_drops == 0
        assert sum(channel.flush_causes.values()) == 0
        network.heal()
        h.env.run()
        assert payloads(h) == list(range(n))
        assert channel.flush_causes == dict(
            dict.fromkeys(FLUSH_CAUSES, 0), heal=1
        )

    def test_long_partition_reprobes_without_retripping(self):
        h, ids = split()
        network = h.cloud.network
        network.partition(ids[:1], ids[1:])
        send_from_s(h, range(3))
        h.env.run(until=20 * BREAKER_PROBE_S)
        channel = s_channel(h)
        assert channel.breaker_trips == 1
        assert channel.pending_count == 3
        network.heal()
        h.env.run()
        assert payloads(h) == [0, 1, 2]
        assert channel.breaker_trips == 1

    def test_messages_routed_while_open_join_the_held_queue_in_order(self):
        h, ids = split()
        network = h.cloud.network
        network.partition(ids[:1], ids[1:])
        send_from_s(h, range(3))
        h.env.run(until=1.0)
        send_from_s(h, range(3, 6))
        h.env.run(until=2.0)
        channel = s_channel(h)
        assert channel.pending_count == 6
        assert channel.breaker_trips == 1
        network.heal()
        h.env.run()
        assert payloads(h) == list(range(6))
        assert channel.flush_causes["heal"] == 1

    def test_release_while_open_discards_the_held_queue(self):
        h, ids = split()
        network = h.cloud.network
        network.partition(ids[:1], ids[1:])
        send_from_s(h, range(4))
        h.env.run(until=1.0)
        channel = s_channel(h)
        h.runtime.transport.release_instance(h.runtime._active("M:0"))
        network.heal()
        h.env.run()  # the pending probe finds the channel released
        assert payloads(h) == []
        assert channel.flush_causes["heal"] == 0
        assert h.runtime.transport.channel_count() == 0

    def test_a_partition_elsewhere_leaves_the_channel_alone(self):
        h, ids = split(hosts=3)
        network = h.cloud.network
        network.partition(ids[:1], ids[2:])
        send_from_s(h, range(4))
        h.env.run()
        channel = s_channel(h)
        assert payloads(h) == [0, 1, 2, 3]
        assert channel.breaker_trips == 0
        assert channel.flush_causes["deadline"] == 1

    def test_healing_another_pair_keeps_the_breaker_open(self):
        h, ids = split(hosts=3)
        network = h.cloud.network
        network.partition(ids[:1], ids[1:])
        send_from_s(h, range(2))
        h.env.run(until=1.0)
        network.heal(ids[:1], ids[2:])
        h.env.run(until=3.0)
        channel = s_channel(h)
        assert channel.pending_count == 2
        assert payloads(h) == []
        network.heal(ids[:1], ids[1:2])
        h.env.run()
        assert payloads(h) == [0, 1]
        assert channel.breaker_trips == 1

    def test_telemetry_counts_what_the_channel_counts(self):
        h, ids = split(config=adaptive(0.05, 2))
        telemetry = Telemetry(h.env)
        h.runtime.bind_telemetry(telemetry)
        send_from_s(h, range(3))  # one full flush, one message waits
        h.env.run(until=0.01)
        h.cloud.network.partition(ids[:1], ids[1:])
        h.env.run(until=1.0)  # the deadline flush trips the breaker
        h.cloud.network.heal()
        h.env.run()
        assert payloads(h) == [0, 1, 2]
        totals = h.runtime.transport.flush_cause_totals()
        assert totals == dict(dict.fromkeys(FLUSH_CAUSES, 0), full=1, heal=1)
        for cause, count in totals.items():
            assert telemetry.transport_flushes.labels(cause=cause).value == count
        assert telemetry.breaker_trips.value == 1
        assert h.runtime.transport.breaker_trips_total() == 1


class TestTransportSurface:
    def test_flush_cause_totals_has_one_key_per_cause(self):
        h = make(adaptive(0.0, 64))
        assert list(h.runtime.transport.flush_cause_totals()) == list(FLUSH_CAUSES)
        route_n(h, 2)
        h.env.run()
        assert h.runtime.transport.flush_cause_totals() == dict(
            dict.fromkeys(FLUSH_CAUSES, 0), eager=2
        )

    def test_release_keeps_the_other_destinations_channels(self):
        h = make(adaptive(), hosts=2, slices=2)
        h.runtime.route("client", "M", "e", "a", 100, key=0)
        h.runtime.route("client", "M", "e", "b", 100, key=1)
        transport = h.runtime.transport
        transport.release_instance(h.runtime._active("M:0"))
        assert transport.channel_count() == 1
        h.env.run()
        assert payloads(h, "M:0") == []
        assert payloads(h, "M:1") == ["b"]
