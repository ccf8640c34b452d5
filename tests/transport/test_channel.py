"""Unit tests of the flow-controlled transport channels.

Each test drives a small engine deployment through ``EngineRuntime`` so
channels sit exactly where production puts them — between the routing
layer and the network fabric — and asserts the channel-level contracts:
flush causes, credit accounting and conservation, shed-to-spill under
starvation, FIFO preservation, and teardown.
"""

from repro.transport import TransportConfig

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


class TestPassthrough:
    def test_default_config_is_passthrough_with_no_channels(self, monkeypatch):
        # Built-in defaults, not the ambient environment (CI runs one
        # leg with REPRO_NET_BACKPRESSURE forced on).
        for name in (
            "REPRO_NET_BACKPRESSURE",
            "REPRO_NET_CREDIT_WINDOW",
        ):
            monkeypatch.delenv(name, raising=False)
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


class TestBackpressure:
    def config(self, window=4):
        return TransportConfig(backpressure=True, credit_window=window)

    def test_burst_sheds_to_spill_and_starves(self):
        h = make(self.config(window=4), cost_s=0.01)
        route_n(h, 50)
        # Routing is synchronous: four messages took the four credits,
        # the rest parked at the sender.
        transport = h.runtime.transport
        channel = next(iter(transport._channels.values()))
        assert channel.credits == 0
        assert channel.starved
        assert channel.pending_count == 46
        assert channel.messages_spilled > 0
        stats = transport.outbound_stats("client")
        assert stats["spill_depth"] == 46
        assert stats["starved_channels"] == 1
        assert transport.pending_total() == 46
        instance = h.runtime._active("M:0")
        assert transport.inbound_credits_outstanding(instance) == 4

    def test_inbox_is_bounded_and_nothing_is_lost(self):
        h = make(self.config(window=4), cost_s=0.01)
        route_n(h, 50)
        h.env.run()
        assert payloads(h) == list(range(50))  # FIFO, zero loss
        instance = h.runtime._active("M:0")
        assert 0 < instance.peak_queue_length <= 4

    def test_credits_conserve_at_quiescence(self):
        h = make(self.config(window=4), cost_s=0.01)
        route_n(h, 50)
        h.env.run()
        transport = h.runtime.transport
        channel = next(iter(transport._channels.values()))
        assert channel.credits == channel.credit_window
        assert channel.pending_count == 0
        assert channel.messages_sent == 50
        assert not channel.starved
        assert channel.stall_count >= 1
        assert channel.stall_seconds_total > 0.0
        assert transport.flush_cause_totals()["credit"] > 0
        stats = transport.outbound_stats("client")
        assert stats["spill_depth"] == 0
        assert stats["starved_channels"] == 0
        instance = h.runtime._active("M:0")
        assert transport.inbound_credits_outstanding(instance) == 0

    def test_backpressured_run_delivers_the_same_sequences(self):
        plain = make(hosts=2, slices=2, cost_s=0.005)
        throttled = make(
            TransportConfig(
                flush_mode="adaptive",
                flush_s=0.02,
                flush_max_batch=8,
                backpressure=True,
                credit_window=3,
            ),
            hosts=2,
            slices=2,
            cost_s=0.005,
        )
        for h in (plain, throttled):
            for i in range(60):
                h.runtime.route("client", "M", "e", i, 100, key=i % 2)
            h.env.run()
        for index in range(2):
            assert payloads(plain, f"M:{index}") == payloads(
                throttled, f"M:{index}"
            )

    def test_release_instance_discards_spill_silently(self):
        h = make(self.config(window=2), cost_s=0.01)
        route_n(h, 20)
        transport = h.runtime.transport
        instance = h.runtime._active("M:0")
        channel = transport.channel("client", instance)
        assert channel.pending_count > 0
        transport.release_instance(instance)
        assert channel.released
        assert transport.channel_count() == 0
        assert transport.inbound_channel_count(instance) == 0
        h.env.run()  # pending grants/timers fire into the released channel
        # Only the wire-sent prefix arrived; the spilled remainder is gone.
        assert payloads(h) == [0, 1]

    def test_channel_is_per_source_and_destination(self):
        h = make(self.config(window=8), hosts=2, slices=2)
        h.runtime.route("client", "M", "e", "a", 100, key=0)
        h.runtime.route("other", "M", "e", "b", 100, key=0)
        h.runtime.route("client", "M", "e", "c", 100, key=1)
        assert h.runtime.transport.channel_count() == 3
        h.env.run()
        assert sorted(payloads(h, "M:0")) == ["a", "b"]
        assert payloads(h, "M:1") == ["c"]
