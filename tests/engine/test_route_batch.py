"""route_batch: grouped transfers with per-event routing semantics.

The batch router must be observationally identical to calling ``route``
once per emission — same destinations, sequence numbers, retention
records and migration duplication — while collapsing each (source,
destination slice) group into one simulated network transfer.
"""

import pytest

from repro.engine import BROADCAST

from .helpers import Harness, Recorder


def emission(payload, key, operator="M", kind="e", size=100):
    return (operator, kind, payload, size, key)


def make_deployed(h, slices=4):
    h.runtime.add_operator("M", slices, lambda i: Recorder())
    h.runtime.deploy_operator("M", h.hosts)


def test_empty_batch_is_noop():
    h = Harness()
    make_deployed(h)
    h.runtime.route_batch("client", [])
    h.env.run()
    assert all(h.handler(f"M:{i}").received == [] for i in range(4))


def test_batch_routes_like_per_event():
    batched, plain = Harness(), Harness()
    make_deployed(batched)
    make_deployed(plain)
    emissions = [emission(payload=key * 10, key=key) for key in range(8)]
    batched.runtime.route_batch("client", emissions)
    for operator, kind, payload, size, key in emissions:
        plain.runtime.route("client", operator, kind, payload, size, key)
    batched.env.run()
    plain.env.run()
    for index in range(4):
        assert [
            p for (_, _, p) in batched.handler(f"M:{index}").received
        ] == [p for (_, _, p) in plain.handler(f"M:{index}").received]


def test_batch_assigns_per_channel_sequence_numbers():
    h = Harness()
    make_deployed(h, slices=2)
    h.runtime.route_batch(
        "client", [emission(payload=i, key=i % 2) for i in range(6)]
    )
    h.env.run()
    # Three events per slice, consecutively numbered from 0 per channel.
    for index in range(2):
        assert h.runtime.sent_cutoffs(f"M:{index}") == {"client": 2}


def test_batch_interleaves_with_per_event_sequencing():
    h = Harness()
    make_deployed(h, slices=1)
    # Attach the external sender's NIC so the shared watermark orders the
    # batch against the surrounding sends (slice-to-slice senders always
    # have one; unattached externals only pay their own serialization).
    h.cloud.network.attach("ext:client")
    h.runtime.route("client", "M", "e", "a", 100, key=0)
    h.runtime.route_batch("client", [emission("b", 0), emission("c", 0)])
    h.runtime.route("client", "M", "e", "d", 100, key=0)
    h.env.run()
    assert h.runtime.sent_cutoffs("M:0") == {"client": 3}
    assert [p for (_, _, p) in h.handler("M:0").received] == ["a", "b", "c", "d"]


def test_batch_broadcast_expands_to_all_slices():
    h = Harness()
    make_deployed(h)
    h.runtime.route_batch(
        "client", [emission("pub", BROADCAST), emission("sub", key=1)]
    )
    h.env.run()
    for index in range(4):
        expected = ["pub", "sub"] if index == 1 else ["pub"]
        assert [p for (_, _, p) in h.handler(f"M:{index}").received] == expected


def test_batch_group_is_one_network_message():
    h = Harness(hosts=1)
    make_deployed(h, slices=2)
    stats = h.cloud.network.stats("ext:client")
    batches, messages = stats.batches_sent, stats.messages_sent
    h.runtime.route_batch(
        "client", [emission(payload=i, key=i % 2) for i in range(10)]
    )
    h.env.run()
    # Two destination slices on the same host: two batched transfers of
    # five events each, not ten messages' worth of transfers.
    assert stats.batches_sent - batches == 2
    assert stats.messages_sent - messages == 10


def test_batch_preserves_retention_records():
    batched, plain = Harness(), Harness()
    for h in (batched, plain):
        make_deployed(h, slices=2)
        h.runtime.enable_retention()
    emissions = [emission(payload=i, key=i) for i in range(6)]
    batched.runtime.route_batch("client", emissions)
    for operator, kind, payload, size, key in emissions:
        plain.runtime.route("client", operator, kind, payload, size, key)
    batched.env.run()
    plain.env.run()
    for index in range(2):
        b = dict(batched.runtime.retention.channels_to(f"M:{index}"))["client"]
        p = dict(plain.runtime.retention.channels_to(f"M:{index}"))["client"]
        assert [(e.seq, e.payload) for e in b.suffix_after(-1)] == [
            (e.seq, e.payload) for e in p.suffix_after(-1)
        ]


def test_batch_duplicates_to_pending_instance_during_migration():
    h = Harness(hosts=2)
    h.runtime.add_operator("M", 1, lambda i: Recorder(cost_s=0.2))
    h.runtime.deploy("M:0", h.hosts[0])
    origin = h.handler("M:0")
    # Give the slice a backlog so the migration's catch-up window is open.
    for i in range(30):
        h.runtime.route("client", "M", "e", i, 100, key=0)
    h.runtime.migrate("M:0", h.hosts[1])
    h.env.run(until=h.env.now + 0.5)  # past the pre-phase, inside catch-up
    logical = h.runtime.slices["M:0"]
    assert logical.pending is not None  # duplication window is live
    h.runtime.route_batch(
        "client", [emission("x", 0), emission("y", 0), emission("z", 0)]
    )
    h.env.run()
    assert logical.pending is None
    destination = h.handler("M:0")
    assert destination is not origin
    # Exactly-once across the hand-over: the batched events were
    # duplicated to both instances and the sequence-number filter dropped
    # the copies the origin already covered.
    combined = [p for (_, _, p) in origin.received] + [
        p for (_, _, p) in destination.received
    ]
    assert sorted(combined, key=str) == sorted(
        list(range(30)) + ["x", "y", "z"], key=str
    )


def test_batch_unknown_operator_rejected():
    h = Harness()
    make_deployed(h)
    with pytest.raises(KeyError):
        h.runtime.route_batch("client", [emission("a", 0, operator="NOPE")])


def test_batch_undeployed_slice_rejected():
    h = Harness()
    h.runtime.add_operator("X", 1, lambda i: Recorder())
    with pytest.raises(RuntimeError):
        h.runtime.route_batch("client", [emission("a", 0, operator="X")])
