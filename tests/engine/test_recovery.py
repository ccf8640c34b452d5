"""Tests for passive replication: retention, checkpoints, crash recovery."""

import pytest

from repro.engine import (
    Checkpoint,
    CheckpointStore,
    MigrationCosts,
    ReliabilityCoordinator,
    RetentionBuffer,
    RetentionLog,
    StreamEvent,
)
from repro.engine.recovery import UNRECOVERABLE
from repro.telemetry import Telemetry

from .helpers import Harness, CountingState, Forwarder, Recorder

FAST = MigrationCosts(pre_s=0.01, post_s=0.01,
                      serialize_s_per_byte=1e-9, deserialize_s_per_byte=1e-9)


def ev(seq, source="s", payload=None):
    return StreamEvent("e", payload if payload is not None else seq,
                       source, seq, 100, 0.0)


class TestRetentionBuffer:
    def test_append_and_suffix(self):
        buffer = RetentionBuffer()
        for seq in range(5):
            buffer.append(ev(seq))
        assert len(buffer) == 5
        assert [e.seq for e in buffer.suffix_after(2)] == [3, 4]
        assert buffer.highest_seq == 4

    def test_prune(self):
        buffer = RetentionBuffer()
        for seq in range(5):
            buffer.append(ev(seq))
        assert buffer.prune_through(2) == 3
        assert [e.seq for e in buffer.suffix_after(-1)] == [3, 4]

    def test_duplicate_seq_skipped(self):
        buffer = RetentionBuffer()
        buffer.append(ev(0))
        buffer.append(ev(1))
        buffer.append(ev(1))  # regenerated during recovery
        assert len(buffer) == 2

    def test_bytes_retained(self):
        buffer = RetentionBuffer()
        buffer.append(ev(0))
        assert buffer.bytes_retained == 100

    def test_empty_buffer(self):
        buffer = RetentionBuffer()
        assert buffer.highest_seq == -1
        assert buffer.suffix_after(0) == []
        assert buffer.prune_through(10) == 0


class TestRetentionLog:
    def test_record_and_channels(self):
        log = RetentionLog()
        log.record("a", "x", ev(0, "a"))
        log.record("b", "x", ev(0, "b"))
        log.record("a", "y", ev(1, "a"))
        channels = dict(log.channels_to("x"))
        assert set(channels) == {"a", "b"}
        assert log.total_events() == 3
        assert log.total_bytes() == 300

    def test_prune_for_destination(self):
        log = RetentionLog()
        for seq in range(4):
            log.record("a", "x", ev(seq, "a"))
            log.record("a", "y", ev(seq, "a"))
        dropped = log.prune_for_destination("x", {"a": 2})
        assert dropped == 3
        assert log.total_events() == 5  # channel to y untouched


class TestCheckpointStore:
    def test_put_get_latest(self):
        store = CheckpointStore()
        c1 = Checkpoint("S:0", 1, 0.0, {"a": 1}, {}, {}, 100)
        store.put(c1)
        c2 = Checkpoint("S:0", 2, 5.0, {"a": 2}, {}, {}, 120)
        store.put(c2)
        assert store.get("S:0").state == {"a": 2}
        assert store.checkpoints_stored == 2
        assert len(store) == 1
        assert store.slices() == ["S:0"]

    def test_stale_epoch_rejected(self):
        store = CheckpointStore()
        store.put(Checkpoint("S:0", 2, 0.0, None, {}, {}, 0))
        with pytest.raises(ValueError):
            store.put(Checkpoint("S:0", 1, 1.0, None, {}, {}, 0))

    def test_get_unknown_is_none(self):
        assert CheckpointStore().get("nope") is None


def make_reliable_harness(checkpoint_interval=5.0):
    h = Harness(hosts=3, cores=4, migration_costs=FAST)
    h.runtime.add_operator(
        "S", 1, lambda i: CountingState(bytes_per_entry=200, cost_s=0.001)
    )
    h.runtime.deploy_operator("S", [h.hosts[0]])
    spare = [h.hosts[2]]
    coordinator = ReliabilityCoordinator(
        h.runtime,
        interval_s=checkpoint_interval,
        replacement_host_fn=lambda: spare[0],
    )
    return h, coordinator


class TestCheckpointing:
    def test_checkpoint_captures_state_vector_and_counters(self):
        h, coordinator = make_reliable_harness()
        for i in range(10):
            h.runtime.inject("client", "S", "add", (i, i), 100, key=0)
        h.env.run()
        process = coordinator.checkpoint_now("S:0")
        h.env.run()
        checkpoint = coordinator.store.get("S:0")
        assert checkpoint is not None
        assert checkpoint.state == {i: i for i in range(10)}
        assert checkpoint.vector == {"client": 9}
        assert checkpoint.epoch == 1
        assert process.value is checkpoint

    def test_checkpoint_prunes_retention(self):
        h, coordinator = make_reliable_harness()
        for i in range(10):
            h.runtime.inject("client", "S", "add", (i, i), 100, key=0)
        h.env.run()
        assert h.runtime.retention.total_events() == 10
        coordinator.checkpoint_now("S:0")
        h.env.run()
        assert h.runtime.retention.total_events() == 0

    def test_periodic_checkpoints_advance_epochs(self):
        h, coordinator = make_reliable_harness(checkpoint_interval=2.0)
        coordinator.start(["S:0"])
        h.runtime.inject("client", "S", "add", (1, 1), 100, key=0)
        h.env.run(until=11.0)
        assert coordinator.store.get("S:0").epoch >= 4

    def test_start_twice_rejected(self):
        h, coordinator = make_reliable_harness()
        coordinator.start(["S:0"])
        with pytest.raises(RuntimeError):
            coordinator.start(["S:0"])
        with pytest.raises(ValueError):
            ReliabilityCoordinator(h.runtime, interval_s=0)


class TestCrashRecovery:
    def test_recovery_restores_state_exactly_once(self):
        h, coordinator = make_reliable_harness()
        total = 200

        def feeder():
            for i in range(total):
                h.runtime.inject("client", "S", "add", (i, i), 100, key=0)
                yield h.env.timeout(0.01)

        def crasher():
            yield h.env.timeout(0.8)
            yield coordinator.checkpoint_now("S:0")
            yield h.env.timeout(0.3)  # more events after the checkpoint
            # Crash the host abruptly and recover.
            h.runtime.slices["S:0"].active.host.release()
            yield coordinator.handle_host_crash(h.hosts[0])

        h.env.process(feeder())
        h.env.process(crasher())
        h.env.run()
        handler = h.handler("S:0")
        assert handler.values == {i: i for i in range(total)}
        assert h.runtime.placement()["S:0"] == h.hosts[2].host_id
        assert len(coordinator.recovery_reports) == 1
        report = coordinator.recovery_reports[0]
        assert report.restored_epoch == 1
        assert report.replayed_events > 0

    def test_recovery_without_any_checkpoint_replays_everything(self):
        h, coordinator = make_reliable_harness()
        total = 50

        def feeder():
            for i in range(total):
                h.runtime.inject("client", "S", "add", (i, i), 100, key=0)
                yield h.env.timeout(0.01)

        def crasher():
            yield h.env.timeout(0.3)
            h.runtime.slices["S:0"].active.host.release()
            yield coordinator.handle_host_crash(h.hosts[0])

        h.env.process(feeder())
        h.env.process(crasher())
        h.env.run()
        assert h.handler("S:0").values == {i: i for i in range(total)}
        assert coordinator.recovery_reports[0].restored_epoch is None

    def test_downstream_deduplicates_replayed_emissions(self):
        """A recovered forwarder re-emits; the downstream recorder must not
        see duplicates."""
        h = Harness(hosts=3, cores=4, migration_costs=FAST)
        h.runtime.add_operator("A", 1, lambda i: Forwarder("B", cost_s=0.001))
        h.runtime.add_operator("B", 1, lambda i: Recorder())
        h.runtime.deploy_operator("A", [h.hosts[0]])
        h.runtime.deploy_operator("B", [h.hosts[1]])
        coordinator = ReliabilityCoordinator(
            h.runtime, interval_s=100.0, replacement_host_fn=lambda: h.hosts[2]
        )
        total = 100

        def feeder():
            for i in range(total):
                h.runtime.inject("client", "A", "e", i, 100, key=0)
                yield h.env.timeout(0.01)

        def crasher():
            yield h.env.timeout(0.4)
            yield coordinator.checkpoint_now("A:0")
            yield h.env.timeout(0.2)
            h.runtime.slices["A:0"].active.host.release()
            yield coordinator.handle_host_crash(h.hosts[0])

        h.env.process(feeder())
        h.env.process(crasher())
        h.env.run()
        received = [p for (_, _, p) in h.handler("B:0").received]
        assert sorted(received) == list(range(total))
        assert len(received) == total
        # Deduplication actually kicked in at B.
        assert h.runtime.slices["B:0"].active.dropped_replays > 0

    def test_events_lost_in_detection_window_are_replayed(self):
        """Events sent between the crash and its detection are lost on the
        wire but recovered from retention."""
        h, coordinator = make_reliable_harness()

        def scenario():
            for i in range(20):
                h.runtime.inject("client", "S", "add", (i, i), 100, key=0)
            yield h.env.timeout(1.0)
            # Crash; events 20..39 are sent while the failure is undetected.
            h.runtime.slices["S:0"].active.destroy()
            h.runtime.slices["S:0"].active.host.release()
            for i in range(20, 40):
                h.runtime.inject("client", "S", "add", (i, i), 100, key=0)
            yield h.env.timeout(1.0)  # detection delay elapses
            yield coordinator.handle_host_crash(h.hosts[0])

        h.env.process(scenario())
        h.env.run()
        assert h.handler("S:0").values == {i: i for i in range(40)}

    def test_crash_with_no_replacement_host_dead_letters_the_slice(self):
        """No replacement host: the retained suffix and every later event
        are parked, counted and traced instead of raising or vanishing."""
        h = Harness(hosts=2, cores=4, migration_costs=FAST)
        telemetry = Telemetry(h.env)
        h.runtime.bind_telemetry(telemetry)
        h.runtime.add_operator(
            "S", 1, lambda i: CountingState(bytes_per_entry=200, cost_s=0.001)
        )
        h.runtime.deploy_operator("S", [h.hosts[0]])
        dead_letters = h.runtime.enable_dead_letters()
        coordinator = ReliabilityCoordinator(
            h.runtime, interval_s=100.0, replacement_host_fn=lambda: None
        )

        def scenario():
            for i in range(10):
                h.runtime.inject("client", "S", "add", (i, i), 100, key=0)
            yield h.env.timeout(1.0)
            yield coordinator.checkpoint_now("S:0")
            for i in range(10, 15):  # processed, never checkpointed
                h.runtime.inject("client", "S", "add", (i, i), 100, key=0)
            yield h.env.timeout(1.0)
            h.hosts[0].release()
            yield coordinator.handle_host_crash(h.hosts[0])
            h.runtime.inject("client", "S", "add", (15, 15), 100, key=0)
            h.runtime.route_batch(
                "client", [("S", "add", (i, i), 100, 0) for i in (16, 17)]
            )

        h.env.process(scenario())
        h.env.run()

        entries = dead_letters.entries("S:0")
        assert [(e.reason, [ev.payload[0] for ev in e.events]) for e in entries] == [
            ("unrecoverable", [10, 11, 12, 13, 14]),
            ("undeployed", [15]),
            ("undeployed", [16, 17]),
        ]
        assert len(dead_letters) == 8
        assert telemetry.dead_letter_events.value == 8
        assert coordinator.unrecoverable == ["S:0"]
        (report,) = coordinator.recovery_reports
        assert report.replacement_host == UNRECOVERABLE
        assert (report.restored_epoch, report.dead_lettered) == (1, 5)
        (span,) = telemetry.tracer.find("recovery.unrecoverable")
        assert span.attrs == {"slice": "S:0", "dead_lettered": 5}
        assert h.runtime.placement().get("S:0") is None

        assert dead_letters.slices() == ["S:0"]
        assert dead_letters.drain("S:0") == entries
        assert dead_letters.entries() == []
        assert dead_letters.slices() == []
