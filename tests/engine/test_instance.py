"""Unit tests for slice instances: parallelism, locks, dedup, halt."""

import pytest

from repro.engine import SliceHandler
from .helpers import Harness, Recorder, CountingState


def test_parallel_workers_process_read_events_concurrently():
    h = Harness(hosts=1, cores=4)
    h.runtime.add_operator("M", 1, lambda i: Recorder(cost_s=1.0), parallelism=4)
    h.runtime.deploy_operator("M", h.hosts)
    for value in range(4):
        h.runtime.inject("client", "M", "e", value, 100, key=0)
    h.env.run()
    times = [t for (t, _, _) in h.handler("M:0").received]
    # All four processed in parallel: they complete at (almost) the same time.
    assert max(times) - min(times) < 0.01
    assert max(times) < 1.1


def test_write_events_serialize_on_slice_lock():
    h = Harness(hosts=1, cores=4)
    h.runtime.add_operator(
        "S", 1, lambda i: CountingState(cost_s=1.0), parallelism=4
    )
    h.runtime.deploy_operator("S", h.hosts)
    for value in range(3):
        h.runtime.inject("client", "S", "add", (value, value), 100, key=0)
    h.env.run()
    # Three W-locked events of 1 s each must take at least 3 s of sim time.
    assert h.env.now >= 3.0
    assert h.handler("S:0").values == {0: 0, 1: 1, 2: 2}


def test_parallelism_bounded_by_host_cores():
    h = Harness(hosts=1, cores=2)
    h.runtime.add_operator("M", 1, lambda i: Recorder(cost_s=1.0), parallelism=8)
    h.runtime.deploy_operator("M", h.hosts)
    for value in range(4):
        h.runtime.inject("client", "M", "e", value, 100, key=0)
    h.env.run()
    # 4 events of 1 s on 2 cores: finish in two waves, ≈ 2 s total.
    assert 2.0 <= h.env.now < 2.1


def test_duplicate_events_filtered_by_migration_vector():
    """Only instances activated after a migration filter duplicates, and
    only against the frozen vector captured with the copied state."""
    from repro.engine import StreamEvent
    from repro.engine.instance import SliceInstance

    h = Harness(hosts=1)
    h.runtime.add_operator("M", 1, lambda i: Recorder())
    h.runtime.deploy_operator("M", h.hosts)
    recorder = Recorder()
    migrated = SliceInstance(
        h.runtime, "M:0", recorder, h.hosts[0], parallelism=2, buffering=True
    )
    migrated.activate({"client": 4})
    # Stale duplicate (seq ≤ vector) is dropped; a fresh event is processed.
    migrated.deliver(StreamEvent("e", "stale", "client", 4, 100, h.env.now))
    migrated.deliver(StreamEvent("e", "fresh", "client", 5, 100, h.env.now))
    h.env.run()
    assert [p for (_, _, p) in recorder.received] == ["fresh"]
    assert migrated.dropped_duplicates == 1


def test_normal_instance_processes_out_of_order_completions():
    """A never-migrated instance must not drop events even when parallel
    workers complete later-sequence events first (max-watermark hazard)."""
    h = Harness(hosts=1, cores=8)
    h.runtime.add_operator("S", 1, lambda i: Recorder(), parallelism=8)
    h.runtime.deploy_operator("S", h.hosts)
    for i in range(20):
        h.runtime.inject("client", "S", "e", i, 100, key=0)
    h.env.run()
    received = sorted(p for (_, _, p) in h.handler("S:0").received)
    assert received == list(range(20))


def test_halt_waits_for_busy_workers_and_drops_late_events():
    h = Harness(hosts=1, cores=2)
    h.runtime.add_operator("M", 1, lambda i: Recorder(cost_s=2.0), parallelism=2)
    h.runtime.deploy_operator("M", h.hosts)
    h.runtime.inject("client", "M", "e", "busy", 100, key=0)
    results = {}

    def coordinator():
        yield h.env.timeout(1.0)
        instance = h.runtime.slices["M:0"].active
        quiescent = instance.halt()
        yield quiescent
        results["halted_at"] = h.env.now
        # A late event must be dropped, not processed.
        h.runtime.inject("client", "M", "e", "late", 100, key=0)

    h.env.process(coordinator())
    h.env.run()
    assert results["halted_at"] >= 2.0
    payloads = [p for (_, _, p) in h.handler("M:0").received]
    assert payloads == ["busy"]


def test_wait_until_processed_fires_on_progress():
    h = Harness(hosts=1)
    h.runtime.add_operator("M", 1, lambda i: Recorder(cost_s=0.5), parallelism=1)
    h.runtime.deploy_operator("M", h.hosts)
    for value in range(3):
        h.runtime.inject("client", "M", "e", value, 100, key=0)
    fired = {}

    def waiter():
        instance = h.runtime.slices["M:0"].active
        yield instance.wait_until_processed({"client": 2})
        fired["at"] = h.env.now

    h.env.process(waiter())
    h.env.run()
    assert fired["at"] == pytest.approx(1.5, abs=0.05)


def test_wait_until_processed_already_satisfied():
    h = Harness(hosts=1)
    h.runtime.add_operator("M", 1, lambda i: Recorder())
    h.runtime.deploy_operator("M", h.hosts)
    h.runtime.inject("client", "M", "e", 0, 100, key=0)
    h.env.run()
    instance = h.runtime.slices["M:0"].active
    event = instance.wait_until_processed({"client": 0})
    assert event.triggered


def test_buffering_instance_queues_without_processing():
    from repro.engine.instance import SliceInstance

    h = Harness(hosts=1)
    h.runtime.add_operator("M", 1, lambda i: Recorder())
    h.runtime.deploy_operator("M", h.hosts)
    recorder = Recorder()
    buffering = SliceInstance(
        h.runtime, "M:0", recorder, h.hosts[0], parallelism=2, buffering=True
    )
    from repro.engine import StreamEvent

    for seq in range(3):
        buffering.deliver(StreamEvent("e", seq, "client", seq, 100, 0.0))
    h.env.run()
    assert buffering.queue_length == 3
    assert recorder.received == []
    # Activation with a vector filters already-processed events.
    buffering.activate({"client": 0})
    h.env.run()
    assert [p for (_, _, p) in recorder.received] == [1, 2]
    assert buffering.dropped_duplicates == 1


def test_destroyed_instance_drops_deliveries():
    h = Harness(hosts=1)
    h.runtime.add_operator("M", 1, lambda i: Recorder())
    h.runtime.deploy_operator("M", h.hosts)
    instance = h.runtime.slices["M:0"].active
    instance.destroy()
    h.runtime.inject("client", "M", "e", "x", 100, key=0)
    h.env.run()
    assert h.handler("M:0").received == []
    assert instance.queue_length == 0


def test_invalid_parallelism_rejected():
    h = Harness(hosts=1)
    h.runtime.add_operator("M", 1, lambda i: Recorder(), parallelism=0)
    with pytest.raises(ValueError):
        h.runtime.deploy_operator("M", h.hosts)


def test_default_import_state_rejects_unexpected_state():
    handler = Recorder()
    handler.import_state(None)  # stateless: fine
    with pytest.raises(NotImplementedError):
        handler.import_state({"unexpected": 1})


# -- same-instant order rules (PR 19): each scenario pins what the
# -- generator-per-worker event plane did, so a later change that starts a
# -- waiter or a handler *inside* the step that freed it fails here before
# -- it moves a digest.


class SharedLog(SliceHandler):
    """Records every processed batch, in completion order, in one list."""

    def __init__(self, log, name, cost_s=0.0, coalesce=1):
        self.log, self.name, self.cost_s, self.coalesce = log, name, cost_s, coalesce

    def cost(self, event):
        return self.cost_s

    def coalesce_limit(self, event):
        return self.coalesce

    def coalesce_with(self, head, candidate):
        return True

    def process(self, event, ctx):
        self.process_batch([event], ctx)

    def process_batch(self, events, ctx):
        self.log.append((ctx.now, self.name, [event.payload for event in events]))


def test_freed_core_goes_to_the_waiter_in_its_own_step():
    """Two equal tasks end at one instant on a two-core host with a third
    queued.  The first finisher hands its core to the waiter *by a
    zero-delay step*; before that step runs, the second finisher's worker
    takes its next inbox item and the other core.  So the inbox item starts
    (and, at equal cost, completes) ahead of the waiter."""
    h = Harness(hosts=1, cores=2)
    log = []
    for name in "ABC":
        h.runtime.add_operator(
            name, 1, lambda i, name=name: SharedLog(log, name, cost_s=1.0),
            parallelism=1,
        )
        h.runtime.deploy_operator(name, h.hosts)
    h.runtime.inject("client", "A", "e", "a1", 100, key=0)
    h.runtime.inject("client", "B", "e", "b1", 100, key=0)
    h.runtime.inject("client", "C", "e", "c1", 100, key=0)  # queues for a core
    h.runtime.inject("client", "B", "e", "b2", 100, key=0)  # waits in B's inbox
    h.env.run()
    assert [(name, payloads) for _, name, payloads in log] == [
        ("A", ["a1"]), ("B", ["b1"]), ("B", ["b2"]), ("C", ["c1"]),
    ]
    first, second = log[0][0], log[2][0]
    assert [now for now, _, _ in log] == [first, first, second, second]
    assert second == first + 1.0
    cpu = h.hosts[0].cpu
    assert (cpu.active_tasks, cpu.queued_tasks) == (0, 0)


def test_woken_worker_coalesces_what_arrived_by_its_wake_step():
    """Five deliveries at one instant to a slice with two workers and a
    coalesce limit of 8: the first two each wake a worker *by a zero-delay
    step*, the other three queue, and the first worker to wake drains all
    three behind its own event."""
    h = Harness(hosts=1, cores=4)
    log = []
    h.runtime.add_operator(
        "S", 1, lambda i: SharedLog(log, "S", cost_s=1.0, coalesce=8),
        parallelism=2,
    )
    h.runtime.deploy_operator("S", h.hosts)
    for value in range(5):
        h.runtime.inject("client", "S", "e", value, 100, key=0)
    h.env.run()
    assert [payloads for _, _, payloads in log] == [[1], [0, 2, 3, 4]]
    assert log[0][0] < log[1][0]  # one event costs 1 s, the batch of four 4 s
    assert h.runtime.slices["S:0"].active.peak_queue_length == 3


def test_activate_runs_no_handler_before_its_caller_returns():
    """``migrate_slice`` switches ``logical.active`` on the line *after*
    ``activate()``; a handler run inside it would emit from the wrong host."""
    from repro.engine import StreamEvent
    from repro.engine.instance import SliceInstance

    h = Harness(hosts=1)
    h.runtime.add_operator("M", 1, lambda i: Recorder())
    h.runtime.deploy_operator("M", h.hosts)
    recorder = Recorder()  # zero cost: would run to completion if inlined
    twin = SliceInstance(
        h.runtime, "M:0", recorder, h.hosts[0], parallelism=2, buffering=True
    )
    for seq in range(3):
        twin.deliver(StreamEvent("e", seq, "client", seq, 100, 0.0))
    twin.activate({})
    assert recorder.received == [] and twin.queue_length == 3
    h.env.run()
    assert [p for (_, _, p) in recorder.received] == [0, 1, 2]


class Peeker(SliceHandler):
    """Records what ``ctx.upcoming()`` shows at each handler call."""

    def __init__(self):
        self.seen = []

    def cost(self, event):
        return float(event.payload[1])

    def lock_mode(self, event):
        return event.payload[0]

    def process(self, event, ctx):
        self.seen.append(
            (event.payload[2], [e.payload[2] for e in ctx.upcoming()])
        )


def deliver_all(instance, payloads):
    from repro.engine import StreamEvent

    for seq, payload in enumerate(payloads):
        instance.deliver(StreamEvent("e", payload, "client", seq, 100, 0.0))


def test_upcoming_shows_running_batches_soonest_due_first_then_the_inbox():
    h = Harness(hosts=1, cores=4)
    h.runtime.add_operator("M", 1, lambda i: Peeker(), parallelism=3)
    h.runtime.deploy_operator("M", h.hosts)
    deliver_all(
        h.runtime.slices["M:0"].active,
        [("R", 1, "a"), ("R", 9, "b"), ("R", 3, "c"), ("R", 1, "d"), ("R", 1, "e")],
    )
    h.env.run()
    # a done at 1: c (due 3) before b (due 9), then the inbox.  d done at
    # 2 (taken by a's worker): c, then b, then e still queued ...
    assert h.handler("M:0").seen == [
        ("a", ["c", "b", "d", "e"]),
        ("d", ["c", "b", "e"]),
        ("c", ["e", "b"]),
        ("e", ["b"]),
        ("b", []),
    ]


def test_upcoming_leaves_the_inbox_out_behind_a_queued_writer():
    h = Harness(hosts=1, cores=4)
    h.runtime.add_operator("M", 1, lambda i: Peeker(), parallelism=3)
    h.runtime.deploy_operator("M", h.hosts)
    deliver_all(
        h.runtime.slices["M:0"].active,
        [("R", 1, "a"), ("R", 2, "b"), ("W", 1, "w"), ("R", 1, "c")],
    )
    h.env.run()
    seen = dict(h.handler("M:0").seen)
    assert seen["a"] == ["b"]  # w waits for the lock; c is behind it
    assert seen["b"] == []
    assert seen["w"] == []  # a's worker took c: it waits for the lock, unseen


def test_a_destroyed_instance_is_freed_without_the_cycle_collector():
    """The context's link back to its instance is weak: a migrated-away
    instance, and the state its handler holds, go with the last reference."""
    import gc
    import weakref

    h = Harness(hosts=1)
    h.runtime.add_operator("M", 1, lambda i: Recorder())
    h.runtime.deploy_operator("M", h.hosts)
    h.env.run()
    logical = h.runtime.slices["M:0"]
    gc.disable()
    try:
        instance = logical.active
        probe = weakref.ref(instance)
        instance.destroy()
        logical.active = None
        del instance
        assert probe() is None
    finally:
        gc.enable()
