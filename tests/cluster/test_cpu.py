"""Unit tests for the CPU scheduler and utilization accounting."""

import pytest

from repro.sim import Environment
from repro.cluster import CpuScheduler


def test_task_takes_cpu_seconds_when_idle():
    env = Environment()
    cpu = CpuScheduler(env, cores=4)
    done = []

    def proc():
        yield from cpu.run(2.5, tag="s1")
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [2.5]


def test_tasks_share_cores_in_parallel():
    env = Environment()
    cpu = CpuScheduler(env, cores=2)
    done = []

    def proc(name):
        yield from cpu.run(1.0, tag=name)
        done.append((name, env.now))

    for name in ["a", "b", "c"]:
        env.process(proc(name))
    env.run()
    # Two run in parallel; the third waits for a core.
    assert ("a", 1.0) in done and ("b", 1.0) in done and ("c", 2.0) in done


def test_busy_time_integration_exact():
    env = Environment()
    cpu = CpuScheduler(env, cores=2)

    def proc(duration):
        yield from cpu.run(duration)

    env.process(proc(3.0))
    env.process(proc(1.0))
    env.run()
    assert cpu.busy_core_seconds() == pytest.approx(4.0)


def test_utilization_between_snapshots():
    env = Environment()
    cpu = CpuScheduler(env, cores=2)
    results = {}

    def worker():
        yield from cpu.run(4.0, tag="w")

    def observer():
        before = cpu.snapshot()
        yield env.timeout(8.0)
        results["util"] = cpu.utilization_between(before)
        results["per_tag"] = cpu.tag_core_usage_between(before)

    env.process(worker())
    env.process(observer())
    env.run()
    # 4 busy core-seconds over 8 s × 2 cores = 25%.
    assert results["util"] == pytest.approx(0.25)
    assert results["per_tag"]["w"] == pytest.approx(0.5)


def test_per_tag_accounting_separates_slices():
    env = Environment()
    cpu = CpuScheduler(env, cores=4)

    def worker(tag, duration):
        yield from cpu.run(duration, tag=tag)

    env.process(worker("s1", 2.0))
    env.process(worker("s2", 6.0))
    env.run()
    snap = cpu.snapshot()
    assert snap.per_tag == {"s1": pytest.approx(2.0), "s2": pytest.approx(6.0)}


def test_queued_and_active_counts():
    env = Environment()
    cpu = CpuScheduler(env, cores=1)
    observed = {}

    def worker():
        yield from cpu.run(5.0)

    def sampler():
        yield env.timeout(1.0)
        observed["active"] = cpu.active_tasks
        observed["queued"] = cpu.queued_tasks

    env.process(worker())
    env.process(worker())
    env.process(worker())
    env.process(sampler())
    env.run()
    assert observed == {"active": 1, "queued": 2}


def test_zero_length_task_completes():
    env = Environment()
    cpu = CpuScheduler(env, cores=1)
    done = []

    def proc():
        yield from cpu.run(0.0)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [0.0]


def test_negative_cpu_seconds_rejected():
    env = Environment()
    cpu = CpuScheduler(env, cores=1)

    def proc():
        yield from cpu.run(-1.0)

    env.process(proc())
    with pytest.raises(ValueError):
        env.run()


def test_invalid_core_count_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        CpuScheduler(env, cores=0)


def test_utilization_zero_elapsed_is_zero():
    env = Environment()
    cpu = CpuScheduler(env, cores=1)
    snap = cpu.snapshot()
    assert cpu.utilization_between(snap) == 0.0
    assert cpu.tag_core_usage_between(snap) == {}


def test_waiter_interrupted_in_the_queue_does_not_leak_the_core():
    """One core; a holder for 5 s, a second process interrupted at t = 1
    while it queues, a third task at t = 10.  The interrupted waiter must
    leave the queue: left behind, it is handed the core at t = 5 and never
    gives it back, and the third task never runs."""
    from repro.sim import Interrupt

    env = Environment()
    cpu = CpuScheduler(env, cores=1)
    done = {}

    def worker(name, cpu_seconds):
        try:
            yield from cpu.run(cpu_seconds, tag=name)
            done[name] = env.now
        except Interrupt:
            done[name] = "interrupted"

    def late():
        yield env.timeout(10.0)
        yield from worker("third", 1.0)

    env.process(worker("holder", 5.0))
    waiter = env.process(worker("waiter", 1.0))
    env.call_later(1.0, waiter.interrupt, "watchdog")
    env.process(late())
    env.run()
    assert done == {"holder": 5.0, "waiter": "interrupted", "third": 11.0}
    assert (cpu.active_tasks, cpu.queued_tasks) == (0, 0)
    assert cpu.busy_core_seconds() == pytest.approx(6.0)


def test_submit_runs_callbacks_after_the_core_is_passed_on():
    env = Environment()
    cpu = CpuScheduler(env, cores=1)
    seen = []
    first = cpu.submit(2.0, tag="a")
    first.callbacks.append(lambda task: seen.append(("a", env.now, cpu.queued_tasks)))
    second = cpu.submit(1.0, tag="b")
    second.callbacks.append(lambda task: seen.append(("b", env.now, cpu.queued_tasks)))
    assert (first.started_at, second.started_at) == (0.0, None)
    assert (cpu.active_tasks, cpu.queued_tasks) == (1, 1)
    env.run()
    # "a" completes with "b" already off the queue, its start a step away.
    assert seen == [("a", 2.0, 0), ("b", 3.0, 0)]
    assert second.started_at == 2.0


def test_task_cancelled_mid_run_is_charged_for_the_time_it_held_the_core():
    env = Environment()
    cpu = CpuScheduler(env, cores=1)
    fired = []
    task = cpu.submit(5.0, tag="t")
    task.callbacks.append(fired.append)
    waiter = cpu.submit(1.0, tag="w")
    env.call_later(2.0, cpu.cancel, task)
    env.run(until=2.5)
    assert cpu.busy_core_seconds() == 2.0
    assert cpu.snapshot().per_tag == {"t": 2.0}
    assert waiter.started_at == 2.0  # the core went to the next in line
    env.run()
    # The stale completion fired at t = 5 into nothing.
    assert env.now == 5.0 and task.processed and fired == []
    assert cpu.busy_core_seconds() == 3.0
    assert cpu.snapshot().per_tag == {"t": 2.0, "w": 1.0}
    assert (cpu.active_tasks, cpu.queued_tasks) == (0, 0)
    cpu.cancel(task)  # completed or cancelled: a no-op
    assert cpu.busy_core_seconds() == 3.0


def test_cancelling_queued_and_just_granted_tasks_returns_the_core():
    env = Environment()
    cpu = CpuScheduler(env, cores=1)
    holder = cpu.submit(1.0)
    queued = cpu.submit(1.0, tag="queued")
    granted = cpu.submit(1.0, tag="granted")
    last = cpu.submit(1.0, tag="last")
    cpu.cancel(queued)
    assert cpu.queued_tasks == 2
    # At t = 1 the holder passes its core to ``granted``; cancel it in the
    # same instant, after the hand-over and before its start step.
    holder.callbacks.append(lambda _: cpu.cancel(granted))
    env.run()
    assert queued.started_at is None and granted.started_at is None
    assert last.started_at == 1.0 and env.now == 2.0
    assert cpu.snapshot().per_tag == {"last": 1.0}
    assert (cpu.active_tasks, cpu.queued_tasks) == (0, 0)
