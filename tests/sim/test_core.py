"""Unit tests for the simulation kernel event loop."""

import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import NORMAL, URGENT, Environment, Interrupt


def test_clock_starts_at_initial_time():
    assert Environment().now == 0.0
    assert Environment(initial_time=42.5).now == 42.5


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(3.0)
        log.append(env.now)
        yield env.timeout(1.5)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [3.0, 4.5]


def test_timeout_value_is_delivered():
    env = Environment()
    seen = []

    def proc():
        value = yield env.timeout(1.0, value="hello")
        seen.append(value)

    env.process(proc())
    env.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_run_until_time_stops_exactly():
    env = Environment()

    def ticker():
        while True:
            yield env.timeout(1.0)

    env.process(ticker())
    env.run(until=10.0)
    assert env.now == 10.0


def test_run_until_time_in_past_rejected():
    env = Environment(initial_time=5.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc():
        yield env.timeout(2.0)
        return "done"

    result = env.run(until=env.process(proc()))
    assert result == "done"
    assert env.now == 2.0


def test_events_fire_in_time_order_with_fifo_ties():
    env = Environment()
    order = []

    def proc(name, delay):
        yield env.timeout(delay)
        order.append(name)

    env.process(proc("b", 2.0))
    env.process(proc("a", 1.0))
    env.process(proc("a2", 1.0))
    env.run()
    assert order == ["a", "a2", "b"]


def test_manual_event_succeed():
    env = Environment()
    gate = env.event()
    log = []

    def waiter():
        value = yield gate
        log.append((env.now, value))

    def opener():
        yield env.timeout(5.0)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert log == [(5.0, "open")]


def test_event_cannot_trigger_twice():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)
    with pytest.raises(RuntimeError):
        event.fail(ValueError("x"))


def test_event_value_before_trigger_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(RuntimeError):
        _ = event.value
    with pytest.raises(RuntimeError):
        _ = event.ok


def test_failed_event_raises_in_waiting_process():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter())
    gate.fail(ValueError("boom"))
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_crashes_simulation():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise RuntimeError("unhandled")

    env.process(bad())
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_process_return_value_propagates_to_waiter():
    env = Environment()
    seen = []

    def child():
        yield env.timeout(1.0)
        return 99

    def parent():
        value = yield env.process(child())
        seen.append(value)

    env.process(parent())
    env.run()
    assert seen == [99]


def test_waiting_on_already_processed_event():
    env = Environment()
    seen = []

    def child():
        yield env.timeout(1.0)
        return "early"

    def parent(child_proc):
        yield env.timeout(5.0)
        value = yield child_proc  # already finished at t=1
        seen.append((env.now, value))

    proc = env.process(child())
    env.process(parent(proc))
    env.run()
    assert seen == [(5.0, "early")]


def test_interrupt_raises_in_target_with_cause():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100.0)
        except Interrupt as exc:
            log.append((env.now, exc.cause))

    def attacker(target):
        yield env.timeout(3.0)
        target.interrupt(cause="stop now")

    target = env.process(victim())
    env.process(attacker(target))
    env.run()
    assert log == [(3.0, "stop now")]


def test_interrupting_dead_process_raises():
    env = Environment()

    def short():
        yield env.timeout(1.0)

    def late(target):
        yield env.timeout(2.0)
        target.interrupt()

    target = env.process(short())
    env.process(late(target))
    with pytest.raises(RuntimeError):
        env.run()


def test_process_is_alive_lifecycle():
    env = Environment()

    def proc():
        yield env.timeout(2.0)

    p = env.process(proc())
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(7.0)
    assert env.peek() == 7.0


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(IndexError):
        env.step()


def test_yielding_non_event_is_an_error():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(TypeError):
        env.run()


def test_process_and_events_use_slots():
    from repro.cluster import CpuScheduler

    env = Environment()

    def proc():
        yield env.timeout(1.0)

    task = CpuScheduler(env, cores=1).submit(1.0)
    for obj in (env.process(proc()), env.timeout(1.0), env.event(), task):
        with pytest.raises(AttributeError):
            obj.ad_hoc_attribute = 1


def test_call_soon_runs_after_what_is_already_due_now():
    env = Environment()
    order = []
    env.timeout(0.0).callbacks.append(lambda _: order.append("timeout"))
    env.call_soon(order.append, "soon")
    env.call_later(0.0, order.append, "later")
    env.call_later(0.0, order.append, "urgent", priority=URGENT)
    env.event().succeed().callbacks.append(lambda _: order.append("succeed"))
    assert env.peek() == 0.0
    env.run()
    assert order == ["urgent", "timeout", "soon", "later", "succeed"]


# -- the dispatch order is the sort by (time, priority, seq) ------------------
#
# A program is a forest of nodes; dispatching a node logs it and schedules its
# children, each by one of the kernel's scheduling calls.  The reference is a
# single heap of (time, priority, seq) keys — what the kernel was before its
# zero-delay FIFO — so any way of mixing the calls must dispatch in its order.

#: 1e-30 is positive, yet ``now + 1e-30 == now`` for any ``now`` past 1e-14:
#: such an entry sits on the heap at the FIFO's own time.
DELAYS = (0.0, 1e-30, 0.25, 1.0)
#: kind → (priority, whether the call takes a delay).
KINDS = {
    "succeed": (NORMAL, False),
    "call_soon": (NORMAL, False),
    "call_later": (NORMAL, True),
    "call_later_urgent": (URGENT, True),
    "timeout": (NORMAL, True),
    "schedule_urgent": (URGENT, True),
}
NODES = st.recursive(
    st.tuples(st.sampled_from(sorted(KINDS)), st.sampled_from(DELAYS), st.just(())),
    lambda children: st.tuples(
        st.sampled_from(sorted(KINDS)),
        st.sampled_from(DELAYS),
        st.lists(children, max_size=4).map(tuple),
    ),
    max_leaves=24,
)


def _numbered(nodes, counter):
    """The forest with a unique id per node: (id, kind, delay, children)."""
    return tuple(
        (next(counter), kind, delay if KINDS[kind][1] else 0.0,
         _numbered(children, counter))
        for kind, delay, children in nodes
    )


def _reference_order(roots):
    heap, seq, order = [], itertools.count(), []

    def push(now, node):
        heapq.heappush(
            heap, (now + node[2], KINDS[node[1]][0], next(seq), node)
        )

    for root in roots:
        push(0.0, root)
    while heap:
        now, _, _, node = heapq.heappop(heap)
        order.append((node[0], now))
        for child in node[3]:
            push(now, child)
    return order


def _schedule(env, log, node):
    ident, kind, delay, children = node

    def fire(*_):
        log.append((ident, env.now))
        for child in children:
            _schedule(env, log, child)

    if kind == "succeed":
        env.event().succeed().callbacks.append(fire)
    elif kind == "call_soon":
        env.call_soon(fire)
    elif kind == "call_later":
        env.call_later(delay, fire)
    elif kind == "call_later_urgent":
        env.call_later(delay, fire, priority=URGENT)
    elif kind == "timeout":
        env.timeout(delay).callbacks.append(fire)
    else:
        event = env.event()
        event._value = None  # triggered, the way Initialize makes itself
        event.callbacks.append(fire)
        env.schedule(event, priority=URGENT, delay=delay)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(NODES, min_size=1, max_size=5),
    st.lists(st.sampled_from((0.25, 0.5, 1.0, 1.25, 2.0, 3.5)), max_size=4, unique=True),
)
def test_dispatch_order_is_the_sort_by_time_priority_seq(forest, cuts):
    roots = _numbered(forest, itertools.count())
    expected = _reference_order(roots)

    # Stepped by hand: peek() is the time of the dispatch that follows.
    env, log = Environment(), []
    for root in roots:
        _schedule(env, log, root)
    while env.peek() != float("inf"):
        due = env.peek()
        env.step()
        assert due == env.now == log[-1][1]
    assert log == expected

    # Run in segments: a cut stops short of everything due at or after it.
    env, log = Environment(), []
    for root in roots:
        _schedule(env, log, root)
    for cut in sorted(cuts):
        env.run(until=cut)
        assert env.now == cut
        assert log == [entry for entry in expected if entry[1] < cut]
    env.run()
    assert log == expected
