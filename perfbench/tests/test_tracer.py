"""The tracer's arithmetic, its clean removal, and exact count repeatability.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import dataclasses

import pytest

from perfbench import layers, runner
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS
from repro.sim import Environment


class FakeClock:
    """A clock that only moves when the code under test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


def test_self_times_of_a_call_tree_sum_to_the_root(clock):
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    leaf = tracer.wrap("toy.leaf", leaf)

    def branch():
        clock.now += 1.0
        leaf()
        clock.now += 0.5
        leaf()

    branch = tracer.wrap("toy.branch", branch)

    with tracer.span("root"):
        clock.now += 0.25
        branch()
        leaf()

    assert tracer.totals["toy.leaf"] == [3, 6.0]
    assert tracer.totals["toy.branch"] == [1, 1.5]
    assert tracer.totals["root"] == [1, 0.25]
    assert sum(total[1] for total in tracer.totals.values()) == clock.now == 7.75
    assert tracer.self_seconds("toy") == 7.5


def test_a_wrapped_generator_is_timed_per_next(clock):
    tracer = Tracer(clock=clock)

    def blocks():
        for _ in range(3):
            clock.now += 1.0  # producing an item (faulting a chunk in)
            yield clock.now

    blocks = tracer.wrap_iterator("toy.blocks", blocks)
    with tracer.span("root"):
        for _ in blocks():
            clock.now += 10.0  # the consumer's work is not the iterator's

    # Three items and the final StopIteration probe.
    assert tracer.totals["toy.blocks"] == [4, 3.0]
    assert tracer.totals["root"] == [1, 30.0]


def test_an_exception_in_a_wrapped_call_still_pops_the_stack(clock):
    tracer = Tracer(clock=clock)

    def fails():
        clock.now += 1.0
        raise KeyError("boom")

    fails = tracer.wrap("toy.fails", fails)
    with tracer.span("root"):
        with pytest.raises(KeyError):
            fails()
        clock.now += 2.0

    assert tracer.totals["toy.fails"] == [1, 1.0]
    assert tracer.totals["root"] == [1, 2.0]
    assert tracer._stack == []


def test_count_hooks_see_arguments_and_result(clock):
    tracer = Tracer(clock=clock)

    def hook(counts, args, result):
        counts["toy.items"] = counts.get("toy.items", 0) + len(args[0]) + result

    double = tracer.wrap("toy.double", lambda items: 2 * len(items), hook)
    assert double([1, 2, 3]) == 6
    assert tracer.counts == {"toy.items": 9}


def test_records_carry_parent_and_wave_only_while_recording(clock):
    tracer = Tracer(clock=clock, max_records=3)
    step = tracer.wrap("toy.step", lambda: None)
    step()  # not recording yet
    tracer.recording, tracer.wave = True, 5
    with tracer.span("root"):
        step()
        step()
        step()  # over max_records: aggregated, not recorded
    assert [(r[0], r[3], r[4]) for r in tracer.records] == [
        ("root", -1, 5), ("toy.step", 0, 5), ("toy.step", 0, 5)]
    assert tracer.calls("toy.step") == 4


def test_every_wrapper_is_removed_after_the_traced_pass():
    original_step = Environment.step
    original_run = Environment.run
    tracer = Tracer()
    layers.install(tracer)
    assert Environment.step is not original_step
    tracer.remove()
    assert Environment.step is original_step
    assert Environment.run is original_run
    assert tracer._installed == []


def test_counts_of_a_traced_pipeline_burst_repeat_exactly(tmp_path):
    small = dataclasses.replace(
        WORKLOADS["pipeline_burst"], publications=1_024, window=256)
    inputs = small.generate(seed=7)
    reps = [
        runner._run_rep(small, inputs, str(tmp_path), "traced", every=1)
        for _ in range(2)
    ]
    original_step = Environment.step
    assert not hasattr(original_step, "__wrapped__")
    exact = {name for name in reps[0].layer if layers.clock_of(name) != "host"}
    assert reps[0].layer["sim.steps"] > 0
    assert reps[0].layer["engine.route_events"] > 0
    assert {n: reps[0].layer[n] for n in exact} == {n: reps[1].layer[n] for n in exact}
    assert reps[0].digest == reps[1].digest
    # Layer self times plus the root's own time are the traced wall time.
    total = sum(reps[0].layer_self_s.values())
    assert total == pytest.approx(reps[0].traced_s, rel=0.01)
