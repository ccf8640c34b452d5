"""Determinism and call_later tests for the sim kernel."""

from repro.sim import Environment


class TestCallLater:
    def test_invokes_function_at_time(self):
        env = Environment()
        calls = []
        env.call_later(5.0, calls.append, "x")
        env.run()
        assert calls == ["x"]
        assert env.now == 5.0

    def test_ordering_among_same_time_callbacks(self):
        env = Environment()
        order = []
        env.call_later(1.0, order.append, "first")
        env.call_later(1.0, order.append, "second")
        env.run()
        assert order == ["first", "second"]

    def test_zero_delay_runs_before_later_events(self):
        env = Environment()
        order = []
        env.call_later(1.0, order.append, "later")
        env.call_later(0.0, order.append, "now")
        env.run()
        assert order == ["now", "later"]


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run_once():
            env = Environment()
            trace = []

            def worker(name, delay):
                while env.now < 50.0:
                    yield env.timeout(delay)
                    trace.append((round(env.now, 6), name))

            env.process(worker("a", 1.7))
            env.process(worker("b", 2.3))
            env.process(worker("c", 0.9))
            env.run(until=50.0)
            return trace

        assert run_once() == run_once()

