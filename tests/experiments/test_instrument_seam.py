"""perfbench measures the engine from outside: after a hub is built it
replaces the layer boundaries *as class attributes* by timing wrappers
(``perfbench/layers.py``).  A bound method cached in an ``__init__`` or at
module scope, or a kernel loop that stops going through ``self.step()``,
would blind it without failing anything.  This test installs plain counting
wrappers the same way and checks they see the whole run."""

from collections import Counter

from repro.cluster import Network
from repro.engine import EngineRuntime
from repro.engine.instance import SliceInstance
from repro.pubsub.operators import (
    AccessPointHandler,
    ExitPointHandler,
    MatcherHandler,
    NotificationSinkHandler,
)
from repro.sim import Environment
from repro.transport import Transport

from .test_event_plane_trajectory import OrderSensitiveBackend, build_hub

#: The boundaries perfbench wraps that the event plane calls.
BOUNDARIES = [
    (Environment, "run"),
    (Environment, "step"),
    (EngineRuntime, "inject"),
    (EngineRuntime, "route"),
    (EngineRuntime, "route_batch"),
    (EngineRuntime, "migrate"),
    (SliceInstance, "deliver"),
    (Transport, "send"),
    (Transport, "send_many"),
    (Network, "send"),
    (Network, "send_batch"),
    (AccessPointHandler, "process"),
    (AccessPointHandler, "process_batch"),
    (MatcherHandler, "process"),
    (MatcherHandler, "process_batch"),
    (MatcherHandler, "prepare_batch"),
    (ExitPointHandler, "process"),
    (ExitPointHandler, "process_batch"),
    (NotificationSinkHandler, "process"),
    (OrderSensitiveBackend, "match"),
]


def test_wrappers_installed_after_the_build_see_every_call(monkeypatch):
    env, hub, reports = build_hub(batch_limit=8, adaptive=False)
    calls, units = Counter(), Counter()

    def counting(owner, attribute, size):
        original = owner.__dict__[attribute]
        name = f"{owner.__name__}.{attribute}"

        def wrapper(*args, **kwargs):
            calls[name] += 1
            units[name] += size(args)
            return original(*args, **kwargs)

        return wrapper

    for owner, attribute in BOUNDARIES:
        size = (lambda args: 1)
        if attribute in ("process_batch", "prepare_batch"):
            size = (lambda args: len(args[1]))
        elif attribute == "send_many":
            size = (lambda args: len(args[4]))
        monkeypatch.setattr(owner, attribute, counting(owner, attribute, size))
    env.run()

    assert all(calls[f"{o.__name__}.{a}"] > 0 for o, a in BOUNDARIES), calls
    assert calls["Environment.run"] == 1
    # Everything scheduled was dispatched, each by one call of step().
    assert env.peek() == float("inf")
    assert calls["Environment.step"] == env._seq
    # Every message the transport took reached an instance's deliver().
    sent = units["Transport.send"] + units["Transport.send_many"]
    assert calls["SliceInstance.deliver"] == sent
    assert calls["EngineRuntime.inject"] == hub.published_count == 200
    assert calls["EngineRuntime.migrate"] == len(reports) == 2
    # Every publication crossed each operator through a wrapped handler call.
    ap = units["AccessPointHandler.process"] + units["AccessPointHandler.process_batch"]
    m = units["MatcherHandler.process"] + units["MatcherHandler.process_batch"]
    assert (ap, m) == (200, 200 * 4)
    assert units["MatcherHandler.prepare_batch"] == m
    assert calls["OrderSensitiveBackend.match"] == m
    assert units["NotificationSinkHandler.process"] == 200
