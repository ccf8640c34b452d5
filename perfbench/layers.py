"""Which public calls of each layer are wrapped, and the metrics they give.

A layer is a module under ``src/repro/``.  :func:`install` puts a
:class:`~perfbench.tracer.Tracer` around the layer boundaries;
:func:`layer_metrics` turns its aggregates, plus the counters the engine
already keeps (store residency, migration reports, manager history), into
the per-layer metrics of BENCHMARK.json.

Known limit: bodies of DES generator processes (slice worker loops,
``CpuScheduler.run``, the migration coordinator) resume inside
``Environment.step`` callbacks and cannot be wrapped from outside, so their
host time lands in ``sim.dispatch_self_s``.
"""

from __future__ import annotations

import statistics
from typing import Dict

from repro.cluster.network import Network
from repro.coord import CoordinationKernel
from repro.elastic.enforcer import ElasticityEnforcer
from repro.elastic.manager import ElasticityManager
from repro.elastic.probes import ProbeCollector
from repro.engine.instance import SliceInstance
from repro.engine.runtime import EngineRuntime
from repro.filtering import AspeLibrary, ExactBackend, SampledBackend
from repro.filtering.store import ChunkedMatrixStore
from repro.pubsub.operators import (
    KIND_PUBLICATION,
    AccessPointHandler,
    ExitPointHandler,
    MatcherHandler,
    NotificationSinkHandler,
)
from repro.sim import Environment
from repro.transport import Transport

from .tracer import Tracer

__all__ = ["ROOT", "install", "layer_metrics", "layer_self_seconds", "clock_of"]

#: Name of the root span the runner opens around the measured phase.
ROOT = "bench"


def _bump(counts: Dict[str, float], name: str, amount: float = 1) -> None:
    counts[name] = counts.get(name, 0) + amount


# -- count hooks: hook(counts, args, result); args[0] is ``self`` -------------

def _route(counts, args, result):
    _bump(counts, "engine.route_calls")
    _bump(counts, "engine.route_events")


def _route_batch(counts, args, result):
    _bump(counts, "engine.route_calls")
    _bump(counts, "engine.route_events", len(args[2]))


def _send(counts, args, result):
    _bump(counts, "transport.send_calls")
    _bump(counts, "transport.msgs")


def _send_many(counts, args, result):
    _bump(counts, "transport.send_calls")
    _bump(counts, "transport.msgs", len(args[4]))


def _net_send(counts, args, result):
    _bump(counts, "cluster.net_transfers")
    _bump(counts, "cluster.net_msgs")
    _bump(counts, "cluster.net_bytes", args[3])


def _net_send_batch(counts, args, result):
    _bump(counts, "cluster.net_transfers")
    _bump(counts, "cluster.net_msgs", len(args[4]))
    _bump(counts, "cluster.net_bytes", sum(args[3]))


def _handler(prefix: str, batch: bool):
    def hook(counts, args, result):
        _bump(counts, prefix + "_calls")
        _bump(counts, prefix + "_events", len(args[1]) if batch else 1)
    return hook


def _matcher_one(counts, args, result):
    if args[1].kind == KIND_PUBLICATION:
        _bump(counts, "pubsub.m_calls")
        _bump(counts, "pubsub.m_pubs")


def _matcher_batch(counts, args, result):
    _bump(counts, "pubsub.m_calls")
    _bump(counts, "pubsub.m_pubs", len(args[1]))


def _backend_match(counts, args, result):
    _bump(counts, "filtering.match_calls")
    _bump(counts, "filtering.pubs_matched")


def _backend_match_batch(counts, args, result):
    _bump(counts, "filtering.match_calls")
    _bump(counts, "filtering.pubs_matched", len(args[2]))


def _library_match(counts, args, result):
    _bump(counts, "filtering.rows_visited", args[0].store_stats()["rows"])
    _bump(counts, "filtering.matches_out", len(result))


def _library_match_batch(counts, args, result):
    _bump(counts, "filtering.rows_visited",
          args[0].store_stats()["rows"] * len(result))
    _bump(counts, "filtering.matches_out", sum(len(ids) for ids in result))


def _library_store(counts, args, result):
    _bump(counts, "filtering.store_calls")
    _bump(counts, "filtering.subs_stored")


def _library_store_many(counts, args, result):
    _bump(counts, "filtering.store_calls")
    _bump(counts, "filtering.subs_stored", result)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; ``tracer.remove()`` undoes it."""
    spans = [
        (Environment, "run", "sim.run", None),
        (EngineRuntime, "inject", "engine.inject", None),
        (EngineRuntime, "route", "engine.route", _route),
        (EngineRuntime, "route_batch", "engine.route", _route_batch),
        (SliceInstance, "deliver", "engine.deliver", None),
        (EngineRuntime, "migrate", "engine.migrate", None),
        (Transport, "send", "transport.send", _send),
        (Transport, "send_many", "transport.send", _send_many),
        (Transport, "on_consumed", "transport.consumed", None),
        (Network, "send", "cluster.net", _net_send),
        (Network, "send_batch", "cluster.net", _net_send_batch),
        (AccessPointHandler, "process", "pubsub.ap", _handler("pubsub.ap", False)),
        (AccessPointHandler, "process_batch", "pubsub.ap", _handler("pubsub.ap", True)),
        (MatcherHandler, "process", "pubsub.m", _matcher_one),
        (MatcherHandler, "process_batch", "pubsub.m", _matcher_batch),
        (MatcherHandler, "prepare_batch", "pubsub.m", None),
        (ExitPointHandler, "process", "pubsub.ep", _handler("pubsub.ep", False)),
        (ExitPointHandler, "process_batch", "pubsub.ep", _handler("pubsub.ep", True)),
        (NotificationSinkHandler, "process", "pubsub.sink", None),
        (ExactBackend, "match", "filtering.match", _backend_match),
        (ExactBackend, "match_batch", "filtering.match", _backend_match_batch),
        (SampledBackend, "match", "filtering.match", _backend_match),
        (AspeLibrary, "match", "filtering.match", _library_match),
        (AspeLibrary, "match_batch", "filtering.match", _library_match_batch),
        (ExactBackend, "store", "filtering.store", None),
        (AspeLibrary, "store", "filtering.store", _library_store),
        (AspeLibrary, "store_many", "filtering.store", _library_store_many),
        (ChunkedMatrixStore, "append", "store.append", None),
        (ChunkedMatrixStore, "compact", "store.compact", None),
        (ProbeCollector, "collect_now", "elastic.probe", None),
        (ElasticityEnforcer, "resolve", "elastic.resolve", None),
        (ElasticityManager, "execute_decision", "elastic.execute", None),
    ] + [
        (CoordinationKernel, operation, "coord.op", None)
        for operation in ("create", "get", "set", "delete", "get_children")
    ]
    for owner, attribute, name, hook in spans:
        tracer.install(owner, attribute,
                       tracer.wrap(name, owner.__dict__[attribute], hook))
    tracer.install(ChunkedMatrixStore, "blocks", tracer.wrap_iterator(
        "store.blocks", ChunkedMatrixStore.__dict__["blocks"]))
    # One span per step would cost more than the step; count only.
    tracer.install(Environment, "step", tracer.wrap_counter(
        "sim.step", Environment.__dict__["step"]))


def clock_of(name: str) -> str:
    """``host`` time (a median over repetitions), or ``sim`` time or a
    ``count`` (which must repeat exactly), by the metric's name."""
    if name.endswith(("self_s", "_share", "_us_per_pub", "_us_per_sub")):
        return "host"
    return "sim" if "_sim_" in name else "count"


def layer_self_seconds(tracer: Tracer) -> Dict[str, float]:
    """Self time per layer; with ``unattributed`` (the root span's own) they
    add up to the traced phase."""
    seconds: Dict[str, float] = {}
    for name, (_, self_s) in tracer.totals.items():
        layer = "unattributed" if name == ROOT else name.split(".")[0]
        seconds[layer] = seconds.get(layer, 0.0) + self_s
    return seconds


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, rig, publications: int) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (see BENCHMARK.json)."""
    calls, self_s = tracer.calls, tracer.self_seconds

    def counts(name: str) -> float:
        return tracer.counts.get(name, 0)

    root_s = sum(total[1] for total in tracer.totals.values())
    hub, manager = rig.hub, rig.manager
    metrics: Dict[str, float] = {}

    steps = calls("sim.step")
    metrics["sim.steps"] = steps
    metrics["sim.steps_per_pub"] = _ratio(steps, publications)
    metrics["sim.dispatch_self_s"] = self_s("sim")
    metrics["sim.self_share"] = _ratio(self_s("sim"), root_s)

    reports = manager.migration_reports if manager is not None else []
    durations_ms = [report.duration_s * 1e3 for report in reports]
    metrics["engine.route_calls"] = counts("engine.route_calls")
    metrics["engine.route_events"] = counts("engine.route_events")
    metrics["engine.events_per_route_call"] = _ratio(
        counts("engine.route_events"), counts("engine.route_calls"))
    metrics["engine.route_self_s"] = self_s("engine.route") + self_s("engine.inject")
    metrics["engine.deliver_calls"] = calls("engine.deliver")
    metrics["engine.deliver_self_s"] = self_s("engine.deliver")
    metrics["engine.migrations"] = calls("engine.migrate")
    metrics["engine.migration_sim_ms_p50"] = (
        statistics.median(durations_ms) if durations_ms else 0.0)
    metrics["engine.migration_sim_ms_max"] = max(durations_ms, default=0.0)
    metrics["engine.interruption_sim_ms_max"] = max(
        (report.interruption_s * 1e3 for report in reports), default=0.0)
    metrics["engine.migration_state_bytes"] = sum(r.state_bytes for r in reports)

    flushes = hub.runtime.transport.flush_cause_totals()
    metrics["transport.send_calls"] = counts("transport.send_calls")
    metrics["transport.msgs"] = counts("transport.msgs")
    metrics["transport.self_s"] = self_s("transport")
    for cause in ("eager", "full", "deadline", "credit"):
        metrics[f"transport.flush_{cause}"] = flushes.get(cause, 0)
    metrics["transport.msgs_per_flush"] = _ratio(
        counts("transport.msgs"), sum(flushes.values()))

    hosts = [rig.cloud.host(f"host-{i}") for i in range(rig.cloud.total_provisioned)]
    metrics["cluster.net_transfers"] = counts("cluster.net_transfers")
    metrics["cluster.net_msgs"] = counts("cluster.net_msgs")
    metrics["cluster.net_bytes"] = counts("cluster.net_bytes")
    metrics["cluster.msgs_per_transfer"] = _ratio(
        counts("cluster.net_msgs"), counts("cluster.net_transfers"))
    metrics["cluster.net_self_s"] = self_s("cluster")
    metrics["cluster.cpu_busy_core_sim_s"] = sum(
        host.cpu.busy_core_seconds() for host in hosts)

    for operator in ("ap", "ep"):
        metrics[f"pubsub.{operator}_calls"] = counts(f"pubsub.{operator}_calls")
    metrics["pubsub.ap_events_per_call"] = _ratio(
        counts("pubsub.ap_events"), counts("pubsub.ap_calls"))
    metrics["pubsub.ep_lists_per_call"] = _ratio(
        counts("pubsub.ep_events"), counts("pubsub.ep_calls"))
    metrics["pubsub.m_calls"] = counts("pubsub.m_calls")
    metrics["pubsub.m_pubs_per_call"] = _ratio(
        counts("pubsub.m_pubs"), counts("pubsub.m_calls"))
    metrics["pubsub.m_broadcast_fanout"] = _ratio(
        counts("pubsub.m_pubs"), publications)
    for operator in ("ap", "m", "ep", "sink"):
        metrics[f"pubsub.{operator}_self_s"] = self_s(f"pubsub.{operator}")

    matched = counts("filtering.pubs_matched")
    stored = counts("filtering.subs_stored")
    metrics["filtering.match_calls"] = counts("filtering.match_calls")
    metrics["filtering.pubs_matched"] = matched
    metrics["filtering.rows_visited"] = counts("filtering.rows_visited")
    metrics["filtering.rows_per_pub"] = _ratio(
        counts("filtering.rows_visited"), matched)
    metrics["filtering.matches_out"] = counts("filtering.matches_out")
    metrics["filtering.selectivity"] = _ratio(
        counts("filtering.matches_out"), counts("filtering.rows_visited"))
    metrics["filtering.match_self_s"] = self_s("filtering.match")
    metrics["filtering.match_us_per_pub"] = _ratio(
        self_s("filtering.match") * 1e6, matched)
    metrics["filtering.store_calls"] = counts("filtering.store_calls")
    metrics["filtering.store_self_s"] = self_s("filtering.store")
    metrics["filtering.store_us_per_sub"] = _ratio(
        self_s("filtering.store") * 1e6, stored)

    stores = []
    for slice_id in hub.runtime.slice_ids(hub.M):
        library = getattr(hub.runtime.handler_of(slice_id).backend, "library", None)
        if library is not None:
            stores.append((library.store_stats(), library.store_config))
    chunked = [(stats, config) for stats, config in stores
               if stats["backend"] != "dense"]
    metrics["store.faults"] = sum(stats["faults"] for stats, _ in chunked)
    metrics["store.evictions"] = sum(stats["evictions"] for stats, _ in chunked)
    metrics["store.faults_per_pub"] = _ratio(metrics["store.faults"], publications)
    metrics["store.resident_peak_bytes"] = sum(
        stats["resident_peak_bytes"] for stats, _ in chunked)
    metrics["store.budget_bytes"] = sum(
        config.memory_budget_bytes for _, config in chunked)
    metrics["store.blocks_self_s"] = self_s("store.blocks")
    metrics["store.append_self_s"] = self_s("store.append")
    metrics["store.compactions"] = calls("store.compact")

    history = manager.history if manager is not None else []
    metrics["elastic.probe_rounds"] = calls("elastic.probe")
    metrics["elastic.probe_self_s"] = self_s("elastic.probe")
    metrics["elastic.resolve_calls"] = calls("elastic.resolve")
    metrics["elastic.resolve_self_s"] = self_s("elastic.resolve")
    metrics["elastic.decisions"] = len(history)
    metrics["elastic.scale_out"] = sum(1 for r in history if r.new_hosts > 0)
    metrics["elastic.scale_in"] = sum(1 for r in history if r.released_hosts > 0)
    metrics["elastic.max_hosts"] = max(
        (count for _, count in rig.host_series), default=0) if manager else 0
    metrics["elastic.final_hosts"] = rig.host_series[-1][1] if manager else 0

    metrics["coord.ops"] = calls("coord.op")
    metrics["coord.self_s"] = self_s("coord")

    metrics["trace.unattributed_share"] = _ratio(self_s(ROOT), root_s)
    return metrics
