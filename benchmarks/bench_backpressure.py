"""Flow-controlled transport under overload and at moderate load.

Two claims of the transport layer (DESIGN.md §9) are measured on a
2-host, 2/4/2-slice hub with statistically sampled matching:

* **Backpressure bounds memory without losing content.**  The hub's drain
  capacity is self-calibrated (an instantaneous burst, timed on the
  simulation clock), then the same paced workload is replayed at ~2x that
  capacity with and without credit-based backpressure.  The throttled run
  must keep every receiver inbox within ``credit_window x fan-in``
  events, lose nothing, and produce the exact notification multiset of
  the unthrottled run — overload becomes upstream spill/delay instead of
  unbounded inbox growth.

* **Adaptive flush beats fixed epochs on tail latency.**  At moderate
  load (half capacity), per-channel adaptive flush (flush on batch-full
  or on the delay-budget deadline) must deliver a lower p99 notification
  delay than the fabric's fixed flush epochs at the same budget: busy
  channels fill their batch long before the budget expires, while fixed
  epochs hold every message until the next boundary at every hop.

Results are exported to ``BENCH_backpressure.json`` (override with
``REPRO_BENCH_BACKPRESSURE_OUT``) for the CI workflow to archive.
"""

import os

from repro.cluster import CloudProvider, HostSpec
from repro.filtering import (
    BruteForceLibrary,
    ExactBackend,
    Op,
    Predicate,
    PredicateSet,
)
from repro.metrics import write_json
from repro.pubsub import HubConfig, Publication, StreamHub, Subscription
from repro.sim import Environment
from repro.transport import TransportConfig

from conftest import memory_snapshot, run_once

SUBSCRIPTIONS = 150
ENGINE_HOSTS = 2
CREDIT_WINDOW = 16
FLUSH_BUDGET_S = 0.08
CALIBRATION_PUBS = 400
OVERLOAD_PUBS = 1_200
MODERATE_PUBS = 1_000
RESULTS = {}

THROTTLED = dict(
    flush_mode="adaptive",
    flush_s=0.01,
    flush_max_batch=8,
    backpressure=True,
    credit_window=CREDIT_WINDOW,
)


def band(low, high):
    return PredicateSet.of(
        Predicate(0, Op.GE, low), Predicate(0, Op.LE, high)
    )


def payload_for(pub_id):
    return [float(pub_id % 100), 0.0, 0.0, 0.0]


def build_hub(net=None):
    """Exact matching: notification content depends only on the
    publication, never on transport timing — the identity oracle.
    ``net`` overrides fields of the environment's transport config."""
    env = Environment()
    cloud = CloudProvider(env, spec=HostSpec(cores=8), max_hosts=8)
    hosts = [cloud.provision_now() for _ in range(ENGINE_HOSTS + 1)]
    config = HubConfig(
        ap_slices=2,
        m_slices=4,
        ep_slices=2,
        sink_slices=1,
        encrypted=False,
        backend_factory=lambda index: ExactBackend(BruteForceLibrary()),
        net=TransportConfig.from_env(**(net or {})),
    )
    hub = StreamHub(env, cloud.network, config)
    hub.deploy_all_on(hosts[:ENGINE_HOSTS], hosts[ENGINE_HOSTS:])
    for sub_id in range(SUBSCRIPTIONS):
        low = float((sub_id * 7) % 60)
        hub.subscribe(Subscription(sub_id, 1000 + sub_id, band(low, low + 40)))
    env.run()
    return env, hub


def drive(env, hub, count, rate):
    """Publish ``count`` events paced at ``rate``/s, then drain fully."""
    interval = 1.0 / rate

    def driver():
        for pub_id in range(count):
            hub.publish(
                Publication(
                    pub_id, payload=payload_for(pub_id), published_at=env.now
                )
            )
            yield env.timeout(interval)

    start = env.now
    env.process(driver())
    env.run()
    return env.now - start


def notification_multiset(hub):
    return sorted(
        (n.pub_id, n.count, tuple(sorted(n.subscriber_ids or ())))
        for n in hub.notification_log
    )


def inbox_peaks(hub):
    """Per-slice inbox peaks and the transport's inbound fan-in."""
    transport = hub.runtime.transport
    peaks = {}
    for slice_id in hub.engine_slice_ids():
        instance = hub.runtime._active(slice_id)
        peaks[slice_id] = {
            "peak_inbox": instance.peak_queue_length,
            "fan_in": transport.inbound_channel_count(instance),
        }
    return peaks


def measure_capacity():
    """Drain rate of an instantaneous burst, in publications per sim-second."""
    env, hub = build_hub()
    start = env.now
    for pub_id in range(CALIBRATION_PUBS):
        hub.publish(
            Publication(pub_id, payload=payload_for(pub_id), published_at=env.now)
        )
    env.run()
    return CALIBRATION_PUBS / (env.now - start)


def run_overload(rate, net=None):
    env, hub = build_hub(net)
    duration = drive(env, hub, OVERLOAD_PUBS, rate)
    transport = hub.runtime.transport
    spilled = sum(
        channel.messages_spilled for channel in transport._channels.values()
    )
    stall_s = sum(
        channel.stall_seconds_total
        for channel in transport._channels.values()
    )
    peaks = inbox_peaks(hub)
    return {
        "publications": OVERLOAD_PUBS,
        "rate_pub_s": rate,
        "sim_duration_s": duration,
        "notified_publications": hub.notified_publications,
        "notifications": notification_multiset(hub),
        "peak_inbox_max": max(p["peak_inbox"] for p in peaks.values()),
        "inbox_peaks": peaks,
        "messages_spilled": spilled,
        "stall_seconds_total": stall_s,
        "flush_causes": transport.flush_cause_totals(),
    }


def run_moderate(rate, mode):
    net = dict(flush_mode=mode, flush_s=FLUSH_BUDGET_S)
    if mode == "adaptive":
        net["flush_max_batch"] = 4
    env, hub = build_hub(net)
    drive(env, hub, MODERATE_PUBS, rate)
    stats = hub.delay_tracker.stats()
    assert stats is not None and stats.count == MODERATE_PUBS
    return {
        "publications": MODERATE_PUBS,
        "rate_pub_s": rate,
        "flush_mode": mode,
        "flush_s": FLUSH_BUDGET_S,
        "delay_mean_s": stats.mean,
        "delay_p50_s": stats.p50,
        "delay_p99_s": stats.p99,
        "delay_max_s": stats.maximum,
    }


def test_backpressure_bounds_inboxes_without_losing_content(benchmark, report):
    capacity = measure_capacity()
    overload_rate = 2.0 * capacity

    unthrottled = run_overload(overload_rate)
    throttled = run_once(
        benchmark, lambda: run_overload(overload_rate, THROTTLED)
    )

    # Identical content, exactly once, zero loss — under 2x overload.
    assert throttled["notifications"] == unthrottled["notifications"]
    assert throttled["notified_publications"] == OVERLOAD_PUBS
    assert unthrottled["notified_publications"] == OVERLOAD_PUBS

    # Every throttled inbox honours the credit bound; the unthrottled run
    # demonstrates the overload was real (its inboxes ran far deeper).
    for slice_id, peak in throttled["inbox_peaks"].items():
        if peak["fan_in"]:
            assert peak["peak_inbox"] <= CREDIT_WINDOW * peak["fan_in"], slice_id
    assert throttled["messages_spilled"] > 0
    assert unthrottled["peak_inbox_max"] > throttled["peak_inbox_max"]

    for name, run in (("unthrottled", unthrottled), ("throttled", throttled)):
        RESULTS[name] = {
            key: value
            for key, value in run.items()
            if key not in ("notifications",)
        }
    RESULTS["capacity_pub_s"] = capacity
    RESULTS["overload_factor"] = 2.0
    RESULTS["credit_window"] = CREDIT_WINDOW

    report()
    report(
        f"Backpressure under ~2x overload "
        f"({OVERLOAD_PUBS} pubs at {overload_rate:,.0f}/s, "
        f"capacity {capacity:,.0f}/s, window {CREDIT_WINDOW})"
    )
    report(
        f"  unthrottled peak inbox : {unthrottled['peak_inbox_max']:6d} events"
    )
    report(
        f"  throttled peak inbox   : {throttled['peak_inbox_max']:6d} events "
        f"(bound: window x fan-in)"
    )
    report(
        f"  spilled upstream       : {throttled['messages_spilled']:6d} messages, "
        f"{throttled['stall_seconds_total']:.2f} stall-s"
    )
    report(
        f"  content                : identical multiset, "
        f"{OVERLOAD_PUBS}/{OVERLOAD_PUBS} publications notified"
    )


def test_adaptive_flush_beats_fixed_on_tail_delay(report):
    capacity = RESULTS.get("capacity_pub_s") or measure_capacity()
    moderate_rate = 0.5 * capacity

    fixed = run_moderate(moderate_rate, "fixed")
    adaptive = run_moderate(moderate_rate, "adaptive")

    RESULTS["moderate"] = {"fixed": fixed, "adaptive": adaptive}
    RESULTS["p99_improvement"] = fixed["delay_p99_s"] / adaptive["delay_p99_s"]

    report()
    report(
        f"Adaptive vs fixed flush at moderate load "
        f"({MODERATE_PUBS} pubs at {moderate_rate:,.0f}/s, "
        f"budget {FLUSH_BUDGET_S * 1000:.0f} ms)"
    )
    for run in (fixed, adaptive):
        report(
            f"  {run['flush_mode']:<9}: p50 {run['delay_p50_s'] * 1000:7.1f} ms   "
            f"p99 {run['delay_p99_s'] * 1000:7.1f} ms   "
            f"max {run['delay_max_s'] * 1000:7.1f} ms"
        )
    report(
        f"  p99 improvement : {RESULTS['p99_improvement']:.2f}x "
        f"(acceptance floor: adaptive < fixed)"
    )

    path = os.environ.get(
        "REPRO_BENCH_BACKPRESSURE_OUT", "BENCH_backpressure.json"
    )
    write_json(
        path,
        {
            "workload": {
                "subscriptions": SUBSCRIPTIONS,
                "matching": "exact (brute force, band filters)",
                "engine_hosts": ENGINE_HOSTS,
                "throttled_config": dict(THROTTLED),
            },
            "results": dict(RESULTS),
            "memory": memory_snapshot(),
        },
    )
    report(f"  exported        : {path}")
    assert adaptive["delay_p99_s"] < fixed["delay_p99_s"]
