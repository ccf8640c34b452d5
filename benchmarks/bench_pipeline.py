"""Wall-clock benchmark of the full AP → M → EP pipeline (simulator speed).

Measures how fast the *simulator* moves events through a deployed hub —
not simulated throughput, but host wall-clock events per second — with
event-plane batching off (every batch limit 1, the seed's per-event path)
and on (AP, M and EP coalesce up to ``BATCH_LIMIT`` queued events and
micro-batch their emissions per destination slice).

A publication burst is injected while the clients are unthrottled, so the
operator inboxes run deep and coalescing actually engages.  The batched
run must:

* produce the bit-identical notification log (pub ids, match counts and
  subscriber sets in identical delivery order), and
* move events at >= 2x the per-event path's wall-clock rate.

Results are exported to ``BENCH_pipeline.json`` (override the path with
``REPRO_BENCH_PIPELINE_OUT``) for the CI workflow to archive, the
disabled-telemetry overhead among them (reported, not gated).
"""

import os
import random
import time

from repro.cluster import CloudProvider, HostSpec
from repro.filtering import (
    AspeCipher,
    AspeKey,
    AspeLibrary,
    ExactBackend,
    Op,
    Predicate,
    PredicateSet,
)
from repro.metrics import write_json
from repro.pubsub import HubConfig, Publication, StreamHub, Subscription
from repro.sim import Environment

from conftest import memory_snapshot, run_once

SUBSCRIPTIONS = 120
PUBLICATIONS = 2_000
BATCH_LIMIT = 128
ENGINE_HOSTS = 2
RESULTS = {}

#: Both configurations replay the exact same ciphertexts, so matching
#: decisions are bit-identical even at tolerance boundaries.
_WORKLOAD = None


def encrypted_workload():
    global _WORKLOAD
    if _WORKLOAD is None:
        cipher = AspeCipher(
            AspeKey.generate(4, rng=random.Random(11)), rng=random.Random(12)
        )
        subs = [
            cipher.encrypt_subscription(band(0, low, low + 80.0))
            for low in (float((sub_id % 6) * 50) for sub_id in range(SUBSCRIPTIONS))
        ]
        pubs = [
            cipher.encrypt_publication([float(pub_id % 300), 0.0, 0.0, 0.0])
            for pub_id in range(PUBLICATIONS)
        ]
        _WORKLOAD = (subs, pubs)
    return _WORKLOAD


def build_hub(batched: bool, telemetry=None):
    env = Environment()
    cloud = CloudProvider(env, spec=HostSpec(cores=8), max_hosts=8)
    hosts = [cloud.provision_now() for _ in range(ENGINE_HOSTS + 1)]
    limits = (
        dict(
            ap_batch_limit=BATCH_LIMIT,
            matcher_batch_limit=BATCH_LIMIT,
            ep_batch_limit=BATCH_LIMIT,
        )
        if batched
        else {}
    )
    config = HubConfig(
        ap_slices=2,
        m_slices=4,
        ep_slices=2,
        sink_slices=1,
        encrypted=False,
        backend_factory=lambda index: ExactBackend(AspeLibrary()),
        telemetry=telemetry,
        **limits,
    )
    hub = StreamHub(env, cloud.network, config)
    hub.deploy_all_on(hosts[:ENGINE_HOSTS], [hosts[ENGINE_HOSTS]])
    return env, hub


def band(attribute, low, high):
    return PredicateSet.of(
        Predicate(attribute, Op.GE, low), Predicate(attribute, Op.LE, high)
    )


def run_pipeline(batched: bool, telemetry=None):
    encrypted_subs, encrypted_pubs = encrypted_workload()
    env, hub = build_hub(batched, telemetry=telemetry)
    for sub_id, encrypted in enumerate(encrypted_subs):
        hub.subscribe(Subscription(sub_id, 1000 + sub_id, encrypted))
    env.run()
    burst_start = env.now
    for pub_id, encrypted in enumerate(encrypted_pubs):
        hub.publish(Publication(pub_id, payload=encrypted, published_at=env.now))
    wall_start = time.perf_counter()
    env.run()
    wall_s = time.perf_counter() - wall_start
    processed = sum(
        hub.runtime.slice_stats(slice_id)["processed"]
        for slice_id in hub.engine_slice_ids()
    )
    return {
        "wall_s": wall_s,
        "processed_events": processed,
        "wall_events_per_s": processed / wall_s,
        "sim_duration_s": env.now - burst_start,
        "sim_publications_per_s": PUBLICATIONS / (env.now - burst_start),
        # Sorted: batching shifts cross-channel delivery interleaving (which
        # was never ordered), but the notification multiset must be
        # bit-identical and exactly-once.
        "notifications": sorted(
            (n.pub_id, n.count, tuple(sorted(n.subscriber_ids)))
            for n in hub.notification_log
        ),
    }


def test_pipeline_batched_vs_per_event(benchmark, report):
    per_event = run_pipeline(batched=False)
    batched = run_once(benchmark, lambda: run_pipeline(batched=True))

    # Exactly-once, bit-identical delivery: same notifications, same order.
    assert batched["notifications"] == per_event["notifications"]
    assert len(batched["notifications"]) == PUBLICATIONS
    # Batching collapses transfers and calls, never the event stream.
    assert batched["processed_events"] == per_event["processed_events"]

    speedup = batched["wall_events_per_s"] / per_event["wall_events_per_s"]
    for name, run in (("per_event", per_event), ("batched", batched)):
        RESULTS[name] = {
            key: value for key, value in run.items() if key != "notifications"
        }
    RESULTS["wall_speedup"] = speedup

    report()
    report(
        f"Pipeline wall-clock ({PUBLICATIONS} publications x "
        f"{SUBSCRIPTIONS} subscriptions, batch limit {BATCH_LIMIT})"
    )
    report(
        f"  per-event path  : {per_event['wall_events_per_s']:12,.0f} events/s "
        f"({per_event['wall_s'] * 1000:8.1f} ms)"
    )
    report(
        f"  batched path    : {batched['wall_events_per_s']:12,.0f} events/s "
        f"({batched['wall_s'] * 1000:8.1f} ms)"
    )
    report(f"  speedup         : {speedup:8.2f}x (acceptance floor: 2x)")
    _export(report)
    assert speedup >= 2.0


def _export(report):
    path = os.environ.get("REPRO_BENCH_PIPELINE_OUT", "BENCH_pipeline.json")
    write_json(
        path,
        {
            "workload": {
                "subscriptions": SUBSCRIPTIONS,
                "publications": PUBLICATIONS,
                "batch_limit": BATCH_LIMIT,
                "engine_hosts": ENGINE_HOSTS,
            },
            "results": dict(RESULTS),
            "memory": memory_snapshot(),
        },
    )
    report(f"  exported        : {path}")


def test_pipeline_telemetry_artifacts(report):
    """A telemetry-enabled run observes without perturbing, and its trace
    and metric scrape are exported for the CI workflow to archive."""
    from repro.telemetry import Telemetry, write_prometheus

    baseline = run_pipeline(batched=True)
    telemetry = Telemetry()
    traced = run_pipeline(batched=True, telemetry=telemetry)

    # Pure observer: the notification log is bit-identical with tracing on.
    assert traced["notifications"] == baseline["notifications"]
    assert traced["processed_events"] == baseline["processed_events"]

    # The registry saw the whole pipeline.
    assert telemetry.events_processed.labels(operator="M").value > 0
    assert telemetry.batches_coalesced.labels(operator="M").value > 0
    assert telemetry.notification_delay.count == len(traced["notifications"])
    hop_names = {span.name for span in telemetry.tracer.spans}
    assert {"hop.AP", "hop.M", "hop.EP", "hop.SINK"} <= hop_names

    trace_path = os.environ.get("REPRO_BENCH_TRACE_OUT", "BENCH_trace.jsonl")
    telemetry.tracer.write_jsonl(trace_path)
    metrics_path = os.environ.get("REPRO_BENCH_METRICS_OUT", "BENCH_metrics.prom")
    write_prometheus(metrics_path, telemetry.metrics)

    report()
    report("Telemetry-enabled pipeline run (pure-observer check)")
    report(f"  spans recorded  : {len(telemetry.tracer.spans):8d}")
    report(f"  mean delay      : {telemetry.notification_delay.mean * 1000:8.1f} ms")
    report(f"  exported        : {trace_path}, {metrics_path}")


def test_pipeline_disabled_telemetry_overhead(report):
    """A constructed-but-disabled bundle observes nothing and changes nothing.

    The disabled path is a single ``is None`` / ``tracer.enabled`` test at
    every instrumented call site.  Its wall-clock cost (interleaved
    best-of-N runs) is reported and exported, not gated: on a ~0.2 s run
    the sign of a 3 % difference is host noise, and wall-clock claims
    belong to perfbench's alternating pairs.  Gated is what cannot flip:
    the notification multiset and the event count are identical.
    """
    from repro.telemetry import Telemetry

    rounds = 3
    run_pipeline(batched=True)  # warm caches and the encrypted workload
    bare_runs = []
    disabled_runs = []
    for _ in range(rounds):
        bare_runs.append(run_pipeline(batched=True))
        disabled_runs.append(
            run_pipeline(batched=True, telemetry=Telemetry.disabled())
        )
    bare = min(run["wall_s"] for run in bare_runs)
    disabled = min(run["wall_s"] for run in disabled_runs)
    overhead = disabled / bare - 1.0
    RESULTS["disabled_telemetry"] = {
        "bare_wall_s": bare,
        "disabled_wall_s": disabled,
        "overhead": overhead,
    }

    report()
    report("Disabled-telemetry overhead (best of "
           f"{rounds} interleaved runs)")
    report(f"  no telemetry    : {bare * 1000:8.1f} ms")
    report(f"  disabled bundle : {disabled * 1000:8.1f} ms")
    report(f"  overhead        : {overhead * 100:+8.2f}% (reported, not gated)")
    _export(report)
    for run in disabled_runs:
        assert run["notifications"] == bare_runs[0]["notifications"]
        assert run["processed_events"] == bare_runs[0]["processed_events"]
