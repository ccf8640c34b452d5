"""Hub-level determinism of parallel matching execution.

Full pipeline runs (AP → M → EP → SINK) must emit *byte-identical*
notification logs whether matching executes inline or on worker
processes — including with a live M-slice migration mid-run, which tears
the old channel down (cancelling in-flight futures) and resyncs the new
instance's matrix from scratch, and including the loss of a worker
process, between batches or under one.
"""

import os
import random
import signal

import pytest

from repro.cluster import CloudProvider, HostSpec
from repro.filtering import AspeCipher, AspeKey, AspeLibrary, ExactBackend
from repro.parallel import create_executor
from repro.pubsub import HubConfig, Publication, StreamHub, Subscription
from repro.pubsub.operators import KIND_PUBLICATION, MatcherHandler
from repro.sim import Environment

from .conftest import assert_nothing_left, kill_worker, random_filter

SUBSCRIPTIONS = 48
PUBLICATIONS = 120


def workload(cipher):
    rng = random.Random(3)
    subs = [
        cipher.encrypt_subscription(random_filter(rng))
        for _ in range(SUBSCRIPTIONS)
    ]
    pubs = [
        cipher.encrypt_publication([rng.uniform(0.0, 100.0) for _ in range(4)])
        for _ in range(PUBLICATIONS)
    ]
    return subs, pubs


def batches_offloaded(hub):
    return sum(
        hub.runtime.handler_of(f"M:{i}").batches_offloaded
        for i in range(hub.config.m_slices)
    )


def run_hub(cipher, executor=None, workers=0, migrate=False, between_waves=None):
    """One run; ``between_waves(hub)`` splits the publications into two
    waves and is called with the hub drained between them."""
    encrypted_subs, encrypted_pubs = workload(cipher)
    env = Environment()
    cloud = CloudProvider(env, spec=HostSpec(cores=8), max_hosts=8)
    hosts = [cloud.provision_now() for _ in range(4)]
    knobs = dict(
        ap_slices=2,
        m_slices=4,
        ep_slices=2,
        sink_slices=1,
        encrypted=False,
        backend_factory=lambda index: ExactBackend(AspeLibrary()),
        matcher_batch_limit=4,
        match_executor=executor,
    )
    if workers is not None:
        # None leaves the field on its default factory (REPRO_MATCH_WORKERS).
        knobs["match_workers"] = workers
    config = HubConfig(**knobs)
    hub = StreamHub(env, cloud.network, config)
    hub.deploy_all_on(hosts[:2], [hosts[2]])
    for sub_id, encrypted in enumerate(encrypted_subs):
        hub.subscribe(Subscription(sub_id, 1000 + sub_id, encrypted))
    env.run()

    def publish(pub_ids):
        for pub_id in pub_ids:
            hub.publish(
                Publication(
                    pub_id, payload=encrypted_pubs[pub_id], published_at=env.now
                )
            )
            # Bursts of eight coalesce into batches; the pauses stretch the
            # run across the whole migration (0.22 s of fixed overhead).
            if pub_id % 8 == 7:
                yield env.timeout(0.02)

    first_wave = PUBLICATIONS if between_waves is None else PUBLICATIONS // 2
    env.process(publish(range(first_wave)))
    if migrate:

        def migrate_m1():
            yield env.timeout(0.02)
            report = yield hub.runtime.migrate("M:1", hosts[3])
            assert report.destination_host == hosts[3].host_id

        env.process(migrate_m1())
    env.run()
    if between_waves is not None:
        between_waves(hub)
        env.process(publish(range(first_wave, PUBLICATIONS)))
        env.run()
    return (
        sorted(
            (n.pub_id, n.count, tuple(sorted(n.subscriber_ids)))
            for n in hub.notification_log
        ),
        batches_offloaded(hub),
    )


@pytest.fixture(scope="module")
def inline_log(cipher):
    log, offloaded = run_hub(cipher)
    assert offloaded == 0
    return log


@pytest.fixture(scope="module")
def inline_migrated_log(cipher):
    log, _ = run_hub(cipher, migrate=True)
    return log


def test_parallel_run_is_byte_identical(cipher, process_executor, inline_log):
    # An injected executor engages the offload path whatever match_workers says.
    log, offloaded = run_hub(cipher, executor=process_executor, workers=0)
    assert offloaded > 0
    assert log == inline_log


def test_parallel_run_with_live_migration_is_byte_identical(
    cipher, process_executor, inline_migrated_log
):
    before = process_executor.resync_count
    log, offloaded = run_hub(
        cipher, executor=process_executor, workers=2, migrate=True
    )
    assert offloaded > 0
    assert log == inline_migrated_log
    # The migrated M:1 rebuilt its handler → fresh channel → full resync
    # on its first post-migration batch (plus the other slices' firsts).
    assert process_executor.resync_count > before


def test_shared_env_knob_smoke(cipher, monkeypatch):
    """The REPRO_MATCH_WORKERS env default engages the executor path."""
    monkeypatch.setenv("REPRO_MATCH_WORKERS", "1")
    log, offloaded = run_hub(cipher, executor=None, workers=None)
    assert offloaded > 0
    baseline, _ = run_hub(cipher)
    assert log == baseline


# -- worker loss --------------------------------------------------------------


def test_worker_killed_between_waves_is_replaced(cipher, inline_log):
    executor = create_executor(2, chunk_rows=8)
    seen = {}

    def kill(hub):
        seen["offloaded"] = batches_offloaded(hub)
        seen["pid"] = kill_worker(executor, 0)

    try:
        log, offloaded = run_hub(cipher, executor=executor, between_waves=kill)
        assert log == inline_log
        # The second wave went through the workers again, the dead one's
        # share through its replacement.
        assert offloaded > seen["offloaded"] > 0
        assert executor._workers[0].process.pid != seen["pid"]
        assert executor._workers[0].busy_s > 0.0
    finally:
        executor.shutdown()


def test_worker_killed_under_a_batch_falls_back_inline(
    cipher, inline_log, monkeypatch
):
    executor = create_executor(2, chunk_rows=8)
    seen = {"armed": False}  # first wave: workers start and run undisturbed
    prepare_batch = MatcherHandler.prepare_batch

    def stop_worker_1(hub):
        os.kill(executor._workers[1].process.pid, signal.SIGSTOP)
        seen["armed"] = True

    def prepare_then_kill(handler, events, ctx):
        prepare_batch(handler, events, ctx)
        if seen["armed"] and events[0].kind == KIND_PUBLICATION:
            # Worker 1 is stopped, so the chunk it was just sent is still
            # open when the process dies: this batch is lost in flight.
            seen["armed"] = False
            seen["open"] = len(executor._workers[1].pending)
            seen["pid"] = kill_worker(executor, 1)

    monkeypatch.setattr(MatcherHandler, "prepare_batch", prepare_then_kill)
    try:
        log, _ = run_hub(cipher, executor=executor, between_waves=stop_worker_1)
        assert seen["open"] >= 1
        assert log == inline_log
        assert executor._workers[1].process.pid != seen["pid"]
        assert executor._workers[1].busy_s > 0.0
        assert (executor._inflight_batches, executor._queued_tasks) == (0, 0)
    finally:
        executor.shutdown()


# -- lifetimes ----------------------------------------------------------------


def test_hub_run_with_migration_leaves_nothing_after_shutdown(
    cipher, inline_migrated_log, created_segments
):
    executor = create_executor(2, chunk_rows=8)
    log, _ = run_hub(cipher, executor=executor, migrate=True)
    assert log == inline_migrated_log
    # One segment per M slice and one more for the migrated M:1.
    assert len(created_segments) >= 5
    executor.shutdown()
    assert_nothing_left(executor, created_segments)
