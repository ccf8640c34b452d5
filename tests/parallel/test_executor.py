"""Unit and equivalence tests for the parallel matching executor.

The contract under test: for any library state and publication batch,
``channel.submit(library, payloads).result()`` equals
``library.match_batch(payloads)`` — same ids, same order — across epoch
bumps (store/remove), appended-row deltas and compaction-forced resyncs,
and a worker process that dies costs a batch its offload, never the run.
"""

import os
import random
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.engine import StreamEvent
from repro.filtering import AspeLibrary, CostModel, ExactBackend, StoreConfig
from repro.filtering.aspe import EncryptedSubscription
from repro.parallel import (
    MatchExecutor,
    MatchWorkerLost,
    create_executor,
    plan_chunks,
    shared_executor,
)
from repro.pubsub import KIND_PUBLICATION, MatcherHandler, Publication
from repro.telemetry import Telemetry

from .conftest import (
    assert_nothing_left,
    chunked_match,
    encrypted_publications,
    kill_worker,
    random_filter,
    segment_exists,
)

#: A subscription with no predicate: matches every publication and owns
#: no rows, so span ``j`` stops being ``ids[j]`` once one is stored.
VACUOUS = EncryptedSubscription(predicates=())


def spans(rows_per_span, count):
    starts = np.arange(count) * rows_per_span
    return starts, starts + rows_per_span


def stored_library(cipher, rng, count):
    library = AspeLibrary()
    for sub_id in range(count):
        library.store(sub_id, cipher.encrypt_subscription(random_filter(rng)))
    return library


# -- chunk planning -----------------------------------------------------------


def test_plan_chunks_single_chunk_when_matrix_is_small():
    starts, stops = spans(3, 10)
    assert plan_chunks(starts, stops, workers=4, chunk_rows=4096) == [(0, 10)]


def test_plan_chunks_covers_all_spans_contiguously():
    starts, stops = spans(5, 37)
    chunks = plan_chunks(starts, stops, workers=4, chunk_rows=10)
    assert chunks[0][0] == 0 and chunks[-1][1] == 37
    for (_, hi), (lo, _) in zip(chunks, chunks[1:]):
        assert hi == lo


def test_plan_chunks_targets_at_most_about_workers_chunks():
    starts, stops = spans(2, 1000)
    chunks = plan_chunks(starts, stops, workers=4, chunk_rows=1)
    assert len(chunks) <= 5  # ceil rounding may add one
    # Every chunk but the last reaches the per-worker row target.
    target = 2000 // 4
    for lo, hi in chunks[:-1]:
        assert int(stops[hi - 1]) - int(starts[lo]) >= target


def test_plan_chunks_respects_chunk_rows_floor():
    starts, stops = spans(2, 100)
    chunks = plan_chunks(starts, stops, workers=100, chunk_rows=50)
    for lo, hi in chunks[:-1]:
        assert int(stops[hi - 1]) - int(starts[lo]) >= 50


# -- construction and validation ----------------------------------------------


def test_create_executor_rejects_bad_knobs(monkeypatch):
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            create_executor(workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            shared_executor(workers)
    with pytest.raises(ValueError, match="chunk rows"):
        create_executor(2, chunk_rows=0)
    monkeypatch.setattr(os, "name", "nt")
    with pytest.raises(ValueError, match="POSIX shared memory"):
        create_executor(2)


def test_process_backends_require_a_worker():
    # The class refuses by itself, not only through the factories.
    with pytest.raises(ValueError, match="workers must be >= 1"):
        MatchExecutor(0)


def test_shared_executor_is_memoized_per_knobs():
    # Never dispatched through, so no process is started for these.
    a = shared_executor(3)
    b = shared_executor(3)
    c = shared_executor(5)
    assert a is b
    assert a is not c
    assert (a.workers, c.workers) == (3, 5)


# -- submit fast paths (no worker is started for any of these) ----------------


def test_submit_empty_batch_and_empty_library(cipher):
    executor = create_executor(1)
    channel = executor.open_channel("T")
    library = AspeLibrary()
    pubs = encrypted_publications(cipher, random.Random(1), 3)
    assert channel.submit(library, []).result() == []
    assert channel.submit(library, pubs).result() == [[], [], []]
    # Only vacuous subscriptions: every publication matches all of them.
    library.store(7, VACUOUS)
    library.store(3, VACUOUS)
    assert channel.submit(library, pubs).result() == library.match_batch(pubs)
    assert library.match_batch(pubs) == [[7, 3]] * 3
    with pytest.raises(TypeError, match="EncryptedPublication"):
        channel.submit(library, ["not a ciphertext"])
    assert executor._workers == [None]
    executor.shutdown()


def test_submit_on_closed_channel_raises(cipher):
    executor = create_executor(1)
    channel = executor.open_channel("T")
    channel.close()
    with pytest.raises(RuntimeError, match="closed"):
        channel.submit(AspeLibrary(), [])
    executor.shutdown()
    with pytest.raises(RuntimeError, match="shut down"):
        executor.open_channel("T")


def test_channel_names_never_alias():
    executor = create_executor(1)
    first = executor.open_channel("M:0")
    second = executor.open_channel("M:0")
    assert first.key != second.key
    executor.shutdown()


# -- equivalence through the workers ------------------------------------------


def churn_script(cipher, match, library, rng, checks=6):
    """Drive store/remove churn and compare ``match(library, pubs)`` with
    the serial answer each step."""
    pool = {i: cipher.encrypt_subscription(random_filter(rng)) for i in range(40)}
    pool[0] = pool[1] = VACUOUS
    library.store(0, pool[0])
    stored = {0}
    for step in range(checks):
        for _ in range(10):
            sub_id = rng.randrange(40)
            if sub_id in stored and rng.random() < 0.6:
                library.remove(sub_id)
                stored.discard(sub_id)
            else:
                library.store(sub_id, pool[sub_id])
                stored.add(sub_id)
        pubs = encrypted_publications(cipher, rng, 5)
        assert match(library, pubs) == library.match_batch(pubs)
    # Removal-heavy tail forces tombstone-dominated rows → compaction.
    for sub_id in sorted(stored)[: len(stored) - 2]:
        library.remove(sub_id)
    pubs = encrypted_publications(cipher, rng, 4)
    assert match(library, pubs) == library.match_batch(pubs)


def through(channel):
    return lambda library, pubs: channel.submit(library, pubs).result()


def test_inline_channel_matches_serial_across_churn(cipher):
    """The chunk → kernel → merge functions alone, no process."""
    churn_script(
        cipher,
        lambda library, pubs: chunked_match(library, pubs, workers=2, chunk_rows=8),
        AspeLibrary(),
        random.Random(5),
    )


def test_process_channel_matches_serial_across_churn(cipher, process_executor):
    channel = process_executor.open_channel("T")
    churn_script(cipher, through(channel), AspeLibrary(), random.Random(9))
    # Churn bumps epochs every round: the matrix was re-shipped or
    # delta-shipped rather than reused stale.
    assert process_executor.resync_count >= 1
    assert process_executor.delta_count >= 1
    channel.close()


def test_migration_import_triggers_full_resync(cipher, process_executor):
    rng = random.Random(11)
    library = stored_library(cipher, rng, 12)
    channel = process_executor.open_channel("T")
    pubs = encrypted_publications(cipher, rng, 4)
    assert channel.submit(library, pubs).result() == library.match_batch(pubs)
    before = process_executor.resync_count
    # A migrated slice rebuilds its library from exported state: new
    # generation, so the worker-side matrix must be fully re-shipped.
    clone = AspeLibrary()
    clone.import_state(library.export_state())
    assert channel.submit(clone, pubs).result() == library.match_batch(pubs)
    assert process_executor.resync_count > before
    channel.close()


def test_shm_delta_reads_only_the_chunks_that_hold_it(
    cipher, process_executor, tmp_path
):
    rng = random.Random(17)
    chunk_bytes = 16 * (7 + 2) * 8
    library = AspeLibrary(
        store_config=StoreConfig(
            backend="mmap",
            chunk_rows=16,
            memory_budget_mb=2 * chunk_bytes / 2**20,
            spill_dir=str(tmp_path),
        )
    )
    sub_id = 0
    while library.store_stats()["chunks"] < 10:
        library.store(sub_id, cipher.encrypt_subscription(random_filter(rng)))
        sub_id += 1
    channel = process_executor.open_channel("T")
    pubs = encrypted_publications(cipher, rng, 4)
    assert channel.submit(library, pubs).result() == library.match_batch(pubs)
    resyncs, deltas = process_executor.resync_count, process_executor.delta_count
    faults = library.store_stats()["faults"]
    library.store(sub_id, cipher.encrypt_subscription(random_filter(rng)))
    future = channel.submit(library, pubs)
    # The delta copied the appended rows out of the chunk that holds them;
    # the eight released chunks below it stayed released.
    assert library.store_stats()["faults"] - faults <= 1
    assert process_executor.resync_count == resyncs
    assert process_executor.delta_count == deltas + 1
    assert future.result() == library.match_batch(pubs)
    channel.close()


def test_cancel_settles_queue_accounting(cipher, process_executor):
    rng = random.Random(13)
    library = stored_library(cipher, rng, 8)
    channel = process_executor.open_channel("T")
    future = channel.submit(library, encrypted_publications(cipher, rng, 3))
    assert process_executor._inflight_batches == 1
    assert process_executor._queued_tasks >= 1
    future.cancel()
    assert future.result() == []
    assert process_executor._inflight_batches == 0
    assert process_executor._queued_tasks == 0
    # The channel remains usable after a cancelled batch.
    pubs = encrypted_publications(cipher, rng, 2)
    assert channel.submit(library, pubs).result() == library.match_batch(pubs)
    channel.close()


# -- the handler's submit/collect rendezvous ----------------------------------


def test_rendezvous_post_take_cancel(cipher):
    """``prepare_batch`` parks a batch's future under its head event,
    ``_collect`` claims it exactly once, ``detach`` cancels the rest."""
    rng = random.Random(41)
    library = stored_library(cipher, rng, 8)
    executor = create_executor(1)
    handler = MatcherHandler(
        0, ExactBackend(library), CostModel(), encrypted=False, executor=executor
    )
    pubs = encrypted_publications(cipher, rng, 3)
    head, other, third = (
        StreamEvent(KIND_PUBLICATION, Publication(i, payload=pub), "test", i, 100, 0.0)
        for i, pub in enumerate(pubs)
    )
    try:
        handler.prepare_batch([head], None)
        handler.prepare_batch([other, third], None)
        assert executor._inflight_batches == 2
        assert handler._collect(third) is None  # not a batch head
        first = handler._collect(head)
        assert [result.ids for result in first] == library.match_batch(pubs[:1])
        assert handler._collect(head) is None
        assert handler.batches_offloaded == 1
        handler.detach()
        assert handler._collect(other) is None
        assert (executor._inflight_batches, executor._queued_tasks) == (0, 0)
        assert handler.batches_offloaded == 1
    finally:
        executor.shutdown()


def test_adopt_from_releases_what_the_adopter_had_in_flight(cipher):
    """A same-host reshard hands the handler another backend by reference:
    the channel it had open for the old one is closed and the futures it
    had parked are cancelled, not overwritten and leaked."""
    rng = random.Random(43)
    executor = create_executor(1)
    adopter, origin = (
        MatcherHandler(
            0,
            ExactBackend(stored_library(cipher, rng, 8)),
            CostModel(),
            encrypted=False,
            executor=executor,
        )
        for _ in range(2)
    )
    head, parked = (
        StreamEvent(KIND_PUBLICATION, Publication(i, payload=pub), "test", i, 100, 0.0)
        for i, pub in enumerate(encrypted_publications(cipher, rng, 2))
    )
    try:
        # (Collected once first, so the worker has mapped the segment
        # before the close below unlinks it.)
        adopter.prepare_batch([head], None)
        assert adopter._collect(head) is not None
        adopter.prepare_batch([parked], None)
        channel = adopter._channel
        assert not channel.closed and executor._inflight_batches == 1
        origin.publications_matched_ahead = 5
        adopter.adopt_from(origin)
        assert channel.closed
        assert (executor._inflight_batches, executor._queued_tasks) == (0, 0)
        assert adopter._channel is None and not adopter._pending
        assert adopter.backend is origin.backend
        assert adopter.publications_matched_ahead == 5
        # The adopted library is offloaded through a channel of its own.
        adopter.prepare_batch([parked], None)
        assert adopter._channel is not channel
        assert [result.ids for result in adopter._collect(parked)] == (
            origin.backend.library.match_batch([parked.payload.payload])
        )
    finally:
        adopter.detach()
        executor.shutdown()


# -- worker loss --------------------------------------------------------------


def test_dead_worker_is_replaced_and_synced_on_the_next_dispatch(cipher):
    rng = random.Random(19)
    library = stored_library(cipher, rng, 30)
    pubs = encrypted_publications(cipher, rng, 4)
    executor = create_executor(2, chunk_rows=8)
    try:
        channel = executor.open_channel("T")
        assert channel.submit(library, pubs).result() == library.match_batch(pubs)
        assert set(channel._synced) == {0, 1}
        resyncs = executor.resync_count
        dead_pid = kill_worker(executor, 0)
        # Same library state: the survivor is still in sync, only the
        # newcomer is sent the channel's metadata again, and the segment
        # is not rewritten.
        assert channel.submit(library, pubs).result() == library.match_batch(pubs)
        assert executor._workers[0].process.pid != dead_pid
        assert executor._workers[0].process.is_alive()
        assert executor.resync_count == resyncs
        assert (executor._inflight_batches, executor._queued_tasks) == (0, 0)
    finally:
        executor.shutdown()


def test_worker_lost_in_flight_fails_the_batch_with_the_dedicated_error(cipher):
    rng = random.Random(23)
    library = stored_library(cipher, rng, 30)
    pubs = encrypted_publications(cipher, rng, 4)
    executor = create_executor(2, chunk_rows=8)
    try:
        channel = executor.open_channel("T")
        assert channel.submit(library, pubs).result() == library.match_batch(pubs)
        # A stopped worker cannot answer, so its chunk is still open when
        # the process is killed.
        os.kill(executor._workers[1].process.pid, signal.SIGSTOP)
        future = channel.submit(library, pubs)
        kill_worker(executor, 1)
        with pytest.raises(MatchWorkerLost):
            future.result()
        assert (executor._inflight_batches, executor._queued_tasks) == (0, 0)
        assert channel.submit(library, pubs).result() == library.match_batch(pubs)
    finally:
        executor.shutdown()


# -- lifetimes ----------------------------------------------------------------


def test_shutdown_leaves_no_process_and_no_segment(cipher, created_segments):
    executor = create_executor(2, chunk_rows=8)
    # Churn outgrows and compacts: segments are replaced along the way,
    # and a second channel is still open when the executor shuts down.
    closed = executor.open_channel("A")
    churn_script(cipher, through(closed), AspeLibrary(), random.Random(31))
    closed.close()
    kept_open = executor.open_channel("B")
    churn_script(cipher, through(kept_open), AspeLibrary(), random.Random(37))
    assert len(created_segments) > 2
    executor.shutdown()
    assert_nothing_left(executor, created_segments)


_DIES_OUTRIGHT = """
import os, random
from repro.filtering import AspeCipher, AspeKey, AspeLibrary, Op, Predicate, PredicateSet
from repro.parallel import create_executor

cipher = AspeCipher(AspeKey.generate(4, rng=random.Random(1)), rng=random.Random(2))
library = AspeLibrary()
for sub_id in range(40):
    library.store(sub_id, cipher.encrypt_subscription(
        PredicateSet.of(Predicate(sub_id % 4, Op.GT, float(sub_id)))))
pubs = [cipher.encrypt_publication([50.0] * 4)]
channel = create_executor(2, chunk_rows=8).open_channel("T")
assert channel.submit(library, pubs).result() == library.match_batch(pubs)
print(channel._shm.name, flush=True)
os._exit(1)  # no shutdown, no atexit: as good as SIGKILL
"""


def test_parent_dying_outright_takes_workers_and_segments_with_it():
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _DIES_OUTRIGHT],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 1, done.stderr
    name = done.stdout.strip()
    # The resource tracker removes the segment once the last holder of its
    # pipe is gone, and the workers hold it: the name disappearing means
    # both workers noticed the parent's death and exited.
    deadline = time.monotonic() + 20
    while segment_exists(name) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not segment_exists(name)


# -- telemetry ----------------------------------------------------------------


def test_busy_fraction_is_measured_from_worker_start(cipher):
    rng = random.Random(29)
    library = stored_library(cipher, rng, 30)
    pubs = encrypted_publications(cipher, rng, 4)
    telemetry = Telemetry()
    executor = create_executor(1)
    executor.bind_telemetry(telemetry)
    try:
        # The hub sits idle before its first batch: time in which no
        # worker exists must not dilute the worker's busy fraction.
        time.sleep(0.2)
        dispatched = time.monotonic()
        channel = executor.open_channel("T")
        channel.submit(library, pubs).result()
        first = executor._workers[0]
        assert first.started_at >= dispatched
        gauge = telemetry.match_worker_busy_fraction.labels(worker="0")
        assert gauge.value >= first.busy_s / (time.monotonic() - dispatched) > 0.0
        # A replacement is a new process with its own clock and total.
        kill_worker(executor, 0)
        channel.submit(library, pubs).result()
        replacement = executor._workers[0]
        assert replacement.started_at > first.started_at
        assert replacement.busy_s > 0.0
    finally:
        executor.shutdown()
