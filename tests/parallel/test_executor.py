"""Unit and equivalence tests for the parallel matching executors.

The contract under test: for any library state and publication batch,
``channel.submit(library, payloads).result()`` equals
``library.match_batch(payloads)`` — same ids, same order — on every
backend, across epoch bumps (store/remove), appended-row deltas and
compaction-forced resyncs.
"""

import random

import numpy as np
import pytest

from repro.filtering import AspeLibrary, StoreConfig
from repro.parallel import (
    BACKENDS,
    CompletionRendezvous,
    InlineMatchExecutor,
    ProcessPoolMatchExecutor,
    SharedMemoryMatchExecutor,
    available_backends,
    create_executor,
    plan_chunks,
    resolve_backend,
    shared_executor,
)

from .conftest import encrypted_publications, random_filter


def spans(rows_per_span, count):
    starts = np.arange(count) * rows_per_span
    return starts, starts + rows_per_span


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


def test_create_executor_rejects_bad_knobs():
    with pytest.raises(ValueError, match="workers"):
        create_executor(-1)
    with pytest.raises(ValueError, match="chunk rows"):
        create_executor(2, chunk_rows=0)
    with pytest.raises(ValueError, match="unknown match backend"):
        resolve_backend("bogus")


def test_zero_workers_resolves_to_inline():
    executor = create_executor(0, "auto")
    assert isinstance(executor, InlineMatchExecutor)
    executor.shutdown()


def test_process_backends_require_a_worker():
    with pytest.raises(ValueError):
        ProcessPoolMatchExecutor(0)
    with pytest.raises(ValueError):
        SharedMemoryMatchExecutor(0)


def test_backend_names_are_consistent():
    assert set(available_backends()) <= set(BACKENDS)
    assert resolve_backend("auto") in available_backends()


def test_shared_executor_is_memoized_per_knobs():
    a = shared_executor(0, "inline", 64)
    b = shared_executor(0, "inline", 64)
    c = shared_executor(0, "inline", 128)
    assert a is b
    assert a is not c


# -- submit fast paths --------------------------------------------------------


def test_submit_empty_batch_and_empty_library(cipher):
    executor = InlineMatchExecutor()
    channel = executor.open_channel("T")
    library = AspeLibrary()
    pubs = encrypted_publications(cipher, random.Random(1), 3)
    assert channel.submit(library, []).result() == []
    assert channel.submit(library, pubs).result() == [[], [], []]
    executor.shutdown()


def test_submit_on_closed_channel_raises(cipher):
    executor = InlineMatchExecutor()
    channel = executor.open_channel("T")
    channel.close()
    with pytest.raises(RuntimeError, match="closed"):
        channel.submit(AspeLibrary(), [])
    executor.shutdown()


def test_channel_names_never_alias():
    executor = InlineMatchExecutor()
    first = executor.open_channel("M:0")
    second = executor.open_channel("M:0")
    assert first.key != second.key
    executor.shutdown()


# -- inline equivalence -------------------------------------------------------


def churn_script(cipher, channel, library, rng, checks=6):
    """Drive store/remove churn and compare parallel vs serial each step."""
    pool = {i: cipher.encrypt_subscription(random_filter(rng)) for i in range(40)}
    stored = set()
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
        assert channel.submit(library, pubs).result() == library.match_batch(pubs)
    # Removal-heavy tail forces tombstone-dominated rows → compaction.
    for sub_id in sorted(stored)[: len(stored) - 2]:
        library.remove(sub_id)
    pubs = encrypted_publications(cipher, rng, 4)
    assert channel.submit(library, pubs).result() == library.match_batch(pubs)


def test_inline_channel_matches_serial_across_churn(cipher):
    executor = InlineMatchExecutor(workers=2, chunk_rows=8)
    channel = executor.open_channel("T")
    churn_script(cipher, channel, AspeLibrary(), random.Random(5))
    executor.shutdown()


# -- process-backed equivalence (pool + shm) ----------------------------------


def test_process_channel_matches_serial_across_churn(cipher, process_executor):
    channel = process_executor.open_channel("T")
    library = AspeLibrary()
    churn_script(cipher, channel, library, random.Random(9))
    # Churn bumps epochs every round: the matrix was re-shipped (or
    # delta-shipped) rather than reused stale.
    assert process_executor.resync_count >= 1
    if process_executor.backend_name == "shm":
        assert process_executor.delta_count >= 1
    channel.close()


def test_migration_import_triggers_full_resync(cipher, process_executor):
    rng = random.Random(11)
    library = AspeLibrary()
    for sub_id in range(12):
        library.store(sub_id, cipher.encrypt_subscription(random_filter(rng)))
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
    if process_executor.backend_name != "shm":
        pytest.skip("dirty-row deltas are the shm backend's")
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
    library = AspeLibrary()
    for sub_id in range(8):
        library.store(sub_id, cipher.encrypt_subscription(random_filter(rng)))
    channel = process_executor.open_channel("T")
    future = channel.submit(library, encrypted_publications(cipher, rng, 3))
    future.cancel()
    assert future.result() == []
    assert process_executor._inflight_batches == 0
    assert process_executor._queued_tasks == 0
    # The channel remains usable after a cancelled batch.
    pubs = encrypted_publications(cipher, rng, 2)
    assert channel.submit(library, pubs).result() == library.match_batch(pubs)
    channel.close()


# -- completion rendezvous ----------------------------------------------------


class _Event:
    pass


def test_rendezvous_post_take_cancel():
    rendezvous = CompletionRendezvous()
    executor = InlineMatchExecutor()
    channel = executor.open_channel("T")
    head, other = _Event(), _Event()
    future = channel.submit(AspeLibrary(), [])
    rendezvous.post(head, future)
    assert len(rendezvous) == 1
    assert rendezvous.take(other) is None
    assert rendezvous.take(head) is future
    assert rendezvous.take(head) is None

    rendezvous.post(head, channel.submit(AspeLibrary(), []))
    assert rendezvous.cancel_all() == 1
    assert len(rendezvous) == 0
    executor.shutdown()
