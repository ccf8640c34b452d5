"""Shared fixtures for parallel-matching tests.

An executor that dispatches forks real worker processes, so the one
these tests dispatch through is module-scoped and shared across the
tests of a module; tests that need their own (to kill a worker, to watch
a shutdown) build one with ``create_executor``.
"""

import os
import random
import signal
from multiprocessing import shared_memory

import _posixshmem

import numpy as np
import pytest

from repro.filtering import (
    AspeCipher,
    AspeKey,
    Op,
    Predicate,
    PredicateSet,
)
from repro.filtering.aspe import match_lists
from repro.parallel import (
    create_executor,
    encode_batch,
    match_span_range,
    plan_chunks,
)


@pytest.fixture(scope="module")
def cipher():
    key = AspeKey.generate(dimensions=4, rng=random.Random(42))
    return AspeCipher(key, rng=random.Random(17))


def random_filter(rng):
    predicates = []
    for _ in range(rng.randint(1, 3)):
        attribute = rng.randrange(4)
        op = rng.choice([Op.LT, Op.LE, Op.GT, Op.GE, Op.EQ])
        predicates.append(Predicate(attribute, op, rng.uniform(0.0, 100.0)))
    return PredicateSet.of(*predicates)


def encrypted_publications(cipher, rng, count):
    return [
        cipher.encrypt_publication([rng.uniform(0.0, 100.0) for _ in range(4)])
        for _ in range(count)
    ]


def chunked_match(library, payloads, workers=3, chunk_rows=4):
    """The pure pipeline: plan the chunks, run the kernel on each over a
    private copy of the rows, merge — no executor, no process."""
    view = library.packed_view()
    if view.span_count == 0:
        return [list(view.ids) for _ in payloads]
    matrix = np.empty((view.rows, view.width))
    strict = np.empty(view.rows, dtype=np.bool_)
    tol_signed = np.empty(view.rows)
    view.copy_rows(0, view.rows, matrix=matrix, strict=strict, tol_signed=tol_signed)
    batch = encode_batch(payloads)
    blocks = [
        match_span_range(
            matrix, strict, tol_signed, view.starts, view.stops, lo, hi, batch
        )
        for lo, hi in plan_chunks(view.starts, view.stops, workers, chunk_rows)
    ]
    return match_lists(
        np.concatenate(blocks), view.ids, None if view.dense else view.positions
    )


# The lone "shm" id keeps the names these tests are tracked under
# (``test_x[shm]``) now that there is no second backend to tell apart.
@pytest.fixture(scope="module", params=["shm"])
def process_executor():
    """One two-worker executor shared per module.  Eight-row chunks make
    the small test matrices split across both workers."""
    executor = create_executor(2, chunk_rows=8)
    yield executor
    executor.shutdown()


def kill_worker(executor, index):
    """SIGKILL one worker process and wait until it is gone; its pid."""
    process = executor._workers[index].process
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=10)
    assert not process.is_alive()
    return process.pid


@pytest.fixture
def created_segments(monkeypatch):
    """Names of the shared-memory segments created while the test runs."""
    names = []
    real = shared_memory.SharedMemory

    def recording(*args, **kwargs):
        segment = real(*args, **kwargs)
        if kwargs.get("create"):
            names.append(segment.name)
        return segment

    monkeypatch.setattr(shared_memory, "SharedMemory", recording)
    return names


def segment_exists(name):
    """Whether a segment of that name is still linked.  Asked of the OS:
    attaching through ``SharedMemory`` would register the name with this
    process's resource tracker."""
    try:
        fd = _posixshmem.shm_open("/" + name, os.O_RDONLY, mode=0o600)
    except FileNotFoundError:
        return False
    os.close(fd)
    return True


def assert_nothing_left(executor, segment_names):
    """After ``shutdown()``: no worker alive, no segment still linked."""
    assert segment_names
    assert executor._workers.count(None) == 0
    for worker in executor._workers:
        assert not worker.process.is_alive()
    assert [name for name in segment_names if segment_exists(name)] == []
