"""Pickling contract of `AspeLibrary`: no scratch state in the blob.

Packed snapshots shipped to matching workers and migration state copies
both serialize the library, so `__getstate__` must exclude everything
recomputable — workspace buffers, the span index, the tolerance columns,
the chunk layout — and ship the rows in use as trimmed flat arrays.  These
tests pin that contract: matching activity must not grow the pickle, and a
restored library must decide identically.
"""

import pickle
import random

import pytest

from repro.filtering import (
    AspeCipher,
    AspeKey,
    AspeLibrary,
    Op,
    Predicate,
    PredicateSet,
)


@pytest.fixture
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


def build_library(cipher, count=60, seed=3):
    rng = random.Random(seed)
    library = AspeLibrary()
    for sub_id in range(count):
        library.store(sub_id, cipher.encrypt_subscription(random_filter(rng)))
    return library, rng


def test_matching_does_not_grow_the_pickle(cipher):
    library, rng = build_library(cipher)
    before = len(pickle.dumps(library, protocol=pickle.HIGHEST_PROTOCOL))
    # A large batch allocates B x rows workspace buffers — scratch that a
    # naive pickle would serialize at many times the matrix size.
    batch = [
        cipher.encrypt_publication([rng.uniform(0.0, 100.0) for _ in range(4)])
        for _ in range(64)
    ]
    library.match_batch(batch)
    assert library._ws, "expected match_batch to populate workspace buffers"
    after = len(pickle.dumps(library, protocol=pickle.HIGHEST_PROTOCOL))
    assert after == before


def test_getstate_drops_scratch_and_trims_buffers(cipher):
    library, rng = build_library(cipher)
    library.match_batch(
        [cipher.encrypt_publication([1.0, 2.0, 3.0, 4.0])]
    )
    library.match(cipher.encrypt_publication([4.0, 3.0, 2.0, 1.0]))
    state = library.__getstate__()
    assert state["_ws"] == {}
    assert state["_index"] is None
    assert "_chunks" not in state
    # The growing chunk's tail is trimmed to the rows actually in use, and
    # the tolerance columns stay behind.
    matrix, strict, alive = state["_packed"]
    assert matrix.shape[0] == strict.shape[0] == alive.shape[0] == library._rows


def test_roundtrip_decides_identically(cipher):
    library, rng = build_library(cipher)
    # Churn so tombstones (and possibly a compaction) are in the state.
    for sub_id in range(0, 30, 2):
        library.remove(sub_id)
    restored = pickle.loads(pickle.dumps(library, protocol=pickle.HIGHEST_PROTOCOL))
    batch = [
        cipher.encrypt_publication([rng.uniform(0.0, 100.0) for _ in range(4)])
        for _ in range(32)
    ]
    assert restored.match_batch(batch) == library.match_batch(batch)
    for publication in batch[:8]:
        assert restored.match(publication) == library.match(publication)
    assert restored.subscription_count() == library.subscription_count()


def test_restored_library_keeps_serving_churn(cipher):
    library, rng = build_library(cipher, count=20)
    restored = pickle.loads(pickle.dumps(library))
    # The restored copy accepts new stores/removes and stays consistent
    # with the original receiving the same mutations.
    extra = cipher.encrypt_subscription(random_filter(rng))
    for target in (library, restored):
        target.store(100, extra)
        target.remove(3)
    batch = [
        cipher.encrypt_publication([rng.uniform(0.0, 100.0) for _ in range(4)])
        for _ in range(8)
    ]
    assert restored.match_batch(batch) == library.match_batch(batch)
