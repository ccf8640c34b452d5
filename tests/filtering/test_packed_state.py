"""Packed-state consistency of the incremental ASPE matching kernel.

`AspeLibrary` maintains its packed predicate matrix incrementally (append
on store, tombstone on remove, compaction when dead rows dominate).  These
property-style tests drive random interleavings of `store` / `remove` /
`import_state` / `match` and assert the decisions always equal those of a
freshly built library — guarding the incremental pack, the tombstone
sweep, the span index and the compaction remap.
"""

import random

import pytest

from repro.filtering import (
    AspeCipher,
    AspeKey,
    AspeLibrary,
    Op,
    Predicate,
    PredicateSet,
    match_encrypted,
)

from ..stores import on_mmap_store


@pytest.fixture
def cipher():
    key = AspeKey.generate(dimensions=4, rng=random.Random(42))
    return AspeCipher(key, rng=random.Random(17))


def random_filter(rng):
    predicates = []
    for _ in range(rng.randint(1, 3)):
        attribute = rng.randrange(4)
        op = rng.choice([Op.LT, Op.LE, Op.GT, Op.GE, Op.EQ])
        predicates.append(Predicate(attribute, op, rng.uniform(0.0, 1000.0)))
    return PredicateSet.of(*predicates)


def fresh_copy(library):
    clone = AspeLibrary(library.store_config)
    clone.import_state(library.export_state())
    return clone


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_interleaving_equals_fresh_library(store_config, cipher, seed):
    rng = random.Random(seed)
    library = AspeLibrary(store_config)
    pool = {i: cipher.encrypt_subscription(random_filter(rng)) for i in range(60)}
    stored = set()
    for step in range(400):
        action = rng.random()
        if action < 0.45 or not stored:
            sub_id = rng.randrange(60)
            library.store(sub_id, pool[sub_id])
            stored.add(sub_id)
        elif action < 0.75:
            sub_id = rng.choice(sorted(stored))
            library.remove(sub_id)
            stored.discard(sub_id)
        elif action < 0.85:
            library.import_state(library.export_state())
        else:
            publication = cipher.encrypt_publication(
                [rng.uniform(0.0, 1000.0) for _ in range(4)]
            )
            assert library.match(publication) == fresh_copy(library).match(publication)
    # Final sweep: decisions, order and counts all line up with a rebuild.
    assert library.subscription_count() == len(stored)
    publication = cipher.encrypt_publication([rng.uniform(0.0, 1000.0) for _ in range(4)])
    assert library.match(publication) == fresh_copy(library).match(publication)


def test_churn_compacts_instead_of_repacking(store_config, cipher):
    """Store/remove churn appends + occasionally compacts — never repacks."""
    rng = random.Random(9)
    library = AspeLibrary(store_config)
    filters = [cipher.encrypt_subscription(random_filter(rng)) for i in range(500)]
    for sub_id, encrypted in enumerate(filters):
        library.store(sub_id, encrypted)
    assert library.full_pack_count == 0
    for step in range(2000):
        sub_id = rng.randrange(500)
        if sub_id in library.export_state():
            library.remove(sub_id)
        else:
            library.store(sub_id, filters[sub_id])
    # Appends are proportional to rows *added*, never to rows stored.
    assert library.full_pack_count == 0
    assert library.compaction_count >= 1
    # Tombstones never exceed the live rows after maintenance.
    assert library._dead_rows <= max(library._rows - library._dead_rows, 64)
    publication = cipher.encrypt_publication([500.0, 500.0, 500.0, 500.0])
    assert library.match(publication) == fresh_copy(library).match(publication)


def test_overwrite_store_keeps_single_copy(store_config, cipher):
    library = AspeLibrary(store_config)
    wide = cipher.encrypt_subscription(
        PredicateSet.of(Predicate(0, Op.GE, 0.0), Predicate(0, Op.LE, 1000.0))
    )
    narrow = cipher.encrypt_subscription(
        PredicateSet.of(Predicate(0, Op.GE, 900.0), Predicate(0, Op.LE, 1000.0))
    )
    library.store(1, wide)
    library.store(1, narrow)  # overwrite tombstones the old rows
    assert library.subscription_count() == 1
    publication = cipher.encrypt_publication([10.0, 0.0, 0.0, 0.0])
    assert library.match(publication) == []
    publication = cipher.encrypt_publication([950.0, 0.0, 0.0, 0.0])
    assert library.match(publication) == [1]


def test_decisions_track_pairwise_matching_through_churn(store_config, cipher):
    rng = random.Random(21)
    library = AspeLibrary(store_config)
    stored = {}
    for step in range(300):
        if rng.random() < 0.6 or not stored:
            sub_id = rng.randrange(40)
            encrypted = cipher.encrypt_subscription(random_filter(rng))
            library.store(sub_id, encrypted)
            stored[sub_id] = encrypted
        else:
            sub_id = rng.choice(sorted(stored))
            library.remove(sub_id)
            del stored[sub_id]
        if step % 25 == 0:
            publication = cipher.encrypt_publication(
                [rng.uniform(0.0, 1000.0) for _ in range(4)]
            )
            expected = [
                sub_id
                for sub_id, encrypted in stored.items()
                if match_encrypted(publication, encrypted)
            ]
            assert library.match(publication) == expected


TestOnMmapStore = on_mmap_store(
    test_random_interleaving_equals_fresh_library,
    test_churn_compacts_instead_of_repacking,
    test_overwrite_store_keeps_single_copy,
    test_decisions_track_pairwise_matching_through_churn,
)
