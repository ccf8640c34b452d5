"""Packed-state consistency of the incremental ASPE matching kernel.

`AspeLibrary` maintains its packed predicate matrix incrementally: a
store appends rows, a bulk store appends one block, and a span index
built once is extended in place.  These property-style tests drive random
interleavings of `store` / `store_many` / `import_state` / `match` and
assert the decisions always equal those of a freshly built library, of
pairwise `match_encrypted` and of the plaintext `BruteForceLibrary` —
guarding the incremental pack, the bulk path and the span index.
"""

import random

import pytest

from repro.filtering import (
    AspeCipher,
    AspeKey,
    AspeLibrary,
    BruteForceLibrary,
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
    pool = [cipher.encrypt_subscription(random_filter(rng)) for _ in range(60)]
    next_id = 0
    for step in range(400):
        action = rng.random()
        if action < 0.45 or not next_id:
            library.store(next_id, rng.choice(pool))
            next_id += 1
        elif action < 0.6:
            batch = rng.randrange(1, 6)
            library.store_many(
                (sub_id, rng.choice(pool))
                for sub_id in range(next_id, next_id + batch)
            )
            next_id += batch
        elif action < 0.7:
            library.import_state(library.export_state())
        else:
            publication = cipher.encrypt_publication(
                [rng.uniform(0.0, 1000.0) for _ in range(4)]
            )
            assert library.match(publication) == fresh_copy(library).match(publication)
    # Final sweep: decisions, order and counts all line up with a rebuild.
    assert library.subscription_count() == next_id
    publication = cipher.encrypt_publication([rng.uniform(0.0, 1000.0) for _ in range(4)])
    assert library.match(publication) == fresh_copy(library).match(publication)


def test_decisions_track_pairwise_matching_through_churn(store_config, cipher):
    rng = random.Random(21)
    library = AspeLibrary(store_config)
    plain = BruteForceLibrary()
    stored = {}
    for step in range(300):
        plaintexts = {
            sub_id: random_filter(rng)
            for sub_id in range(len(stored), len(stored) + rng.choice((1, 1, 4)))
        }
        encrypted = {
            sub_id: cipher.encrypt_subscription(filter_)
            for sub_id, filter_ in plaintexts.items()
        }
        if len(encrypted) == 1:
            library.store(*next(iter(encrypted.items())))
        else:
            library.store_many(encrypted.items())
        for sub_id, filter_ in plaintexts.items():
            plain.store(sub_id, filter_)
        stored.update(encrypted)
        if step % 25 == 0:
            attributes = [rng.uniform(0.0, 1000.0) for _ in range(4)]
            publication = cipher.encrypt_publication(attributes)
            expected = [
                sub_id
                for sub_id, subscription in stored.items()
                if match_encrypted(publication, subscription)
            ]
            assert library.match(publication) == expected
            assert plain.match(attributes) == expected


TestOnMmapStore = on_mmap_store(
    test_random_interleaving_equals_fresh_library,
    test_decisions_track_pairwise_matching_through_churn,
)
