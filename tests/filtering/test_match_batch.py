"""Batch/single equivalence of `match_batch` across all filtering libraries.

The contract (see `FilteringLibrary.match_batch`): batch results are
defined to equal `[library.match(p) for p in publications]` — same ids,
same per-publication order.  ASPE overrides the default with a
matrix-matrix kernel, so its equivalence is the interesting case; the
plaintext libraries exercise the shared default.
"""

import random

import pytest

from repro.filtering import (
    AspeCipher,
    AspeKey,
    AspeLibrary,
    BruteForceLibrary,
    ExactBackend,
    Op,
    Predicate,
    PredicateSet,
)

from ..stores import on_mmap_store


def band(attribute, low, high):
    return PredicateSet.of(
        Predicate(attribute, Op.GE, low), Predicate(attribute, Op.LE, high)
    )


def random_filter(rng):
    predicates = []
    for _ in range(rng.randint(1, 3)):
        attribute = rng.randrange(4)
        op = rng.choice([Op.LT, Op.LE, Op.GT, Op.GE, Op.EQ])
        predicates.append(Predicate(attribute, op, rng.uniform(0.0, 1000.0)))
    return PredicateSet.of(*predicates)


def make_plain(library_cls, filters):
    library = library_cls()
    for sub_id, predicate_set in enumerate(filters):
        library.store(sub_id, predicate_set)
    return library


@pytest.fixture
def cipher():
    key = AspeKey.generate(dimensions=4, rng=random.Random(3))
    return AspeCipher(key, rng=random.Random(4))


@pytest.mark.parametrize("library_cls", [BruteForceLibrary])
def test_plaintext_batch_equals_single(library_cls):
    rng = random.Random(11)
    filters = [random_filter(rng) for _ in range(150)]
    library = make_plain(library_cls, filters)
    publications = [[rng.uniform(0.0, 1000.0) for _ in range(4)] for _ in range(25)]
    assert library.match_batch(publications) == [
        library.match(publication) for publication in publications
    ]


def test_aspe_batch_equals_single(store_config, cipher):
    rng = random.Random(12)
    library = AspeLibrary(store_config)
    for sub_id in range(150):
        library.store(sub_id, cipher.encrypt_subscription(random_filter(rng)))
    publications = [
        cipher.encrypt_publication([rng.uniform(0.0, 1000.0) for _ in range(4)])
        for _ in range(25)
    ]
    assert library.match_batch(publications) == [
        library.match(publication) for publication in publications
    ]


def test_aspe_batch_equals_single_after_churn(store_config, cipher):
    rng = random.Random(13)
    library = AspeLibrary(store_config)
    publications = [
        cipher.encrypt_publication([rng.uniform(0.0, 1000.0) for _ in range(4)])
        for _ in range(10)
    ]
    next_id = 0
    for wave in range(12):  # single and bulk stores between match passes
        count = rng.choice((1, 7, 30))
        items = [
            (sub_id, cipher.encrypt_subscription(random_filter(rng)))
            for sub_id in range(next_id, next_id + count)
        ]
        next_id += count
        if wave % 2:
            library.store_many(items)
        else:
            for item in items:
                library.store(*item)
        assert library.match_batch(publications) == [
            library.match(publication) for publication in publications
        ]


@pytest.mark.parametrize("library_cls", [BruteForceLibrary])
def test_empty_library_plaintext(library_cls):
    library = library_cls()
    publications = [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]]
    assert library.match_batch(publications) == [[], []]
    assert library.match_batch([]) == []


def test_empty_library_aspe(store_config, cipher):
    library = AspeLibrary(store_config)
    publications = [cipher.encrypt_publication([0.0] * 4) for _ in range(2)]
    assert library.match_batch(publications) == [[], []]
    assert library.match_batch([]) == []


def test_single_subscription_edge(store_config, cipher):
    plain = band(0, 10.0, 20.0)
    inside, outside = [15.0, 0.0, 0.0, 0.0], [25.0, 0.0, 0.0, 0.0]
    assert make_plain(BruteForceLibrary, [plain]).match_batch(
        [inside, outside]
    ) == [[0], []]
    library = AspeLibrary(store_config)
    library.store(0, cipher.encrypt_subscription(plain))
    encrypted_pubs = [cipher.encrypt_publication(p) for p in (inside, outside)]
    assert library.match_batch(encrypted_pubs) == [[0], []]


def test_aspe_batch_type_check(store_config, cipher):
    library = AspeLibrary(store_config)
    library.store(0, cipher.encrypt_subscription(band(0, 0.0, 1.0)))
    with pytest.raises(TypeError):
        library.match_batch([[1.0, 2.0, 3.0, 4.0]])


def test_exact_backend_batch_matches_loop(store_config, cipher):
    rng = random.Random(14)
    library = AspeLibrary(store_config)
    for sub_id in range(50):
        library.store(sub_id, cipher.encrypt_subscription(random_filter(rng)))
    backend = ExactBackend(library)
    pub_ids = list(range(8))
    payloads = [
        cipher.encrypt_publication([rng.uniform(0.0, 1000.0) for _ in range(4)])
        for _ in pub_ids
    ]
    batched = backend.match_batch(pub_ids, payloads)
    singles = [backend.match(i, p) for i, p in zip(pub_ids, payloads)]
    assert [(r.count, r.ids) for r in batched] == [(r.count, r.ids) for r in singles]


TestOnMmapStore = on_mmap_store(
    test_aspe_batch_equals_single,
    test_aspe_batch_equals_single_after_churn,
    test_empty_library_aspe,
    test_single_subscription_edge,
    test_aspe_batch_type_check,
    test_exact_backend_batch_matches_loop,
)
