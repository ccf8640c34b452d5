"""Correctness and security-property tests for ASPE encrypted filtering."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filtering import (
    AspeCipher,
    AspeKey,
    AspeLibrary,
    Op,
    Predicate,
    PredicateSet,
    match_encrypted,
)

from .. import stores


@pytest.fixture
def cipher():
    key = AspeKey.generate(dimensions=4, rng=random.Random(42))
    return AspeCipher(key, rng=random.Random(17))


def band(attribute, low, high):
    return PredicateSet.of(
        Predicate(attribute, Op.GE, low), Predicate(attribute, Op.LE, high)
    )


def test_key_generation_shapes():
    key = AspeKey.generate(dimensions=4, rng=random.Random(1))
    assert key.matrix.shape == (7, 7)
    assert key.inverse.shape == (7, 7)
    assert np.allclose(key.matrix @ key.inverse, np.eye(7), atol=1e-9)
    assert key.cipher_dimensions == 7


def test_key_invalid_dimensions():
    with pytest.raises(ValueError):
        AspeKey.generate(dimensions=0)


def test_encrypted_match_agrees_with_plaintext_basic(cipher):
    sub = band(0, 10.0, 20.0)
    enc_sub = cipher.encrypt_subscription(sub)
    inside = cipher.encrypt_publication([15.0, 0.0, 0.0, 0.0])
    outside = cipher.encrypt_publication([25.0, 0.0, 0.0, 0.0])
    assert match_encrypted(inside, enc_sub)
    assert not match_encrypted(outside, enc_sub)


@pytest.mark.parametrize("op", [Op.LT, Op.LE, Op.GT, Op.GE, Op.EQ])
def test_each_operator_encrypted(cipher, op):
    sub = PredicateSet.of(Predicate(1, op, 50.0))
    enc_sub = cipher.encrypt_subscription(sub)
    for value in [49.0, 50.0, 51.0]:
        pub = [0.0, value, 0.0, 0.0]
        enc_pub = cipher.encrypt_publication(pub)
        assert match_encrypted(enc_pub, enc_sub) == sub.matches(pub), (op, value)


def test_encrypted_match_agrees_with_plaintext_randomized(cipher):
    rng = random.Random(99)
    for _ in range(200):
        attribute = rng.randrange(4)
        op = rng.choice([Op.LT, Op.LE, Op.GT, Op.GE])
        constant = rng.uniform(0.0, 1000.0)
        sub = PredicateSet.of(Predicate(attribute, op, constant))
        enc_sub = cipher.encrypt_subscription(sub)
        pub = [rng.uniform(0.0, 1000.0) for _ in range(4)]
        enc_pub = cipher.encrypt_publication(pub)
        assert match_encrypted(enc_pub, enc_sub) == sub.matches(pub)


def test_conjunction_encrypted(cipher):
    sub = PredicateSet.of(
        Predicate(0, Op.GE, 10.0),
        Predicate(1, Op.LT, 5.0),
        Predicate(2, Op.GT, 100.0),
    )
    enc_sub = cipher.encrypt_subscription(sub)
    assert match_encrypted(cipher.encrypt_publication([10.0, 4.0, 101.0, 0.0]), enc_sub)
    assert not match_encrypted(cipher.encrypt_publication([10.0, 5.0, 101.0, 0.0]), enc_sub)


def test_equality_becomes_two_ciphertext_predicates(cipher):
    enc = cipher.encrypt_subscription(PredicateSet.of(Predicate(0, Op.EQ, 7.0)))
    assert len(enc.predicates) == 2


def test_encryption_is_randomized(cipher):
    a = cipher.encrypt_publication([1.0, 2.0, 3.0, 4.0])
    b = cipher.encrypt_publication([1.0, 2.0, 3.0, 4.0])
    assert not np.allclose(a.vector, b.vector)


def test_ciphertext_hides_attributes(cipher):
    """No ciphertext coordinate equals a plaintext attribute value."""
    pub = [123.0, 456.0, 789.0, 321.0]
    enc = cipher.encrypt_publication(pub)
    for value in pub:
        assert not np.any(np.isclose(enc.vector, value, rtol=1e-3))


def test_scalar_products_between_same_side_ciphertexts_are_blinded(cipher):
    """pub·pub ciphertext products do not reveal plaintext products."""
    x = [1.0, 0.0, 0.0, 0.0]
    y = [0.0, 1.0, 0.0, 0.0]
    ex = cipher.encrypt_publication(x).vector
    ey = cipher.encrypt_publication(y).vector
    # Plaintext x·y = 0 but ciphertext product is mixed by MᵀM ≠ I.
    assert abs(float(ex @ ey)) > 1e-6


def test_wrong_dimension_rejected(cipher):
    with pytest.raises(ValueError):
        cipher.encrypt_publication([1.0, 2.0])
    with pytest.raises(ValueError):
        cipher.encrypt_predicate(Predicate(9, Op.LT, 1.0))


def test_different_keys_do_not_interoperate():
    key_a = AspeKey.generate(4, rng=random.Random(1))
    key_b = AspeKey.generate(4, rng=random.Random(2))
    cipher_a = AspeCipher(key_a, rng=random.Random(3))
    cipher_b = AspeCipher(key_b, rng=random.Random(4))
    sub = band(0, 0.0, 1000.0)  # matches everything under the right key
    enc_sub_b = cipher_b.encrypt_subscription(sub)
    mismatches = 0
    for i in range(20):
        pub = [float(i * 50), 0.0, 0.0, 0.0]
        enc_pub_a = cipher_a.encrypt_publication(pub)
        if match_encrypted(enc_pub_a, enc_sub_b) != sub.matches(pub):
            mismatches += 1
    assert mismatches > 0


@settings(max_examples=50, deadline=None)
@given(
    value=st.floats(0, 1000, allow_nan=False),
    constant=st.floats(0, 1000, allow_nan=False),
    op=st.sampled_from([Op.LT, Op.LE, Op.GT, Op.GE]),
)
def test_encrypted_decision_matches_plaintext_property(value, constant, op):
    # Skip adversarially close pairs where float tolerance legitimately
    # differs from exact comparison (the workload uses well-separated values).
    if 0 < abs(value - constant) < 1e-4 * max(1.0, abs(constant)):
        return
    key = AspeKey.generate(dimensions=2, rng=random.Random(5))
    cipher = AspeCipher(key, rng=random.Random(6))
    sub = PredicateSet.of(Predicate(0, op, constant))
    enc_sub = cipher.encrypt_subscription(sub)
    enc_pub = cipher.encrypt_publication([value, 0.0])
    assert match_encrypted(enc_pub, enc_sub) == sub.matches([value, 0.0])


class TestAspeLibrary:
    def test_store_match_remove(self, store_config, cipher):
        library = AspeLibrary(store_config)
        library.store(1, cipher.encrypt_subscription(band(0, 10.0, 20.0)))
        library.store(2, cipher.encrypt_subscription(band(0, 15.0, 30.0)))
        enc_pub = cipher.encrypt_publication([18.0, 0.0, 0.0, 0.0])
        assert sorted(library.match(enc_pub)) == [1, 2]
        library.remove(1)
        assert library.match(enc_pub) == [2]
        assert library.subscription_count() == 1

    def test_match_empty_library(self, store_config, cipher):
        library = AspeLibrary(store_config)
        assert library.match(cipher.encrypt_publication([0.0] * 4)) == []

    def test_type_checks(self, store_config, cipher):
        library = AspeLibrary(store_config)
        with pytest.raises(TypeError):
            library.store(1, band(0, 0.0, 1.0))
        with pytest.raises(TypeError):
            library.match([1.0, 2.0, 3.0, 4.0])

    def test_state_roundtrip(self, store_config, cipher):
        library = AspeLibrary(store_config)
        for i in range(5):
            library.store(i, cipher.encrypt_subscription(band(0, i * 10.0, i * 10.0 + 5.0)))
        clone = AspeLibrary(store_config)
        clone.import_state(library.export_state())
        enc_pub = cipher.encrypt_publication([12.0, 0.0, 0.0, 0.0])
        assert clone.match(enc_pub) == library.match(enc_pub)
        assert clone.state_size_bytes() == library.state_size_bytes()

    def test_library_agrees_with_pairwise_matching(self, store_config, cipher):
        rng = random.Random(11)
        library = AspeLibrary(store_config)
        subs = {}
        for sub_id in range(50):
            ps = band(rng.randrange(4), rng.uniform(0, 500), rng.uniform(500, 1000))
            subs[sub_id] = cipher.encrypt_subscription(ps)
            library.store(sub_id, subs[sub_id])
        for _ in range(20):
            enc_pub = cipher.encrypt_publication([rng.uniform(0, 1000) for _ in range(4)])
            expected = sorted(
                sub_id for sub_id, enc in subs.items() if match_encrypted(enc_pub, enc)
            )
            assert sorted(library.match(enc_pub)) == expected


class TestAspeLibraryOnMmapStore(TestAspeLibrary):
    store_config = stores.small_mmap_store
