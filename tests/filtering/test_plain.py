"""Unit tests for the plaintext reference library."""

import pytest

from repro.filtering import (
    BruteForceLibrary,
    Op,
    Predicate,
    PredicateSet,
)


@pytest.fixture(params=[BruteForceLibrary])
def library(request):
    return request.param()


def band(attribute, low, high):
    return PredicateSet.of(
        Predicate(attribute, Op.GE, low), Predicate(attribute, Op.LE, high)
    )


def test_store_and_match_single(library):
    library.store(1, band(0, 10.0, 20.0))
    assert library.match([15.0]) == [1]
    assert library.match([25.0]) == []
    assert library.subscription_count() == 1


def test_match_multiple_subscriptions(library):
    library.store(1, band(0, 0.0, 50.0))
    library.store(2, band(0, 40.0, 100.0))
    library.store(3, band(1, 0.0, 10.0))
    matched = sorted(library.match([45.0, 99.0]))
    assert matched == [1, 2]


def test_store_replaces_existing(library):
    library.store(1, band(0, 0.0, 10.0))
    library.store(1, band(0, 20.0, 30.0))
    assert library.match([5.0]) == []
    assert library.match([25.0]) == [1]
    assert library.subscription_count() == 1


def test_store_rejects_wrong_type(library):
    with pytest.raises(TypeError):
        library.store(1, "not a predicate set")


def test_state_export_import_roundtrip(library):
    library.store(1, band(0, 0.0, 10.0))
    library.store(2, band(1, 5.0, 6.0))
    state = library.export_state()
    other = type(library)()
    other.import_state(state)
    assert sorted(other.match([5.0, 5.5])) == [1, 2]
    assert other.state_size_bytes() == library.state_size_bytes()


def test_state_size_grows_with_subscriptions(library):
    empty = library.state_size_bytes()
    for i in range(10):
        library.store(i, band(0, float(i), float(i + 1)))
    assert library.state_size_bytes() > empty


def test_strict_and_equality_operators(library):
    library.store(1, PredicateSet.of(Predicate(0, Op.GT, 10.0)))
    library.store(2, PredicateSet.of(Predicate(0, Op.LT, 10.0)))
    library.store(3, PredicateSet.of(Predicate(0, Op.EQ, 10.0)))
    assert library.match([10.0]) == [3]
    assert library.match([10.5]) == [1]
    assert library.match([9.5]) == [2]

