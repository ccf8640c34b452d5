"""Tests for the synthetic workload generator."""

import pytest

from repro.workloads import WorkloadGenerator


def test_publication_attributes_shape_and_range():
    gen = WorkloadGenerator(dimensions=4, seed=1)
    attrs = gen.publication_attributes()
    assert len(attrs) == 4
    assert all(0.0 <= a < 1000.0 for a in attrs)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        WorkloadGenerator(dimensions=0)
    with pytest.raises(ValueError):
        WorkloadGenerator(matching_rate=0.0)
    with pytest.raises(ValueError):
        WorkloadGenerator(matching_rate=1.5)
    with pytest.raises(ValueError):
        WorkloadGenerator(value_range=-1)


def test_matching_rate_is_respected():
    """Empirical matching rate ≈ the configured 1%."""
    gen = WorkloadGenerator(dimensions=4, matching_rate=0.01, seed=5)
    filters = [gen.predicate_set() for _ in range(400)]
    matches = 0
    trials = 200
    for _ in range(trials):
        attrs = gen.publication_attributes()
        matches += sum(1 for f in filters if f.matches(attrs))
    rate = matches / (trials * len(filters))
    assert 0.007 < rate < 0.013


def test_higher_matching_rate():
    gen = WorkloadGenerator(dimensions=2, matching_rate=0.2, seed=6)
    filters = [gen.predicate_set() for _ in range(200)]
    matches = 0
    trials = 100
    for _ in range(trials):
        attrs = gen.publication_attributes()
        matches += sum(1 for f in filters if f.matches(attrs))
    rate = matches / (trials * len(filters))
    assert 0.17 < rate < 0.23


def test_determinism_by_seed():
    def filters(seed):
        gen = WorkloadGenerator(seed=seed)
        return [gen.predicate_set() for _ in range(10)]

    assert filters(7) == filters(7)
    assert filters(7) != filters(8)
