"""Tests for exact/sampled matching backends and the binomial sampler."""

import math
import random

import pytest

from repro.filtering import (
    BruteForceLibrary,
    ExactBackend,
    Op,
    Predicate,
    PredicateSet,
    SampledBackend,
    sample_binomial,
)


def band(attribute, low, high):
    return PredicateSet.of(
        Predicate(attribute, Op.GE, low), Predicate(attribute, Op.LE, high)
    )


class TestExactBackend:
    def test_match_returns_ids_and_count(self):
        backend = ExactBackend(BruteForceLibrary())
        backend.store(1, band(0, 0.0, 10.0))
        backend.store(2, band(0, 5.0, 15.0))
        result = backend.match(pub_id=1, payload=[7.0])
        assert result.count == 2
        assert sorted(result.ids) == [1, 2]

    def test_state_roundtrip(self):
        backend = ExactBackend(BruteForceLibrary())
        backend.store(1, band(0, 0.0, 10.0))
        clone = ExactBackend(BruteForceLibrary())
        clone.import_state(backend.export_state())
        assert clone.match(0, [5.0]).ids == [1]


class TestSampledBackend:
    def test_count_statistics_follow_rate(self):
        backend = SampledBackend(matching_rate=0.01, seed=3)
        for i in range(10_000):
            backend.store(i, None)
        counts = [backend.match(p, None).count for p in range(300)]
        mean = sum(counts) / len(counts)
        # Binomial(10000, 0.01): mean 100, σ ≈ 10; 300 draws → ±2 on mean.
        assert 95 < mean < 105
        assert backend.match(0, None).ids is None

    def test_zero_rate_never_matches(self):
        backend = SampledBackend(matching_rate=0.0)
        backend.store(1, None)
        assert backend.match(5, None).count == 0

    def test_full_rate_matches_everything(self):
        backend = SampledBackend(matching_rate=1.0)
        for i in range(50):
            backend.store(i, None)
        assert backend.match(5, None).count == 50

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            SampledBackend(matching_rate=1.5)
        with pytest.raises(ValueError):
            SampledBackend(matching_rate=-0.1)

    def test_store_and_state(self):
        backend = SampledBackend(matching_rate=0.5, seed=1)
        backend.store(1, "payload")
        backend.store(2, "payload")
        assert backend.subscription_count() == 2
        clone = SampledBackend(matching_rate=0.5, seed=1)
        clone.import_state(backend.export_state())
        assert clone.subscription_count() == 2

    def test_deterministic_given_seed_and_call_order(self):
        def run():
            backend = SampledBackend(matching_rate=0.1, seed=42)
            for i in range(100):
                backend.store(i, None)
            return [backend.match(p, None).count for p in range(20)]

        assert run() == run()


class TestBinomialSampler:
    def test_edge_cases(self):
        rng = random.Random(0)
        assert sample_binomial(rng, 0, 0.5) == 0
        assert sample_binomial(rng, 10, 0.0) == 0
        assert sample_binomial(rng, 10, 1.0) == 10

    def test_small_mean_exact_distribution(self):
        rng = random.Random(1)
        n, p, draws = 100, 0.02, 4000
        samples = [sample_binomial(rng, n, p) for _ in range(draws)]
        mean = sum(samples) / draws
        assert abs(mean - n * p) < 0.15
        assert all(0 <= s <= n for s in samples)

    def test_large_mean_normal_approximation(self):
        rng = random.Random(2)
        n, p, draws = 10_000, 0.5, 2000
        samples = [sample_binomial(rng, n, p) for _ in range(draws)]
        mean = sum(samples) / draws
        var = sum((s - mean) ** 2 for s in samples) / draws
        assert abs(mean - n * p) < 10
        assert abs(math.sqrt(var) - math.sqrt(n * p * (1 - p))) < 5
        assert all(0 <= s <= n for s in samples)
