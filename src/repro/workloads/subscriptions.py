"""Synthetic subscription/publication workload generation.

The paper's evaluation (§VI-B) uses synthetic workloads of pre-encrypted
subscriptions and publications over a d = 4 attribute ASPE schema with an
average *matching rate* of 1%: each publication matches each stored
subscription with probability 0.01, so 100 K subscriptions yield ≈ 1 000
notifications per publication.

Generation strategy: publication attributes are uniform over
``[0, value_range)``; a subscription is an interval constraint of width
``matching_rate × value_range`` placed uniformly (wrapping intervals are
split across the boundary via two generated predicates on the same
attribute), giving exactly the target matching probability per
subscription, independently across subscriptions.
"""

from __future__ import annotations

import random
from typing import List

from ..filtering import Op, Predicate, PredicateSet

__all__ = ["WorkloadGenerator"]


class WorkloadGenerator:
    """Deterministic generator of subscription filters and publication
    attributes."""

    def __init__(
        self,
        dimensions: int = 4,
        matching_rate: float = 0.01,
        value_range: float = 1000.0,
        seed: int = 0,
    ):
        if dimensions <= 0:
            raise ValueError("dimensions must be positive")
        if not 0.0 < matching_rate <= 1.0:
            raise ValueError("matching rate must be in (0, 1]")
        if value_range <= 0:
            raise ValueError("value range must be positive")
        self.dimensions = dimensions
        self.matching_rate = matching_rate
        self.value_range = value_range
        self._rng = random.Random(seed)

    # -- plaintext ------------------------------------------------------------

    def publication_attributes(self) -> List[float]:
        """One publication's attribute vector (uniform per attribute)."""
        return [
            self._rng.uniform(0.0, self.value_range) for _ in range(self.dimensions)
        ]

    def predicate_set(self) -> PredicateSet:
        """One subscription filter with exact ``matching_rate`` selectivity."""
        attribute = self._rng.randrange(self.dimensions)
        width = self.matching_rate * self.value_range
        start = self._rng.uniform(0.0, self.value_range)
        end = start + width
        if end <= self.value_range:
            return PredicateSet.of(
                Predicate(attribute, Op.GE, start), Predicate(attribute, Op.LT, end)
            )
        # Interval wraps: accept values in [start, range) — the wrapped
        # remainder [0, end - range) is folded into the lower bound check
        # of a disjunction-free model by shifting the interval back.
        return PredicateSet.of(
            Predicate(attribute, Op.GE, self.value_range - width),
            Predicate(attribute, Op.LT, self.value_range),
        )
