"""Matching backends used by M-operator slices in simulations.

Two interchangeable backends implement the same storage/matching surface:

* :class:`ExactBackend` wraps any real :class:`~repro.filtering.base.
  FilteringLibrary` (plaintext or ASPE) and computes true match sets.
  Used in unit/integration tests, examples and small-scale simulations.
* :class:`SampledBackend` reproduces the *statistics* of encrypted
  filtering without touching ciphertexts: the number of matches of a
  publication in a slice holding ``n`` subscriptions is drawn from
  Binomial(n, matching_rate), the exact distribution of independent
  per-subscription matches the synthetic workload is built to have.
  At the paper's scale (42 million encrypted match operations per second)
  evaluating real ciphertexts in Python would make cluster-length
  simulations intractable; the sampled backend preserves exactly the
  load-relevant quantities — stored-subscription counts (CPU cost),
  match-list sizes and notification counts — which is what the elasticity
  experiments measure.  DESIGN.md §2 documents this substitution.

Both report the number of stored subscriptions (drives the CPU cost
charged per publication) and expose export/import for slice migration.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

from .base import FilteringLibrary

__all__ = ["MatchResult", "MatchingBackend", "ExactBackend", "SampledBackend", "sample_binomial"]


class MatchResult(NamedTuple):
    """Outcome of matching one publication inside one M slice.

    ``ids`` is the concrete list of matching subscription ids when the
    backend computes one (exact mode) and ``None`` in sampled mode, where
    only the count is statistically meaningful.
    """

    count: int
    ids: Optional[List[int]] = None


#: Builds a :class:`MatchResult` from both fields without the generated
#: ``__new__`` frame: one result per publication per M slice.
_new = tuple.__new__


class MatchingBackend(ABC):
    """Storage + matching surface used by M-operator slices."""

    @abstractmethod
    def store(self, sub_id: int, payload: Any) -> None:
        """Store subscription ``sub_id`` with its (possibly encrypted) filter."""

    @abstractmethod
    def remove(self, sub_id: int) -> None:
        """Forget subscription ``sub_id``."""

    @abstractmethod
    def match(self, pub_id: int, payload: Any) -> MatchResult:
        """Match one publication against the stored subscriptions."""

    def match_batch(self, pub_ids: Sequence[int], payloads: Sequence[Any]) -> List[MatchResult]:
        """Match several publications at once, one result per publication.

        Defined to equal ``[self.match(i, p) for i, p in zip(...)]`` — the
        default delegates to :meth:`match` so every backend (including the
        sampled one, whose per-publication RNG draws must stay in sequence
        order) is batch-callable; :class:`ExactBackend` overrides it with
        the wrapped library's vectorized batch kernel.
        """
        return [self.match(pub_id, payload) for pub_id, payload in zip(pub_ids, payloads)]

    @abstractmethod
    def subscription_count(self) -> int:
        """Number of stored subscriptions (drives the matching CPU cost)."""

    @abstractmethod
    def export_state(self) -> Any:
        """Serializable snapshot of stored subscriptions (for migration)."""

    @abstractmethod
    def import_state(self, state: Any) -> None:
        """Replace stored subscriptions with ``state`` (for migration)."""


class ExactBackend(MatchingBackend):
    """Real matching through a wrapped filtering library."""

    def __init__(self, library: FilteringLibrary):
        self.library = library

    def store(self, sub_id: int, payload: Any) -> None:
        self.library.store(sub_id, payload)

    def remove(self, sub_id: int) -> None:
        self.library.remove(sub_id)

    def match(self, pub_id: int, payload: Any) -> MatchResult:
        ids = self.library.match(payload)
        return _new(MatchResult, (len(ids), ids))

    def match_batch(self, pub_ids: Sequence[int], payloads: Sequence[Any]) -> List[MatchResult]:
        return [
            _new(MatchResult, (len(ids), ids))
            for ids in self.library.match_batch(payloads)
        ]

    def subscription_count(self) -> int:
        return self.library.subscription_count()

    def export_state(self) -> Any:
        return self.library.export_state()

    def import_state(self, state: Any) -> None:
        self.library.import_state(state)

    def library_epoch(self) -> Optional[int]:
        """The wrapped library's mutation epoch, if it keeps one.

        While it stands, matching is a pure function of the ciphertext, so
        a caller may compute results before it needs them.  Libraries
        without one (brute force) return ``None`` and are
        matched when asked — capability, not configuration.
        """
        return getattr(self.library, "epoch", None)


def sample_binomial(rng: random.Random, n: int, p: float) -> int:
    """Draw from Binomial(n, p) — exact for small means, normal approx above.

    The normal approximation is used when ``n·p·(1−p) > 25``, where its
    error is far below the run-to-run variance of the experiments.
    """
    if n <= 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    variance = n * p * (1.0 - p)
    if variance > 25.0:
        draw = int(round(rng.gauss(n * p, math.sqrt(variance))))
        return min(max(draw, 0), n)
    # Exact inversion: walk the CDF (mean is small here, so this is cheap).
    u = rng.random()
    probability = (1.0 - p) ** n
    cumulative = probability
    k = 0
    while u > cumulative and k < n:
        probability *= (n - k) / (k + 1) * (p / (1.0 - p))
        cumulative += probability
        k += 1
    return k


class SampledBackend(MatchingBackend):
    """Statistically faithful stand-in for encrypted matching at scale."""

    def __init__(self, matching_rate: float, seed: int = 0):
        if not 0.0 <= matching_rate <= 1.0:
            raise ValueError(f"matching rate must be in [0, 1], got {matching_rate}")
        self.matching_rate = matching_rate
        self._rng = random.Random(seed)
        self._subs: Dict[int, Any] = {}

    def store(self, sub_id: int, payload: Any) -> None:
        self._subs[sub_id] = payload

    def remove(self, sub_id: int) -> None:
        del self._subs[sub_id]

    def match(self, pub_id: int, payload: Any) -> MatchResult:
        count = sample_binomial(self._rng, len(self._subs), self.matching_rate)
        return _new(MatchResult, (count, None))

    def subscription_count(self) -> int:
        return len(self._subs)

    def export_state(self) -> Any:
        return dict(self._subs)

    def import_state(self, state: Any) -> None:
        self._subs = dict(state)
