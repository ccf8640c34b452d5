"""Content-based filtering: plaintext predicates and ASPE.

* :mod:`repro.filtering.predicates` — the plaintext model (Op, Predicate,
  PredicateSet).
* :mod:`repro.filtering.plain` — the brute-force plaintext library.
* :mod:`repro.filtering.aspe` — real ASPE encrypted filtering.
* :mod:`repro.filtering.backends` — exact/sampled matching backends used
  by simulated M-operator slices.
* :mod:`repro.filtering.store` — chunked/mmap packed-row backing stores
  (DESIGN.md §8).
* :mod:`repro.filtering.cost` — the calibrated CPU/size cost model.
"""

from .predicates import Op, Predicate, PredicateSet
from .base import FilteringLibrary
from .plain import BruteForceLibrary
from .aspe import (
    AspeCipher,
    AspeKey,
    AspeLibrary,
    EncryptedPredicate,
    EncryptedPublication,
    EncryptedSubscription,
    match_encrypted,
    match_packed,
)
from .store import STORE_BACKENDS, ChunkedMatrixStore, StoreConfig
from .backends import (
    ExactBackend,
    MatchResult,
    MatchingBackend,
    SampledBackend,
    sample_binomial,
)
from .cost import CostModel

__all__ = [
    "AspeCipher",
    "AspeKey",
    "AspeLibrary",
    "ChunkedMatrixStore",
    "STORE_BACKENDS",
    "StoreConfig",
    "BruteForceLibrary",
    "CostModel",
    "EncryptedPredicate",
    "EncryptedPublication",
    "EncryptedSubscription",
    "ExactBackend",
    "FilteringLibrary",
    "MatchResult",
    "MatchingBackend",
    "Op",
    "Predicate",
    "PredicateSet",
    "SampledBackend",
    "match_encrypted",
    "match_packed",
    "sample_binomial",
]
