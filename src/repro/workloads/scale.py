"""Million-subscription workload generation for out-of-core experiments.

The out-of-core store (DESIGN.md §8) is measured on pre-encrypted
traces one to two orders of magnitude larger than the unit-test
workloads (``perfbench``'s 100 000-subscription workloads).  Encrypting a million
subscriptions one scalar ``encrypt_subscription`` call at a time is the
bottleneck, not the matching — so :class:`ScaleWorkload` drives the bulk
cipher kernels (:meth:`~repro.filtering.AspeCipher.encrypt_subscriptions`
and :meth:`~repro.filtering.AspeCipher.encrypt_publications`, one BLAS
call per batch).  Subscription ids are assigned sequentially.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Tuple

from ..filtering import AspeCipher, AspeKey, EncryptedPublication, EncryptedSubscription
from .subscriptions import WorkloadGenerator

__all__ = ["ScaleWorkload"]


class ScaleWorkload:
    """Deterministic bulk-encrypted workload at 1M+ subscription scale."""

    def __init__(
        self,
        dimensions: int = 4,
        matching_rate: float = 0.01,
        value_range: float = 1000.0,
        seed: int = 0,
        key: Optional[AspeKey] = None,
    ):
        self.key = key if key is not None else AspeKey.generate(
            dimensions, random.Random(seed)
        )
        self.cipher = AspeCipher(self.key, rng=random.Random(seed + 1))
        self.generator = WorkloadGenerator(
            dimensions=dimensions,
            matching_rate=matching_rate,
            value_range=value_range,
            seed=seed + 2,
        )

    # -- subscriptions --------------------------------------------------------

    def subscription_batches(
        self, count: int, batch_size: int = 10_000, start_id: int = 0
    ) -> Iterator[List[Tuple[int, EncryptedSubscription]]]:
        """Yield ``(sub_id, ciphertext)`` batches, one gemm per batch."""
        if count < 0:
            raise ValueError("count must be >= 0")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        produced = 0
        while produced < count:
            size = min(batch_size, count - produced)
            predicate_sets = [
                self.generator.predicate_set() for _ in range(size)
            ]
            encrypted = self.cipher.encrypt_subscriptions(predicate_sets)
            base = start_id + produced
            yield [(base + i, sub) for i, sub in enumerate(encrypted)]
            produced += size

    # -- publications ---------------------------------------------------------

    def publications(self, count: int) -> List[EncryptedPublication]:
        """``count`` encrypted publications via one matrix-matrix product."""
        if count < 0:
            raise ValueError("count must be >= 0")
        if count == 0:
            return []
        attribute_rows = [
            self.generator.publication_attributes() for _ in range(count)
        ]
        return self.cipher.encrypt_publications(attribute_rows)
