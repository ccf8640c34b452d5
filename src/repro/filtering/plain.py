"""Plaintext filtering: :class:`BruteForceLibrary`.

It evaluates every stored subscription against every publication, like
encrypted filtering must (O(N·k) per match).  The chaos scenarios match
with it, and tests use it as the plaintext reference for ASPE.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .base import FilteringLibrary
from .predicates import PredicateSet

__all__ = ["BruteForceLibrary"]

# Approximate serialized footprint of one plaintext predicate: attribute
# index + op tag + 8-byte constant + object overhead.
_PREDICATE_BYTES = 48


class BruteForceLibrary(FilteringLibrary):
    """Match by evaluating every stored subscription (no index)."""

    def __init__(self) -> None:
        self._subs: Dict[int, PredicateSet] = {}

    def store(self, sub_id: int, filter_data: PredicateSet) -> None:
        if not isinstance(filter_data, PredicateSet):
            raise TypeError(f"expected PredicateSet, got {type(filter_data).__name__}")
        self._subs[sub_id] = filter_data

    def match(self, publication_data: Sequence[float]) -> List[int]:
        return [
            sub_id
            for sub_id, predicate_set in self._subs.items()
            if predicate_set.matches(publication_data)
        ]

    def subscription_count(self) -> int:
        return len(self._subs)

    def state_size_bytes(self) -> int:
        return sum(_PREDICATE_BYTES * len(ps) + 32 for ps in self._subs.values())

    def export_state(self) -> Dict[int, PredicateSet]:
        return dict(self._subs)

    def import_state(self, state: Dict[int, PredicateSet]) -> None:
        self._subs = dict(state)
