"""Interface of filtering libraries.

STREAMHUB performs matching via external filtering libraries attached to
each Matching-operator slice: the slice stores incoming subscriptions in
the library and, for each incoming publication, asks it for the list of
matching subscriber identifiers.  The engine is agnostic to the scheme —
plain or encrypted — which is exactly what lets E-STREAMHUB claim
independence from the filtering model.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, List, Sequence

__all__ = ["FilteringLibrary"]


class FilteringLibrary(ABC):
    """Stores subscription filters and matches publications against them."""

    @abstractmethod
    def store(self, sub_id: int, filter_data: Any) -> None:
        """Store the filter of subscription ``sub_id``.  Subscriptions are
        never removed; a library may refuse an id it already stores."""

    @abstractmethod
    def match(self, publication_data: Any) -> List[int]:
        """Ids of stored subscriptions whose filter matches the publication."""

    def match_batch(self, publications: Sequence[Any]) -> List[List[int]]:
        """Match several publications at once: one id list per publication.

        Results are defined to equal ``[self.match(p) for p in publications]``
        — implementations may override this default with a vectorized kernel
        (ASPE evaluates the whole batch as one matrix-matrix product) but
        must preserve the per-publication decisions and their order.
        """
        return [self.match(publication) for publication in publications]

    @abstractmethod
    def subscription_count(self) -> int:
        """Number of stored subscriptions."""

    @abstractmethod
    def state_size_bytes(self) -> int:
        """Approximate serialized size of the stored state (for migration)."""

    @abstractmethod
    def export_state(self) -> Dict[int, Any]:
        """Serializable snapshot of the stored subscriptions."""

    @abstractmethod
    def import_state(self, state: Dict[int, Any]) -> None:
        """Replace the stored subscriptions with ``state`` (migration)."""
