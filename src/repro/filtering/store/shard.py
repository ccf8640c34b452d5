"""Key-range sharding over :class:`~repro.filtering.AspeLibrary`.

A :class:`ShardedAspeLibrary` partitions the subscription key space into
contiguous ranges, one :class:`AspeShard` (backed by its own
``AspeLibrary`` and packed-row store) per range.  The shard count is a
*runtime* property: :meth:`split_shard` cuts one shard in two at a pivot
key — when keys were loaded in order the cut lands on a packed-row
boundary and whole chunks simply change owner — and :meth:`merge_shards`
joins adjacent ranges by chunk adoption, rewriting zero rows.  This is
what lets the elasticity enforcer change partition granularity mid-run
instead of only migrating fixed slices (the static-slicing limitation
the paper concedes in §VII).

Matching semantics are identical to a single ``AspeLibrary``: a global
first-store sequence number per subscription reproduces the insertion
order a single library's result lists follow, so a sharded M-slice emits
byte-identical match lists (and therefore byte-identical notification
logs) regardless of how many shards it holds or when they split.

The class keeps no library-wide ``epoch``, so an M slice over a sharded
backend matches each batch when asked rather than ahead
(``ExactBackend.library_epoch()`` returns ``None``).
"""

from __future__ import annotations

import bisect

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..base import FilteringLibrary
from .config import StoreConfig

__all__ = ["AspeShard", "ShardOpResult", "ShardedAspeLibrary"]


@dataclass
class AspeShard:
    """One contiguous key range ``[key_lo, key_hi)`` and its library.

    ``None`` bounds are open (−∞ / +∞).  Adjacent shards share their
    boundary: ``shards[i].key_hi == shards[i + 1].key_lo``.
    """

    key_lo: Optional[int]
    key_hi: Optional[int]
    library: "FilteringLibrary"

    def subscription_count(self) -> int:
        return self.library.subscription_count()


@dataclass(frozen=True)
class ShardOpResult:
    """Outcome of one shard split or merge."""

    op: str  # "split" or "merge"
    shard_index: int
    pivot_key: Optional[int]
    moved_subscriptions: int
    #: Rows physically copied (the chunk the split boundary cuts
    #: through, or every moved row on the rebuild slow path).  Merges
    #: and boundary-aligned splits rewrite zero rows.
    rows_rewritten: int
    bytes_rewritten: int
    shards_before: int
    shards_after: int


class ShardedAspeLibrary(FilteringLibrary):
    """A filtering library of key-range shards with runtime split/merge."""

    def __init__(self, store_config: Optional[StoreConfig] = None) -> None:
        self._store_config = (
            store_config if store_config is not None else StoreConfig.from_env()
        )
        self._shards: List[AspeShard] = [
            AspeShard(key_lo=None, key_hi=None, library=self._new_library())
        ]
        #: Global first-store order, reproducing single-library result
        #: order across shards (dict-slot semantics: a re-store keeps the
        #: original position, remove-then-store moves to the end).
        self._seq: Dict[int, int] = {}
        self._next_seq = 0
        self._telemetry = None
        self._label = "aspe"
        self.split_count = 0
        self.merge_count = 0

    def _new_library(self):
        from ..aspe import AspeLibrary

        library = AspeLibrary(store_config=self._store_config)
        if getattr(self, "_telemetry", None) is not None:
            library.bind_telemetry(self._telemetry, self._label)
        return library

    def _shard_for(self, key: int) -> AspeShard:
        shards = self._shards
        if len(shards) == 1:
            return shards[0]
        cuts = [shard.key_lo for shard in shards[1:]]
        return shards[bisect.bisect_right(cuts, key)]

    # -- FilteringLibrary interface -------------------------------------------

    def store(self, sub_id: int, filter_data) -> None:
        self._shard_for(sub_id).library.store(sub_id, filter_data)
        if sub_id not in self._seq:
            self._seq[sub_id] = self._next_seq
            self._next_seq += 1

    def store_many(self, items) -> int:
        """Bulk-store, routing each batch slice to its shard."""
        items = list(items)
        per_shard: Dict[int, List] = {}
        by_id = {id(shard): shard for shard in self._shards}
        for sub_id, subscription in items:
            shard = self._shard_for(sub_id)
            per_shard.setdefault(id(shard), []).append((sub_id, subscription))
        for shard_key, shard_items in per_shard.items():
            by_id[shard_key].library.store_many(shard_items)
        for sub_id, _ in items:
            if sub_id not in self._seq:
                self._seq[sub_id] = self._next_seq
                self._next_seq += 1
        return len(items)

    def remove(self, sub_id: int) -> None:
        self._shard_for(sub_id).library.remove(sub_id)  # KeyError if unknown
        del self._seq[sub_id]

    def match(self, publication_data) -> List[int]:
        matched: List[int] = []
        # Every shard type-checks the ciphertext, so an empty sharded
        # library rejects bad input exactly like an empty AspeLibrary.
        for shard in self._shards:
            matched.extend(shard.library.match(publication_data))
        matched.sort(key=self._seq.__getitem__)
        return matched

    def match_batch(self, publications: Sequence) -> List[List[int]]:
        merged: List[List[int]] = [[] for _ in publications]
        for shard in self._shards:
            for index, ids in enumerate(shard.library.match_batch(publications)):
                merged[index].extend(ids)
        key = self._seq.__getitem__
        for ids in merged:
            ids.sort(key=key)
        return merged

    def subscription_count(self) -> int:
        return sum(shard.library.subscription_count() for shard in self._shards)

    def state_size_bytes(self) -> int:
        return sum(shard.library.state_size_bytes() for shard in self._shards)

    def export_state(self):
        order = [
            sub_id
            for sub_id, _ in sorted(self._seq.items(), key=lambda kv: kv[1])
        ]
        return {
            "sharded": True,
            "bounds": [(shard.key_lo, shard.key_hi) for shard in self._shards],
            "order": order,
            "shards": [shard.library.export_state() for shard in self._shards],
        }

    def import_state(self, state) -> None:
        self._seq = {}
        self._next_seq = 0
        if isinstance(state, dict) and state.get("sharded"):
            self._shards = []
            for (key_lo, key_hi), shard_state in zip(
                state["bounds"], state["shards"]
            ):
                library = self._new_library()
                library.import_state(shard_state)
                self._shards.append(AspeShard(key_lo, key_hi, library))
            for sub_id in state["order"]:
                self._seq[sub_id] = self._next_seq
                self._next_seq += 1
            return
        # Plain {sub_id: subscription} mapping (a non-sharded peer's
        # export): adopt it as a single full-range shard.
        library = self._new_library()
        library.import_state(dict(state))
        self._shards = [AspeShard(None, None, library)]
        for sub_id in state:
            self._seq[sub_id] = self._next_seq
            self._next_seq += 1

    # -- shard management -----------------------------------------------------

    def shard_count(self) -> int:
        return len(self._shards)

    def shard_bounds(self) -> List[Tuple[Optional[int], Optional[int], int]]:
        """Per-shard ``(key_lo, key_hi, subscription_count)``."""
        return [
            (shard.key_lo, shard.key_hi, shard.subscription_count())
            for shard in self._shards
        ]

    def can_split(self) -> bool:
        return any(shard.subscription_count() >= 2 for shard in self._shards)

    def can_merge(self) -> bool:
        return len(self._shards) >= 2

    @staticmethod
    def _row_bytes(library) -> int:
        width = library._chunks.width
        # float64 row data + tolerance columns, plus the strict/alive flags.
        return (width + 2) * 8 + 2 if width else 0

    @staticmethod
    def _span_boundary(library, moving_ids) -> Optional[int]:
        """Row boundary separating staying rows from moving rows, if any.

        Returns the split row when every moving subscription's rows sit
        entirely above every staying subscription's — true whenever keys
        were stored in key order (the bulk-load layout) — else ``None``.
        """
        moving = set(moving_ids)
        min_moving_start = library._rows
        max_staying_stop = 0
        for sub_id, (start, stop) in library._spans.items():
            if stop <= start:
                continue
            if sub_id in moving:
                if start < min_moving_start:
                    min_moving_start = start
            elif stop > max_staying_stop:
                max_staying_stop = stop
        if max_staying_stop <= min_moving_start:
            return min_moving_start
        return None

    def split_shard(
        self, index: Optional[int] = None, pivot_key: Optional[int] = None
    ) -> ShardOpResult:
        """Split one shard's key range in two at ``pivot_key``.

        Defaults: the most populated shard, cut at its median key.  When
        the shard's rows are laid out in key order (bulk load), the cut
        is a row-boundary detach — whole chunks move, only the one chunk
        the boundary crosses is copied.  Interleaved layouts fall back
        to rebuilding the moving subscriptions into the new shard.
        """
        shards = self._shards
        if index is None:
            index = max(
                range(len(shards)),
                key=lambda i: shards[i].subscription_count(),
            )
        if not 0 <= index < len(shards):
            raise ValueError(f"shard index {index} outside [0, {len(shards)})")
        shard = shards[index]
        library = shard.library
        keys = sorted(library.subscription_ids())
        if len(keys) < 2:
            raise ValueError(
                f"shard {index} holds {len(keys)} subscription(s); "
                f"need at least 2 to split"
            )
        if pivot_key is None:
            pivot_key = keys[len(keys) // 2]
        if not keys[0] < pivot_key <= keys[-1]:
            raise ValueError(
                f"pivot key {pivot_key} does not separate shard {index} "
                f"(keys span [{keys[0]}, {keys[-1]}])"
            )
        moving_ids = [k for k in library.subscription_ids() if k >= pivot_key]
        row_bytes = self._row_bytes(library)
        boundary = self._span_boundary(library, moving_ids)
        if boundary is not None:
            new_library, rewritten = library.detach_suffix(boundary, moving_ids)
        else:
            new_library = self._new_library()
            items = [(k, library.get_subscription(k)) for k in moving_ids]
            for k in moving_ids:
                library.remove(k)
            new_library.store_many(items)
            rewritten = new_library.rows_appended
        before = len(shards)
        shards[index] = AspeShard(shard.key_lo, pivot_key, library)
        shards.insert(index + 1, AspeShard(pivot_key, shard.key_hi, new_library))
        self.split_count += 1
        return ShardOpResult(
            op="split",
            shard_index=index,
            pivot_key=pivot_key,
            moved_subscriptions=len(moving_ids),
            rows_rewritten=rewritten,
            bytes_rewritten=rewritten * row_bytes,
            shards_before=before,
            shards_after=before + 1,
        )

    def merge_shards(self, index: Optional[int] = None) -> ShardOpResult:
        """Merge shards ``index`` and ``index + 1`` by chunk adoption.

        Defaults to the adjacent pair with the fewest combined
        subscriptions.  No rows are rewritten: the right shard's chunks
        change owner and its spans shift by a constant offset.
        """
        shards = self._shards
        if len(shards) < 2:
            raise ValueError("need at least 2 shards to merge")
        if index is None:
            index = min(
                range(len(shards) - 1),
                key=lambda i: (
                    shards[i].subscription_count()
                    + shards[i + 1].subscription_count()
                ),
            )
        if not 0 <= index < len(shards) - 1:
            raise ValueError(
                f"merge index {index} outside [0, {len(shards) - 1})"
            )
        left = shards[index]
        right = shards[index + 1]
        moved = right.subscription_count()
        left.library.absorb(right.library)
        before = len(shards)
        shards[index] = AspeShard(left.key_lo, right.key_hi, left.library)
        del shards[index + 1]
        self.merge_count += 1
        return ShardOpResult(
            op="merge",
            shard_index=index,
            pivot_key=right.key_lo,
            moved_subscriptions=moved,
            rows_rewritten=0,
            bytes_rewritten=0,
            shards_before=before,
            shards_after=before - 1,
        )

    # -- store configuration and observability --------------------------------

    @property
    def store_config(self) -> StoreConfig:
        return self._store_config

    def configure_store(self, config: StoreConfig) -> None:
        """Select the backing store for all (empty) shards."""
        if config == self._store_config:
            return
        self._store_config = config
        for shard in self._shards:
            shard.library.configure_store(config)

    def bind_telemetry(self, telemetry, label: str = "aspe") -> None:
        self._telemetry = telemetry
        self._label = label
        for shard in self._shards:
            shard.library.bind_telemetry(telemetry, label)

    def store_stats(self) -> Dict[str, object]:
        """Aggregated backing-store statistics across shards."""
        totals: Dict[str, object] = {
            "backend": self._store_config.backend,
            "shards": len(self._shards),
            "chunks": 0,
            "rows": 0,
            "dead_rows": 0,
            "resident_chunks": 0,
            "resident_bytes": 0,
            "resident_peak_bytes": 0,
            "faults": 0,
            "evictions": 0,
        }
        for shard in self._shards:
            stats = shard.library.store_stats()
            for key in (
                "chunks",
                "rows",
                "dead_rows",
                "resident_chunks",
                "resident_bytes",
                "resident_peak_bytes",
                "faults",
                "evictions",
            ):
                totals[key] += stats[key]
        return totals
