"""Out-of-core backing store and key-range sharding for packed matrices.

See DESIGN.md §8: :class:`ChunkedMatrixStore` keeps the packed predicate
rows in fixed-size chunks (optionally memory-mapped spill files with an
LRU-bounded resident set), and :class:`ShardedAspeLibrary` partitions the
key space into runtime-splittable/mergeable :class:`AspeShard` ranges on
top of it.
"""

from .config import STORE_BACKENDS, StoreConfig
from .chunks import ChunkedMatrixStore, RowBlock
from .shard import AspeShard, ShardOpResult, ShardedAspeLibrary

__all__ = [
    "STORE_BACKENDS",
    "StoreConfig",
    "ChunkedMatrixStore",
    "RowBlock",
    "AspeShard",
    "ShardOpResult",
    "ShardedAspeLibrary",
]
