"""Out-of-core backing store for packed matrices.

See DESIGN.md §8: :class:`ChunkedMatrixStore` keeps the packed predicate
rows in fixed-size chunks (optionally memory-mapped spill files with an
LRU-bounded resident set).
"""

from .config import STORE_BACKENDS, StoreConfig
from .chunks import ChunkedMatrixStore, RowBlock

__all__ = [
    "STORE_BACKENDS",
    "StoreConfig",
    "ChunkedMatrixStore",
    "RowBlock",
]
