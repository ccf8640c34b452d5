"""Configuration of the packed-matrix backing store.

One :class:`StoreConfig` selects how an :class:`~repro.filtering.AspeLibrary`
keeps its packed predicate rows: row-chunked in RAM (``chunked``, the
default), or row-chunked over memory-mapped spill files with an
LRU-bounded resident set (``mmap``) so one M-slice can serve subscription
partitions far larger than its memory budget.

The fields below are the only declaration of these knobs (see
:mod:`repro.config`); a caller selects a store by passing a
``StoreConfig``.
"""

from __future__ import annotations

import mmap

from dataclasses import dataclass
from typing import Optional

from ...config import knob

__all__ = ["STORE_BACKENDS", "StoreConfig"]

#: Recognised packed-row store backends.
STORE_BACKENDS = ("chunked", "mmap")


@dataclass(frozen=True)
class StoreConfig:
    """Validated knobs of the packed-row backing store.

    ``backend``
        ``chunked`` splits rows into chunks of at most ``chunk_rows``
        held in RAM (no eviction; the last chunk starts small and
        doubles up to ``chunk_rows``); ``mmap`` maps each chunk once over
        its own spill file and keeps only an LRU resident set within
        ``memory_budget_mb`` paged in — past the budget the
        least-recently-used chunk's pages are released with
        ``madvise(MADV_DONTNEED)`` and fault back in on the next touch.
        Needs a platform with ``mmap.MADV_DONTNEED`` (a ``ValueError``
        otherwise).
    ``chunk_rows``
        Rows per full chunk.  At ciphertext width ``n`` that is one buffer
        of ``chunk_rows × (n + 2) × 8`` bytes: the contiguous
        ``(chunk_rows, n)`` matrix block, then the two tolerance columns
        as one contiguous block each.
    ``memory_budget_mb``
        Resident-set budget for ``mmap`` chunk data, in MiB.  ``0``
        disables eviction.  The hottest chunk is never evicted, so the
        effective floor is one chunk.
    ``spill_dir``
        Parent directory for ``mmap`` chunk files (default: the system
        temporary directory).  Each store creates — and removes on
        garbage collection — its own subdirectory.
    """

    backend: str = knob(
        "chunked", "packed-row backing store", choices=STORE_BACKENDS
    )
    chunk_rows: int = knob(65536, "rows per store chunk")
    memory_budget_mb: float = knob(
        0.0, "mmap resident-set budget per library in MiB (0 = unbounded)"
    )
    spill_dir: Optional[str] = knob(
        None, "parent directory for mmap chunk files (system temp when unset)"
    )

    def __post_init__(self):
        if self.backend not in STORE_BACKENDS:
            raise ValueError(
                f"store_backend must be one of {STORE_BACKENDS}, "
                f"got {self.backend!r}"
            )
        if self.backend == "mmap" and not hasattr(mmap, "MADV_DONTNEED"):
            raise ValueError(
                "store_backend 'mmap' releases evicted chunks with "
                "madvise(MADV_DONTNEED), which this platform's mmap module "
                "does not provide; use 'chunked'"
            )
        if self.chunk_rows < 1:
            raise ValueError(
                f"store_chunk_rows must be >= 1, got {self.chunk_rows}"
            )
        if self.memory_budget_mb < 0:
            raise ValueError(
                f"store_memory_budget_mb must be >= 0 (0 disables eviction), "
                f"got {self.memory_budget_mb}"
            )

    @property
    def memory_budget_bytes(self) -> int:
        return int(self.memory_budget_mb * 1024 * 1024)
