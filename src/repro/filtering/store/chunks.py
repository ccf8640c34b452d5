"""Chunked, optionally memory-mapped backing store for packed predicate rows.

The packed predicate matrix (PR 1) is split into *row chunks* of at most
``chunk_rows`` rows.  Each chunk keeps its float64 row data in one buffer
of ``capacity × (width + 1)`` cells laid out as column blocks — the
C-contiguous ``(capacity, width)`` ciphertext matrix, then the
``capacity`` sign-folded tolerances — either a plain in-RAM array
(``chunked`` backend) or a shared ``mmap`` of a per-store spill file
(``mmap`` backend), so every block handed out is a plain contiguous
``ndarray`` view the match kernel reads without a copy.  The per-row
``strict`` flag stays in RAM (1 byte/row).  The store is append-only:
a row, once written, never changes, and only the last chunk grows.

A mapped chunk is created at the full ``chunk_rows`` (a sparse file costs
nothing until touched).  A RAM chunk is allocated for the rows it is
about to receive — ``max(64, 2 × rows being appended)``, capped at
``chunk_rows`` — and doubles, copying its used rows into a new buffer,
until it reaches ``chunk_rows``: a library of 50 subscriptions holds 128
rows' worth of memory, not a 4.5 MiB chunk (DESIGN.md §8 has the
measurement).  Row views handed out before a growth keep the old buffer
alive and keep reading the rows they covered.

Under the ``mmap`` backend an LRU-ordered resident set bounds how many
chunk bytes are paged in at once.  A chunk is mapped once, when it is
created, and the mapping lives as long as the chunk does.  Touching a
chunk past the configured byte budget *releases* the least-recently-used
one: ``madvise(MADV_DONTNEED)`` drops its pages from this process and the
byte accounting forgets it — no ``msync``, no unmap.  Dirty pages of a
shared mapping stay in the page cache (the spill files are
process-private temporaries; nothing needs to be durable), so a released
chunk, and any row view a caller still holds on it, reads back the same
values: the next touch just counts a fault and lets the kernel page the
rows back in.  Matching streams chunk by chunk through
:meth:`ChunkedMatrixStore.blocks`, so the working set stays within the
budget regardless of total subscription count.  What a chunk holds for
its whole life is address space and one file descriptor (CPython's
``mmap`` keeps a duplicate), so ``chunk_rows`` should keep a process's
chunk count well under its descriptor limit.
"""

from __future__ import annotations

import mmap
import os
import shutil
import tempfile
import weakref

from collections import OrderedDict
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from .config import StoreConfig

__all__ = ["ChunkedMatrixStore", "RowBlock"]


class RowBlock(NamedTuple):
    """One contiguous run of packed rows, as views into a chunk."""

    start: int
    stop: int
    matrix: np.ndarray
    strict: np.ndarray
    tol_signed: np.ndarray


#: Rows a RAM chunk is first allocated for, at least.
_MIN_CAPACITY = 64


class _Chunk:
    """One run of rows: column blocks over a single buffer, which is a
    shared mapping of ``path`` when there is one."""

    __slots__ = ("capacity", "used", "strict", "path", "mapping",
                 "nbytes", "matrix", "tol_signed")

    def __init__(self, capacity: int, width: int, path: Optional[str]) -> None:
        self.used = 0
        self.path = path
        self.mapping = None
        self._allocate(capacity, width)

    def _allocate(self, capacity: int, width: int) -> None:
        self.capacity = capacity
        self.strict = np.zeros(capacity, dtype=bool)
        self.nbytes = capacity * (width + 1) * 8
        if self.path is None:
            cells = np.zeros(capacity * (width + 1))
        else:
            with open(self.path, "w+b") as spill:
                spill.truncate(self.nbytes)
                self.mapping = mmap.mmap(spill.fileno(), self.nbytes)
            cells = np.frombuffer(self.mapping, dtype=np.float64)
        edge = capacity * width
        self.matrix = cells[:edge].reshape(capacity, width)
        self.tol_signed = cells[edge:]

    @property
    def columns(self) -> Tuple[np.ndarray, ...]:
        return (self.matrix, self.tol_signed, self.strict)

    def grow(self, capacity: int) -> None:
        """Move a RAM chunk's used rows into a buffer of ``capacity`` rows.

        The old buffer is left as it was, so a view on it stays valid.
        """
        old = self.columns
        self._allocate(capacity, self.matrix.shape[1])
        for column, previous in zip(self.columns, old):
            column[: self.used] = previous[: self.used]


class ChunkedMatrixStore:
    """Row-chunked packed-matrix storage with an LRU-bounded resident set.

    Row addressing is positional and global: row ``i`` lives in the chunk
    whose cumulative ``used`` range covers ``i``.  Appends only ever extend
    (and, while it is a RAM chunk below ``chunk_rows``, grow) the last
    chunk.  A chunk's ``matrix`` holds the direction-folded query rows,
    ``tol_signed`` the sign-folded tolerances (see :class:`_Chunk`).
    """

    def __init__(self, config: StoreConfig) -> None:
        self.config = config
        self.width: Optional[int] = None
        self._chunks: List[_Chunk] = []
        self._rows = 0
        #: Resident chunks in least-recently-used-first order.
        self._lru: "OrderedDict[_Chunk, None]" = OrderedDict()
        self._resident_bytes = 0
        self.resident_peak_bytes = 0
        self.fault_count = 0
        self.eviction_count = 0
        self._dir: Optional[str] = None
        self._finalizer = None
        self._chunk_seq = 0
        self._telemetry = None
        self._label = "aspe"

    # -- observability --------------------------------------------------------

    def bind_telemetry(self, telemetry, label: str = "aspe") -> None:
        """Record faults/evictions/residency into a telemetry bundle."""
        self._telemetry = telemetry
        self._label = label
        self._update_gauges()

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    @property
    def chunk_count(self) -> int:
        return len(self._chunks)

    @property
    def resident_chunks(self) -> int:
        return len(self._lru)

    def stats(self) -> dict:
        return {
            "backend": self.config.backend,
            "chunk_rows": self.config.chunk_rows,
            "chunks": len(self._chunks),
            "rows": self._rows,
            "resident_chunks": len(self._lru),
            "resident_bytes": self._resident_bytes,
            "resident_peak_bytes": self.resident_peak_bytes,
            "faults": self.fault_count,
            "evictions": self.eviction_count,
        }

    # -- residency ------------------------------------------------------------

    def _ensure_dir(self) -> str:
        if self._dir is None:
            self._dir = tempfile.mkdtemp(
                prefix="aspe-store-", dir=self.config.spill_dir
            )
            self._finalizer = weakref.finalize(
                self, shutil.rmtree, self._dir, True
            )
        return self._dir

    def _next_path(self) -> str:
        name = f"chunk-{self._chunk_seq:06d}.f64"
        self._chunk_seq += 1
        return os.path.join(self._ensure_dir(), name)

    def _tail_chunk(self, extra: int) -> _Chunk:
        """The last chunk, with room for at least one of ``extra`` more rows.

        A chunk without a spill file starts at ``max(_MIN_CAPACITY, 2 ×
        extra)`` rows and doubles until it reaches ``chunk_rows``; a mapped
        one is created at ``chunk_rows``.  Past that a new chunk starts.
        """
        limit = self.config.chunk_rows
        chunk = self._chunks[-1] if self._chunks else None
        if chunk is not None and chunk.path is None and chunk.capacity < limit:
            capacity = chunk.capacity
            while capacity < chunk.used + extra:
                capacity *= 2
            if capacity > chunk.capacity:
                before = chunk.nbytes
                chunk.grow(min(capacity, limit))
                self._track_bytes(chunk.nbytes - before)
        if chunk is None or chunk.used >= chunk.capacity:
            path = self._next_path() if self.config.backend == "mmap" else None
            capacity = limit
            if path is None:
                capacity = min(limit, max(_MIN_CAPACITY, 2 * extra))
            chunk = _Chunk(capacity, self.width, path)
            self._chunks.append(chunk)
            self._track_resident(chunk)
        return chunk

    def _track_resident(self, chunk: _Chunk) -> None:
        self._lru[chunk] = None
        self._track_bytes(chunk.nbytes)

    def _track_bytes(self, nbytes: int) -> None:
        self._resident_bytes += nbytes
        if self._resident_bytes > self.resident_peak_bytes:
            self.resident_peak_bytes = self._resident_bytes
        self._update_gauges()

    def _touch(self, chunk: _Chunk) -> _Chunk:
        """Make the chunk most recently used, counting a fault if it had
        been released (the kernel pages its rows back in on access)."""
        if chunk in self._lru:
            self._lru.move_to_end(chunk)
        else:
            self.fault_count += 1
            telemetry = self._telemetry
            if telemetry is not None:
                telemetry.store_chunk_faults.labels(store=self._label).inc()
            self._track_resident(chunk)
        self._evict(exclude=chunk)
        return chunk

    def _evict(self, exclude: _Chunk) -> None:
        budget = self.config.memory_budget_bytes
        if budget <= 0 or self.config.backend != "mmap":
            return
        evicted = 0
        while self._resident_bytes > budget:
            victim = None
            for candidate in self._lru:
                # Never evict the chunk being touched.
                if candidate is not exclude:
                    victim = candidate
                    break
            if victim is None:
                break
            # Release, not unmap: the pages leave this process, the dirty
            # ones stay in the page cache, views on the chunk stay valid.
            victim.mapping.madvise(mmap.MADV_DONTNEED)
            self._forget(victim)
            self.eviction_count += 1
            evicted += 1
        if evicted:
            telemetry = self._telemetry
            if telemetry is not None:
                telemetry.store_chunk_evictions.labels(store=self._label).inc(evicted)

    def _update_gauges(self) -> None:
        telemetry = self._telemetry
        if telemetry is None:
            return
        telemetry.store_resident_chunks.labels(store=self._label).set(
            len(self._lru)
        )
        telemetry.store_resident_bytes.labels(store=self._label).set(
            self._resident_bytes
        )

    def _forget(self, chunk: _Chunk) -> None:
        """Drop a chunk from the resident set, if it is in it."""
        if chunk in self._lru:
            del self._lru[chunk]
            self._resident_bytes -= chunk.nbytes
            self._update_gauges()

    # -- mutation -------------------------------------------------------------

    def _check_width(self, width: int) -> None:
        if self.width is None:
            self.width = int(width)
        elif int(width) != self.width:
            raise ValueError(
                f"ciphertext width {width} does not match stored width "
                f"{self.width}"
            )

    def append(
        self,
        matrix: np.ndarray,
        strict: np.ndarray,
        tol_signed: np.ndarray,
    ) -> Tuple[int, int]:
        """Append rows; returns their [start, stop) span."""
        count = int(matrix.shape[0])
        start = self._rows
        if count == 0:
            return (start, start)
        self._check_width(matrix.shape[1])
        written = 0
        while written < count:
            chunk = self._touch(self._tail_chunk(count - written))
            take = min(count - written, chunk.capacity - chunk.used)
            lo = chunk.used
            hi = lo + take
            source = slice(written, written + take)
            chunk.matrix[lo:hi] = matrix[source]
            chunk.tol_signed[lo:hi] = tol_signed[source]
            chunk.strict[lo:hi] = strict[source]
            chunk.used = hi
            written += take
        self._rows += count
        return (start, start + count)

    def compact(self) -> None:
        """Nothing to compact: rows are never removed.  Deliberate leftover:
        ``perfbench/layers.py`` wraps ``ChunkedMatrixStore.__dict__["compact"]``
        to count ``store.compactions`` and may not be edited here, so the
        method must exist; it goes in the PR that has ``perfbench/**`` in
        bounds (ROADMAP item 0)."""

    def clear(self) -> None:
        """Forget every chunk and unlink its spill file; a mapping goes with
        its last view."""
        for chunk in self._chunks:
            self._forget(chunk)
            if chunk.path is not None:
                try:
                    os.unlink(chunk.path)
                except OSError:
                    pass
        self._chunks = []
        self._rows = 0

    # -- reading --------------------------------------------------------------

    def blocks(self) -> Iterator[RowBlock]:
        """Stream the store's rows as per-chunk blocks (faulting lazily).

        Views are plain contiguous arrays and stay valid even if their
        chunk is released or grown while the caller iterates on — released
        pages read back from the page cache, and a growth leaves the old
        buffer as it was.
        """
        base = 0
        for chunk in self._chunks:
            used = chunk.used
            self._touch(chunk)
            yield RowBlock(
                base,
                base + used,
                chunk.matrix[:used],
                chunk.strict[:used],
                chunk.tol_signed[:used],
            )
            base += used
