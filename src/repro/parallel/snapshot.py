"""Self-contained snapshots of packed matching state for worker shipping.

A :class:`PackedSnapshot` freezes everything a worker process needs to
evaluate :func:`repro.filtering.match_packed` for a library at one epoch:
the direction-folded row matrix, the per-row strictness flags and
sign-folded tolerance bases, and the sorted span offsets.  Snapshots own
their arrays (C-contiguous copies of the library's stored rows), so they
stay valid after the library mutates and pickle without dragging along
workspace scratch or chunk tails.

The per-span merge metadata (``ids``/``positions``) deliberately stays
out of the snapshot: workers only produce span-conjunction booleans;
mapping spans back to subscription ids happens in the parent, which
captured the metadata at submission time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..filtering import PackedMatrixView, match_packed
from ..filtering.aspe import EncryptedPublication

__all__ = ["PackedSnapshot", "encode_batch", "match_span_range"]


@dataclass(frozen=True)
class PackedSnapshot:
    """Owned copy of a :class:`~repro.filtering.PackedMatrixView`."""

    epoch: int
    generation: int
    rows: int
    width: int
    matrix: np.ndarray  # (rows, width) float64, C-contiguous
    strict: np.ndarray  # (rows,) bool
    tol_signed: np.ndarray  # (rows,) float64
    starts: np.ndarray  # (spans,) int64, sorted
    stops: np.ndarray  # (spans,) int64

    @classmethod
    def from_view(cls, view: PackedMatrixView) -> "PackedSnapshot":
        if view.rows == 0 or view.starts.size == 0:
            raise ValueError("cannot snapshot an empty packed view")
        rows = view.rows
        matrix = np.empty((rows, view.width))
        strict = np.empty(rows, dtype=np.bool_)
        tol_signed = np.empty(rows)
        view.copy_rows(
            0, rows, matrix=matrix, strict=strict, tol_signed=tol_signed
        )
        return cls(
            epoch=view.epoch,
            generation=view.generation,
            rows=rows,
            width=view.width,
            matrix=matrix,
            strict=strict,
            tol_signed=tol_signed,
            starts=view.starts.copy(),
            stops=view.stops.copy(),
        )

    @property
    def span_count(self) -> int:
        return int(self.starts.size)


def encode_batch(payloads: Sequence[EncryptedPublication]) -> np.ndarray:
    """Stack publication ciphertext vectors into the (B, n) batch matrix.

    Applies the same payload type check as ``AspeLibrary.match_batch`` so
    the parallel path rejects exactly what the inline path rejects.
    """
    for payload in payloads:
        if not isinstance(payload, EncryptedPublication):
            raise TypeError(
                f"expected EncryptedPublication, got {type(payload).__name__}"
            )
    return np.stack([payload.vector for payload in payloads])


def match_span_range(
    snapshot: PackedSnapshot, span_lo: int, span_hi: int, batch: np.ndarray
) -> np.ndarray:
    """Evaluate spans ``[span_lo, span_hi)`` of a snapshot against a batch:
    the ``(span_hi - span_lo, B)`` block of span conjunctions.

    Slices the packed rows down to the contiguous ``[starts[lo],
    stops[hi-1])`` row range covering the requested spans and runs the
    shared kernel on that block.  Row-range chunking is bitwise-safe: the
    per-row decisions are row-independent, the span conjunction is a
    gather-AND over rows that all lie inside the chunk, and the BLAS
    product accumulates only over the (tiny) ciphertext width — never
    across chunked rows — so every chunk reproduces the exact rows of the
    result the unchunked kernel would compute.
    """
    row_lo = int(snapshot.starts[span_lo])
    row_hi = int(snapshot.stops[span_hi - 1])
    return match_packed(
        snapshot.matrix[row_lo:row_hi],
        snapshot.strict[row_lo:row_hi],
        snapshot.tol_signed[row_lo:row_hi],
        snapshot.starts[span_lo:span_hi] - row_lo,
        snapshot.stops[span_lo:span_hi] - row_lo,
        batch,
    )
