"""Worker-process side of the parallel matcher.

A worker attaches the ``multiprocessing.shared_memory`` segments the
parent writes, keeps zero-copy array views over them, and receives only
small metadata updates (the span offsets) when a matrix grows in place.  Each task evaluates :func:`match_span_range` — the library's own
:func:`~repro.filtering.match_packed` kernel over a contiguous row range
of the segment — against one publication batch.

Everything here is a pure function of (segment contents, span offsets,
publication batch): no randomness, no clocks feeding results, no state
that outlives a sync — the property the bit-determinism argument in
DESIGN.md §7 rests on.  The wall-clock ``busy`` seconds returned
alongside each result feed telemetry only, never matching decisions.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Tuple

import numpy as np

from ..filtering import match_packed

__all__ = ["match_span_range", "segment_layout", "segment_arrays", "worker_main"]


def match_span_range(
    matrix: np.ndarray,
    strict: np.ndarray,
    tol_signed: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    span_lo: int,
    span_hi: int,
    batch: np.ndarray,
) -> np.ndarray:
    """Evaluate spans ``[span_lo, span_hi)`` of packed rows against a batch:
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
    row_lo = int(starts[span_lo])
    row_hi = int(stops[span_hi - 1])
    return match_packed(
        matrix[row_lo:row_hi],
        strict[row_lo:row_hi],
        tol_signed[row_lo:row_hi],
        starts[span_lo:span_hi] - row_lo,
        stops[span_lo:span_hi] - row_lo,
        batch,
    )


def segment_layout(capacity: int, width: int) -> Tuple[int, int, int]:
    """Byte offsets ``(tol_offset, strict_offset, total_bytes)``.

    One segment packs ``[matrix capacity×width f8][tol_signed capacity
    f8][strict capacity b1]``; the parent writes, workers only read.
    ``capacity`` is the row capacity of the segment; the live rows are
    those the channel metadata's span offsets point at.
    """
    matrix_bytes = capacity * width * 8
    tol_bytes = capacity * 8
    return matrix_bytes, matrix_bytes + tol_bytes, matrix_bytes + tol_bytes + capacity


def segment_arrays(
    buffer, capacity: int, width: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(matrix, strict, tol_signed)`` array views over a segment buffer."""
    tol_offset, strict_offset, _ = segment_layout(capacity, width)
    matrix = np.frombuffer(
        buffer, dtype=np.float64, count=capacity * width
    ).reshape(capacity, width)
    tol_signed = np.frombuffer(
        buffer, dtype=np.float64, count=capacity, offset=tol_offset
    )
    strict = np.frombuffer(
        buffer, dtype=np.bool_, count=capacity, offset=strict_offset
    )
    return matrix, strict, tol_signed


class _SegmentView:
    """A worker's array views over one attached shm segment."""

    def __init__(self, shm, capacity: int, width: int):
        self.shm = shm
        self.matrix, self.strict, self.tol_signed = segment_arrays(
            shm.buf, capacity, width
        )

    def close(self) -> None:
        # Drop the array views before closing: an exported buffer keeps
        # the mapping alive and close() would raise.
        self.matrix = self.tol_signed = self.strict = None
        try:
            self.shm.close()
        except BufferError:
            # A stale reference still exports the buffer; the mapping is
            # reclaimed at process exit instead.  The parent has already
            # unlinked the segment, so nothing leaks past the worker.
            pass


def _attach_segment(name: str, capacity: int, width: int) -> _SegmentView:
    from multiprocessing import shared_memory

    # Attaching registers the name with the resource tracker a second
    # time.  That is harmless because the tracker is the parent's (it is
    # started before any worker is forked) and keeps a set: the parent's
    # unlink still takes the name out, and a parent that crashes has its
    # segments removed by the tracker.
    return _SegmentView(shared_memory.SharedMemory(name=name), capacity, width)


def worker_main(conn, parent_end) -> None:
    """Worker loop: a tiny tagged-tuple protocol over a duplex pipe.

    ``parent_end`` is the fork's copy of the parent's end of that pipe;
    it is closed first, or this process would keep its own pipe open and
    never see the parent go away.

    * ``("sync", key, meta)`` — install channel metadata.  ``meta`` maps
      ``segment``/``capacity``/``width`` (attach target) and
      ``starts``/``stops`` (sorted span offsets of the live rows).
      Attaches the segment on first sight; a changed segment name
      detaches the old one.
    * ``("task", task_id, key, span_lo, span_hi, batch)`` — evaluate and
      reply ``("result", task_id, ok, busy_seconds)`` with the
      ``(span_hi - span_lo, B)`` block ``ok``.
    * ``("close", key)`` — forget a channel (detach its segment if no
      other channel uses it).
    * ``("stop",)`` — exit.

    Errors are reported as ``("error", task_id, repr)`` so the parent can
    fail just the affected future instead of losing the worker.
    """
    parent_end.close()
    segments: Dict[str, _SegmentView] = {}
    metas: Dict[str, Dict[str, Any]] = {}
    try:
        while True:
            message = conn.recv()
            tag = message[0]
            if tag == "task":
                # Helper call so segment-array references in task locals
                # die on return — a later detach can then really unmap.
                _run_task(conn, segments, metas, message)
            elif tag == "sync":
                _, key, meta = message
                name = meta["segment"]
                if name not in segments:
                    segments[name] = _attach_segment(
                        name, meta["capacity"], meta["width"]
                    )
                previous = metas.get(key)
                metas[key] = meta
                if previous is not None and previous["segment"] != name:
                    _maybe_detach(segments, metas, previous["segment"])
            elif tag == "close":
                _, key = message
                previous = metas.pop(key, None)
                if previous is not None:
                    _maybe_detach(segments, metas, previous["segment"])
            elif tag == "stop":
                return
    except (EOFError, OSError):  # parent went away
        return
    finally:
        for view in segments.values():
            try:
                view.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass


def _run_task(conn, segments, metas, message) -> None:
    _, task_id, key, span_lo, span_hi, batch = message
    started = time.perf_counter()
    try:
        meta = metas[key]
        view = segments[meta["segment"]]
        ok = match_span_range(
            view.matrix,
            view.strict,
            view.tol_signed,
            meta["starts"],
            meta["stops"],
            span_lo,
            span_hi,
            batch,
        )
    except Exception as exc:  # pragma: no cover - defensive
        conn.send(("error", task_id, repr(exc)))
    else:
        conn.send(("result", task_id, ok, time.perf_counter() - started))


def _maybe_detach(segments, metas, name: str) -> None:
    if any(meta["segment"] == name for meta in metas.values()):
        return
    view = segments.pop(name, None)
    if view is not None:
        view.close()
