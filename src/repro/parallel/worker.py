"""Worker-process side of the parallel matching executors.

Both execution backends run the same pure computation —
:func:`repro.parallel.snapshot.match_span_range` over a
:class:`~repro.parallel.snapshot.PackedSnapshot` — they differ only in
how the snapshot reaches the worker:

* the **pool** backend (``ProcessPoolExecutor``) ships a pickled snapshot
  blob with every task and memoizes it per ``(channel key, epoch)`` in
  the worker process, so repeated tasks at one epoch unpickle once;
* the **shm** backend attaches ``multiprocessing.shared_memory`` segments
  written by the parent and rebuilds zero-copy array views over them,
  receiving only tiny metadata updates (epoch, row cursor, span offsets)
  when the matrix grows in place.

Everything here is a pure function of (snapshot state, publication
batch): no randomness, no clocks feeding results, no worker-local state
that outlives an epoch — the property the bit-determinism argument in
DESIGN.md rests on.  The wall-clock ``busy`` seconds returned alongside
each result feed telemetry only, never matching decisions.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .snapshot import PackedSnapshot, match_span_range

__all__ = ["pool_match_task", "shm_worker_main", "segment_layout"]


# -- ProcessPoolExecutor path -------------------------------------------------

#: Per-process snapshot memo: channel key -> (sync key, PackedSnapshot).
_POOL_CACHE: Dict[str, Tuple[Tuple[int, int], PackedSnapshot]] = {}


def pool_match_task(
    key: str,
    sync: Tuple[int, int],
    blob: Optional[bytes],
    span_lo: int,
    span_hi: int,
    batch: np.ndarray,
) -> Tuple[np.ndarray, int, float]:
    """One pool task: match ``batch`` against spans ``[span_lo, span_hi)``.

    ``blob`` is the pickled :class:`PackedSnapshot` for the ``sync``
    identity — the library's ``(instance token, epoch)`` pair, unique
    per matrix state process-wide; it is unpickled only when this worker
    process has not seen this (key, sync) yet.  Returns ``(ok, pid,
    busy_seconds)`` where ``ok`` is the ``(span_hi - span_lo, B)``
    boolean span-conjunction block.
    """
    started = time.perf_counter()
    cached = _POOL_CACHE.get(key)
    if cached is not None and cached[0] == sync:
        snapshot = cached[1]
    else:
        snapshot = pickle.loads(blob)
        _POOL_CACHE[key] = (sync, snapshot)
    ok = match_span_range(snapshot, span_lo, span_hi, batch)
    return ok, os.getpid(), time.perf_counter() - started


# -- shared-memory path -------------------------------------------------------


def segment_layout(capacity: int, width: int) -> Tuple[int, int, int]:
    """Byte offsets ``(tol_offset, strict_offset, total_bytes)``.

    One segment packs ``[matrix capacity×width f8][tol_signed capacity
    f8][strict capacity b1]``; the parent writes, workers map read-only
    views.  ``capacity`` is the row capacity of the segment, of which
    only the first ``rows`` (from the channel metadata) are live.
    """
    matrix_bytes = capacity * width * 8
    tol_bytes = capacity * 8
    return matrix_bytes, matrix_bytes + tol_bytes, matrix_bytes + tol_bytes + capacity


class _SegmentView:
    """A worker's read-only array views over one attached shm segment."""

    def __init__(self, shm, capacity: int, width: int):
        self.shm = shm
        tol_offset, strict_offset, _ = segment_layout(capacity, width)
        buffer = shm.buf
        self.matrix = np.frombuffer(
            buffer, dtype=np.float64, count=capacity * width
        ).reshape(capacity, width)
        self.tol_signed = np.frombuffer(
            buffer, dtype=np.float64, count=capacity, offset=tol_offset
        )
        self.strict = np.frombuffer(
            buffer, dtype=np.bool_, count=capacity, offset=strict_offset
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
    from multiprocessing import shared_memory, resource_tracker

    shm = shared_memory.SharedMemory(name=name)
    # Attaching registers the segment with this process's resource
    # tracker (fixed only in newer Pythons); unregister so the *parent*
    # stays the sole owner of unlinking and workers exiting do not
    # destroy segments still in use.
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass
    return _SegmentView(shm, capacity, width)


def shm_worker_main(conn, worker_index: int) -> None:
    """Worker loop of the shared-memory backend.

    Speaks a tiny tagged-tuple protocol over its duplex pipe:

    * ``("sync", key, meta)`` — install channel metadata.  ``meta`` maps
      ``segment``/``capacity``/``width`` (attach target), ``epoch``,
      ``rows`` (live-row cursor) and ``starts``/``stops`` (sorted span
      offsets).  Attaches the segment on first sight; a changed segment
      name detaches the old one.
    * ``("task", task_id, key, span_lo, span_hi, batch)`` — evaluate and
      reply ``("result", task_id, ok, busy_seconds)`` with the
      ``(span_hi - span_lo, B)`` block ``ok``.
    * ``("close", key)`` — forget a channel (detach its segment if no
      other channel uses it).
    * ``("stop",)`` — exit.

    Errors are reported as ``("error", task_id, repr)`` so the parent can
    fail just the affected future instead of losing the worker.
    """
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
        rows = meta["rows"]
        snapshot = PackedSnapshot(
            epoch=meta["epoch"],
            generation=meta["generation"],
            rows=rows,
            width=meta["width"],
            matrix=view.matrix[:rows],
            strict=view.strict[:rows],
            tol_signed=view.tol_signed[:rows],
            starts=meta["starts"],
            stops=meta["stops"],
        )
        ok = match_span_range(snapshot, span_lo, span_hi, batch)
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
