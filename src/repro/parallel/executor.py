"""Pluggable matching-execution backends for M-operator slices.

The DES kernel is single-threaded, so concurrent M slices never overlap
on hardware even though the simulated timeline says they do.  This module
closes that gap: a :class:`MatchExecutor` owns a pool of worker
processes, M slices open one :class:`MatchChannel` each, and every
coalesced publication batch is *submitted* at dequeue time (the engine's
``prepare_batch`` hook) and *collected* at the slice's already-scheduled
virtual completion time (inside ``process``/``process_batch``).  Workers
are pure functions of (packed matrix epoch, publication batch) — see
``repro.parallel.worker`` — so serial and parallel runs produce
byte-identical notifications; only wall-clock changes.

Two real backends, one calibration baseline:

* :class:`ProcessPoolMatchExecutor` (``pool``) — stdlib
  ``ProcessPoolExecutor``; the packed snapshot is pickled once per epoch
  parent-side but shipped with every task (stdlib pools cannot target
  workers), with a per-(channel, epoch) unpickle memo worker-side.
* :class:`SharedMemoryMatchExecutor` (``shm``) — dedicated worker
  processes over duplex pipes; the packed matrix lives in a
  ``multiprocessing.shared_memory`` segment written by the parent, and
  within a matrix generation only *appended rows* are copied (dirty-row
  delta) — steady-state tasks ship just the publication batch.
* :class:`InlineMatchExecutor` (``inline``) — same snapshot/chunk/merge
  pipeline, executed synchronously in-process; the equivalence baseline
  for tests and the ``workers=0`` benchmark point.

Batches are split across workers at span boundaries into contiguous
row-range chunks (see :func:`plan_chunks`); chunk results are merged
parent-side into exactly the match lists the inline path computes.
"""

from __future__ import annotations

import atexit
import itertools
import pickle
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..filtering import PackedMatrixView
from ..filtering.aspe import match_lists
from .snapshot import PackedSnapshot, encode_batch, match_span_range
from .worker import pool_match_task, segment_layout, shm_worker_main

__all__ = [
    "BACKENDS",
    "InlineMatchExecutor",
    "MatchChannel",
    "MatchExecutor",
    "MatchFuture",
    "ProcessPoolMatchExecutor",
    "SharedMemoryMatchExecutor",
    "available_backends",
    "create_executor",
    "plan_chunks",
    "resolve_backend",
    "shared_executor",
]

#: Recognized backend names (``auto`` resolves to one of the others).
BACKENDS = ("auto", "inline", "pool", "shm")


def _mp_context():
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context("spawn")


def _shm_available() -> bool:
    import os

    if os.name != "posix":
        # The unlink-after-replace segment rotation relies on POSIX
        # keep-mapping-after-unlink semantics.
        return False
    try:
        import multiprocessing.shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - stdlib always has it >= 3.8
        return False
    return True


def available_backends() -> Tuple[str, ...]:
    """Backends usable on this platform (always includes ``pool``)."""
    names = ["inline", "pool"]
    if _shm_available():
        names.append("shm")
    return tuple(names)


def resolve_backend(backend: str) -> str:
    """Resolve ``auto`` and validate explicit backend names."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown match backend {backend!r}; choose from {BACKENDS}"
        )
    if backend == "auto":
        return "shm" if _shm_available() else "pool"
    if backend == "shm" and not _shm_available():
        raise ValueError("shm match backend is not available on this platform")
    return backend


def plan_chunks(
    starts: np.ndarray, stops: np.ndarray, workers: int, chunk_rows: int
) -> List[Tuple[int, int]]:
    """Split the sorted span list into contiguous row-range chunks.

    Cuts only at span boundaries (a subscription's conjunction never
    straddles workers) and targets ``max(chunk_rows, ceil(total_rows /
    workers))`` rows per chunk, so small matrices are not shredded into
    per-task overhead and large ones produce at most ~``workers`` chunks.
    """
    spans = int(starts.size)
    total_rows = int(stops[-1]) - int(starts[0])
    target = max(chunk_rows, -(-total_rows // max(workers, 1)))
    chunks: List[Tuple[int, int]] = []
    lo = 0
    while lo < spans:
        hi = lo + 1
        row_lo = int(starts[lo])
        while hi < spans and int(stops[hi - 1]) - row_lo < target:
            hi += 1
        chunks.append((lo, hi))
        lo = hi
    return chunks


class MatchFuture:
    """Handle for one in-flight ``match_batch``; merges chunk results.

    ``result()`` blocks (wall-clock only — the simulation clock is not
    involved) until every chunk future resolved, then stacks the chunks'
    ``(spans, B)`` blocks in span order and assembles the exact
    per-publication id lists the inline path computes, through the same
    :func:`~repro.filtering.aspe.match_lists` (``positions`` is ``None``
    when span ``j`` is ``ids[j]``).
    """

    def __init__(
        self,
        executor: Optional["MatchExecutor"],
        ids: Sequence[int],
        positions: Optional[np.ndarray],
        chunks: Sequence[Future],
        value: Optional[List[List[int]]] = None,
    ):
        self._executor = executor
        self._ids = ids
        self._positions = positions
        self._chunks = chunks
        self._value = value
        self._done = value is not None

    def result(self) -> List[List[int]]:
        if self._done:
            return self._value
        blocks = []
        for future in self._chunks:
            ok, worker, busy = future.result()
            if self._executor is not None:
                self._executor._record_busy(str(worker), busy)
            blocks.append(ok)
        self._value = match_lists(
            np.concatenate(blocks), self._ids, self._positions
        )
        self._done = True
        if self._executor is not None:
            self._executor._batch_resolved(len(self._chunks))
        self._chunks = ()
        return self._value

    def cancel(self) -> None:
        """Drop an uncollected batch (slice teardown/migration drain).

        Chunk tasks already running are not interrupted — their results
        are simply discarded — but the executor's queue accounting is
        settled so gauges do not drift.
        """
        if self._done:
            return
        self._done = True
        self._value = []
        for future in self._chunks:
            future.cancel()
        if self._executor is not None:
            self._executor._batch_resolved(len(self._chunks))
        self._chunks = ()


class MatchChannel:
    """One M slice's lane into an executor.

    Channels isolate per-slice matrix synchronization state: each channel
    tracks which workers have seen which matrix epoch and ships deltas or
    full resyncs accordingly.  A fresh handler (slice migration builds new
    handlers from the factory) opens a fresh channel and naturally
    triggers a resync on its first submit.
    """

    def __init__(self, executor: "MatchExecutor", key: str):
        self.executor = executor
        self.key = key
        self.closed = False

    def submit(self, library, payloads: Sequence[Any]) -> MatchFuture:
        """Snapshot ``library`` and dispatch ``payloads`` to the workers.

        Must be called while the slice's read lock is held (the engine's
        ``prepare_batch`` hook), so the packed view is stable for the
        duration of the copy-out.
        """
        if self.closed:
            raise RuntimeError(f"match channel {self.key!r} is closed")
        if not payloads:
            return MatchFuture(None, [], None, (), value=[])
        batch = encode_batch(payloads)
        view: PackedMatrixView = library.packed_view()
        if not view.ids:
            return MatchFuture(None, [], None, (), value=[[] for _ in payloads])
        if view.span_count == 0:
            # Only vacuously-true (empty) subscriptions are stored.
            return MatchFuture(
                None, [], None, (), value=[list(view.ids) for _ in payloads]
            )
        chunks = plan_chunks(
            view.starts, view.stops, self.executor.workers, self.executor.chunk_rows
        )
        futures = self._dispatch(view, chunks, batch)
        self.executor._batch_submitted(len(futures))
        return MatchFuture(
            self.executor,
            view.ids,
            None if view.dense else view.positions,
            futures,
        )

    def _dispatch(
        self,
        view: PackedMatrixView,
        chunks: List[Tuple[int, int]],
        batch: np.ndarray,
    ) -> List[Future]:
        raise NotImplementedError

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.executor._channel_closed(self)


class MatchExecutor:
    """Base: worker accounting, telemetry, the shared channel registry."""

    backend_name = "abstract"

    def __init__(self, workers: int, chunk_rows: int = 4096):
        if workers < 0:
            raise ValueError(f"match workers must be >= 0, got {workers}")
        if chunk_rows < 1:
            raise ValueError(f"match chunk rows must be >= 1, got {chunk_rows}")
        self.workers = workers
        self.chunk_rows = chunk_rows
        self._telemetry = None
        self._channels: Dict[str, MatchChannel] = {}
        self._channel_seq = itertools.count()
        self._inflight_batches = 0
        self._queued_tasks = 0
        self._busy_lock = threading.Lock()
        self._busy_seconds: Dict[str, float] = {}
        self._started_at = time.monotonic()
        self._shutdown = False
        #: Full matrix re-ships (new segment / new snapshot blob).
        self.resync_count = 0
        #: Dirty-row delta copies (shm backend only).
        self.delta_count = 0

    # -- channels -------------------------------------------------------------

    def open_channel(self, name: str) -> MatchChannel:
        """A fresh channel; ``name`` is decorated to stay globally unique
        (migrated slices build new handlers that must not alias the old
        channel's sync state)."""
        key = f"{name}#{next(self._channel_seq)}"
        channel = self._make_channel(key)
        self._channels[key] = channel
        return channel

    def _make_channel(self, key: str) -> MatchChannel:
        raise NotImplementedError

    def _channel_closed(self, channel: MatchChannel) -> None:
        self._channels.pop(channel.key, None)

    # -- lifecycle ------------------------------------------------------------

    def shutdown(self) -> None:
        """Drain and stop the pool; idempotent."""
        if self._shutdown:
            return
        self._shutdown = True
        for channel in list(self._channels.values()):
            channel.close()
        self._stop_workers()

    def _stop_workers(self) -> None:
        pass

    # -- telemetry ------------------------------------------------------------

    def bind_telemetry(self, telemetry) -> None:
        """Attach a :class:`repro.telemetry.Telemetry` bundle (or None)."""
        self._telemetry = telemetry
        self._push_gauges()

    def _batch_submitted(self, tasks: int) -> None:
        self._inflight_batches += 1
        self._queued_tasks += tasks
        self._push_gauges()

    def _batch_resolved(self, tasks: int) -> None:
        self._inflight_batches -= 1
        self._queued_tasks -= tasks
        self._push_gauges()

    def _count_resync(self) -> None:
        self.resync_count += 1
        t = self._telemetry
        if t is not None and getattr(t, "match_matrix_resyncs", None) is not None:
            t.match_matrix_resyncs.inc()

    def _record_busy(self, worker: str, busy: float) -> None:
        with self._busy_lock:
            total = self._busy_seconds.get(worker, 0.0) + busy
            self._busy_seconds[worker] = total
        t = self._telemetry
        if t is not None and t.match_worker_busy_fraction is not None:
            elapsed = time.monotonic() - self._started_at
            if elapsed > 0.0:
                t.match_worker_busy_fraction.labels(worker=worker).set(
                    total / elapsed
                )

    def _push_gauges(self) -> None:
        t = self._telemetry
        if t is None or getattr(t, "match_pool_inflight_batches", None) is None:
            return
        t.match_pool_inflight_batches.set(self._inflight_batches)
        t.match_pool_queued_tasks.set(self._queued_tasks)


# -- inline (workers=0 baseline) ----------------------------------------------


class _InlineChannel(MatchChannel):
    def _dispatch(self, view, chunks, batch):
        snapshot = PackedSnapshot.from_view(view)
        futures = []
        for lo, hi in chunks:
            started = time.perf_counter()
            ok = match_span_range(snapshot, lo, hi, batch)
            future: Future = Future()
            future.set_result((ok, "inline", time.perf_counter() - started))
            futures.append(future)
        return futures


class InlineMatchExecutor(MatchExecutor):
    """Synchronous in-process execution of the parallel pipeline.

    Runs the identical snapshot → chunk → merge path with zero processes;
    the ``workers=0`` benchmark point and the equivalence baseline in
    tests.  ``workers`` only shapes chunk planning (default 1 chunk).
    """

    backend_name = "inline"

    def __init__(self, workers: int = 0, chunk_rows: int = 4096):
        super().__init__(max(workers, 0), chunk_rows)

    def _make_channel(self, key: str) -> MatchChannel:
        return _InlineChannel(self, key)


# -- ProcessPoolExecutor backend ----------------------------------------------


class _PoolChannel(MatchChannel):
    def __init__(self, executor: "ProcessPoolMatchExecutor", key: str):
        super().__init__(executor, key)
        self._blob: Optional[bytes] = None
        self._blob_sync: Optional[Tuple[int, int]] = None

    def _dispatch(self, view, chunks, batch):
        executor: ProcessPoolMatchExecutor = self.executor
        pool = executor._ensure_started()
        # Epochs are per-library counters: the sync identity must include
        # the instance token or a different library reaching an equal
        # epoch (export/import clones) would reuse a stale snapshot.
        sync = (view.token, view.epoch)
        if self._blob_sync != sync:
            self._blob = pickle.dumps(
                PackedSnapshot.from_view(view), protocol=pickle.HIGHEST_PROTOCOL
            )
            self._blob_sync = sync
            executor._count_resync()
        return [
            pool.submit(
                pool_match_task, self.key, sync, self._blob, lo, hi, batch
            )
            for lo, hi in chunks
        ]


class ProcessPoolMatchExecutor(MatchExecutor):
    """``ProcessPoolExecutor`` backend: snapshot blob shipped per task.

    Correct and portable, but every task carries the full pickled matrix
    (stdlib pools cannot address individual workers); the worker-side
    per-epoch unpickle memo only saves deserialization, not transfer.
    The shm backend exists because of exactly this cost.
    """

    backend_name = "pool"

    def __init__(self, workers: int, chunk_rows: int = 4096):
        if workers < 1:
            raise ValueError(f"pool backend needs >= 1 worker, got {workers}")
        super().__init__(workers, chunk_rows)
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_started(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=_mp_context()
            )
        return self._pool

    def _make_channel(self, key: str) -> MatchChannel:
        return _PoolChannel(self, key)

    def _stop_workers(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


# -- shared-memory backend ----------------------------------------------------


class _ShmChannel(MatchChannel):
    """Channel state of the shm backend: one segment + per-worker sync."""

    def __init__(self, executor: "SharedMemoryMatchExecutor", key: str):
        super().__init__(executor, key)
        self._shm = None
        self._capacity = 0
        self._width = 0
        self._token: Optional[int] = None
        self._generation: Optional[int] = None
        self._epoch: Optional[int] = None
        self._written_rows = 0
        self._meta: Optional[Dict[str, Any]] = None
        #: worker index -> last (token, epoch) that worker's metadata
        #: reflects (tokens disambiguate different library instances
        #: whose per-instance epoch counters collide).
        self._synced: Dict[int, Tuple[int, int]] = {}

    def _dispatch(self, view, chunks, batch):
        executor: SharedMemoryMatchExecutor = self.executor
        executor._ensure_started()
        self._sync_segment(view)
        sync = (view.token, view.epoch)
        futures = []
        for lo, hi in chunks:
            worker = executor._next_worker()
            if self._synced.get(worker) != sync:
                executor._send(worker, ("sync", self.key, self._meta))
                self._synced[worker] = sync
            futures.append(
                executor._submit_task(worker, self.key, lo, hi, batch)
            )
        return futures

    def _copy_rows(self, view: PackedMatrixView, lo: int, hi: int) -> None:
        """Copy the library's rows ``[lo, hi)`` into the segment — only the
        store chunks that hold them are read."""
        capacity, width = self._capacity, self._width
        tol_offset, strict_offset, _ = segment_layout(capacity, width)
        buffer = self._shm.buf
        matrix = np.frombuffer(
            buffer, dtype=np.float64, count=capacity * width
        ).reshape(capacity, width)
        tol = np.frombuffer(
            buffer, dtype=np.float64, count=capacity, offset=tol_offset
        )
        strict = np.frombuffer(
            buffer, dtype=np.bool_, count=capacity, offset=strict_offset
        )
        view.copy_rows(
            lo, hi, matrix=matrix[lo:hi], strict=strict[lo:hi],
            tol_signed=tol[lo:hi],
        )
        self._written_rows = hi

    def _sync_segment(self, view: PackedMatrixView) -> None:
        from multiprocessing import shared_memory

        rows, width = view.rows, view.width
        fresh = (
            self._shm is None
            or view.token != self._token
            or view.generation != self._generation
            or width != self._width
            or rows > self._capacity
        )
        if fresh:
            capacity = max(64, 2 * rows)
            _, _, total = segment_layout(capacity, width)
            segment = shared_memory.SharedMemory(create=True, size=max(total, 1))
            old = self._shm
            self._shm = segment
            self._capacity = capacity
            self._width = width
            self._copy_rows(view, 0, rows)
            self._token = view.token
            self._generation = view.generation
            self._synced = {}
            self.executor._count_resync()
            if old is not None:
                # Unlink immediately: POSIX keeps existing worker mappings
                # alive until they detach on their next sync.
                old.close()
                old.unlink()
        elif view.epoch != self._epoch:
            if rows > self._written_rows:
                self._copy_rows(view, self._written_rows, rows)
                self.executor.delta_count += 1
            # Span offsets changed (store/remove): every worker needs
            # fresh metadata even when no rows moved.
            self._synced = {}
        if view.epoch != self._epoch or fresh:
            self._epoch = view.epoch
            self._meta = {
                "segment": self._shm.name,
                "capacity": self._capacity,
                "width": self._width,
                "epoch": view.epoch,
                "generation": view.generation,
                "rows": rows,
                "starts": view.starts.copy(),
                "stops": view.stops.copy(),
            }

    def close(self) -> None:
        if self.closed:
            return
        super().close()
        executor: SharedMemoryMatchExecutor = self.executor
        for worker in list(self._synced):
            executor._send(worker, ("close", self.key), best_effort=True)
        if self._shm is not None:
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._shm = None


class SharedMemoryMatchExecutor(MatchExecutor):
    """Dedicated worker processes + shared-memory matrix segments.

    The zero-copy path: the packed matrix crosses the process boundary
    through shm segments (full copy only on generation change or growth
    past capacity; appended-row deltas otherwise), and steady-state tasks
    ship just the publication batch over the worker's pipe.  Results come
    back on per-worker collector threads that resolve
    ``concurrent.futures.Future`` objects; a dead worker fails its
    pending futures instead of hanging the run.
    """

    backend_name = "shm"

    def __init__(self, workers: int, chunk_rows: int = 4096):
        if workers < 1:
            raise ValueError(f"shm backend needs >= 1 worker, got {workers}")
        super().__init__(workers, chunk_rows)
        self._processes: List = []
        self._pipes: List = []
        self._collectors: List[threading.Thread] = []
        self._pending: List[Dict[int, Future]] = []
        self._pending_lock = threading.Lock()
        self._task_seq = itertools.count()
        self._rr = 0
        self._started = False

    # -- pool lifecycle -------------------------------------------------------

    def _ensure_started(self) -> None:
        if self._started:
            return
        context = _mp_context()
        for index in range(self.workers):
            parent_end, child_end = context.Pipe(duplex=True)
            process = context.Process(
                target=shm_worker_main,
                args=(child_end, index),
                name=f"repro-match-{index}",
                daemon=True,
            )
            process.start()
            child_end.close()
            self._processes.append(process)
            self._pipes.append(parent_end)
            self._pending.append({})
            collector = threading.Thread(
                target=self._collect, args=(index,), daemon=True
            )
            collector.start()
            self._collectors.append(collector)
        self._started = True

    def _next_worker(self) -> int:
        worker = self._rr
        self._rr = (self._rr + 1) % self.workers
        return worker

    def _send(self, worker: int, message, best_effort: bool = False) -> None:
        try:
            self._pipes[worker].send(message)
        except (OSError, ValueError, BrokenPipeError):
            if not best_effort:
                raise RuntimeError(
                    f"match worker {worker} is gone (pipe closed)"
                )

    def _submit_task(
        self, worker: int, key: str, span_lo: int, span_hi: int, batch
    ) -> Future:
        task_id = next(self._task_seq)
        future: Future = Future()
        with self._pending_lock:
            self._pending[worker][task_id] = future
        try:
            self._send(worker, ("task", task_id, key, span_lo, span_hi, batch))
        except RuntimeError:
            with self._pending_lock:
                self._pending[worker].pop(task_id, None)
            raise
        return future

    def _collect(self, worker: int) -> None:
        pipe = self._pipes[worker]
        label = str(worker)
        while True:
            try:
                message = pipe.recv()
            except (EOFError, OSError):
                self._fail_pending(worker)
                return
            tag = message[0]
            if tag == "result":
                _, task_id, ok, busy = message
                with self._pending_lock:
                    future = self._pending[worker].pop(task_id, None)
                if future is not None:
                    try:
                        future.set_result((ok, label, busy))
                    except Exception:  # cancelled concurrently: discard
                        pass
            elif tag == "error":
                _, task_id, detail = message
                with self._pending_lock:
                    future = self._pending[worker].pop(task_id, None)
                if future is not None:
                    try:
                        future.set_exception(
                            RuntimeError(f"match worker {worker}: {detail}")
                        )
                    except Exception:  # cancelled concurrently: discard
                        pass

    def _fail_pending(self, worker: int) -> None:
        with self._pending_lock:
            pending = list(self._pending[worker].values())
            self._pending[worker].clear()
        for future in pending:
            try:
                future.set_exception(RuntimeError(f"match worker {worker} died"))
            except Exception:  # cancelled concurrently: discard
                pass

    def _make_channel(self, key: str) -> MatchChannel:
        return _ShmChannel(self, key)

    def _stop_workers(self) -> None:
        if not self._started:
            return
        for worker in range(self.workers):
            self._send(worker, ("stop",), best_effort=True)
        for process in self._processes:
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=1.0)
        for pipe in self._pipes:
            try:
                pipe.close()
            except OSError:  # pragma: no cover
                pass
        for worker in range(len(self._pending)):
            self._fail_pending(worker)
        self._processes = []
        self._pipes = []
        self._collectors = []
        self._started = False


# -- construction -------------------------------------------------------------


def create_executor(
    workers: int, backend: str = "auto", chunk_rows: int = 4096
) -> MatchExecutor:
    """Build an executor for ``workers`` processes (0 → inline)."""
    if workers < 0:
        raise ValueError(f"match workers must be >= 0, got {workers}")
    if chunk_rows < 1:
        raise ValueError(f"match chunk rows must be >= 1, got {chunk_rows}")
    if workers == 0 or backend == "inline":
        return InlineMatchExecutor(workers, chunk_rows)
    resolved = resolve_backend(backend)
    if resolved == "shm":
        return SharedMemoryMatchExecutor(workers, chunk_rows)
    return ProcessPoolMatchExecutor(workers, chunk_rows)


#: Process-wide executor registry keyed by (workers, backend, chunk_rows):
#: every hub with the same knobs shares one pool (a test suite running
#: with ``REPRO_MATCH_WORKERS=4`` must not fork 4 workers per hub).
_SHARED: Dict[Tuple[int, str, int], MatchExecutor] = {}
_SHARED_LOCK = threading.Lock()


def shared_executor(
    workers: int, backend: str = "auto", chunk_rows: int = 4096
) -> MatchExecutor:
    """The shared executor for these knobs, created on first use."""
    resolved = "inline" if workers == 0 or backend == "inline" else resolve_backend(backend)
    key = (workers, resolved, chunk_rows)
    with _SHARED_LOCK:
        executor = _SHARED.get(key)
        if executor is None:
            executor = create_executor(workers, resolved, chunk_rows)
            _SHARED[key] = executor
        return executor


@atexit.register
def _shutdown_shared() -> None:  # pragma: no cover - interpreter teardown
    with _SHARED_LOCK:
        executors = list(_SHARED.values())
        _SHARED.clear()
    for executor in executors:
        try:
            executor.shutdown()
        except Exception:
            pass
