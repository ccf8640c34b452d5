"""The parallel matcher: shared-memory worker processes for M slices.

The DES kernel is single-threaded, so concurrent M slices never overlap
on hardware even though the simulated timeline says they do.  This module
closes that gap: a :class:`MatchExecutor` owns dedicated worker processes
over duplex pipes, M slices open one :class:`MatchChannel` each, and
every coalesced publication batch is *submitted* at dequeue time (the
engine's ``prepare_batch`` hook) and *collected* at the slice's
already-scheduled virtual completion time (inside ``process``/
``process_batch``).  Workers are pure functions of (packed matrix state,
publication batch) — see ``repro.parallel.worker`` — so serial and
parallel runs produce byte-identical notifications; only wall-clock
changes.

A channel's packed matrix lives in a ``multiprocessing.shared_memory``
segment written by the parent; within a matrix generation only *appended
rows* are copied (dirty-row delta), so steady-state tasks ship just the
publication batch.  Batches are split across workers at span boundaries
into contiguous row-range chunks (see :func:`plan_chunks`); chunk results
are merged parent-side into exactly the match lists
``library.match_batch`` computes.
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import os
import threading
import time
from concurrent.futures import Future
from multiprocessing import get_context, resource_tracker, shared_memory
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..filtering import PackedMatrixView
from ..filtering.aspe import EncryptedPublication, match_lists
from .worker import segment_arrays, segment_layout, worker_main

__all__ = [
    "MatchChannel",
    "MatchExecutor",
    "MatchFuture",
    "MatchWorkerLost",
    "create_executor",
    "encode_batch",
    "plan_chunks",
    "shared_executor",
]


class MatchWorkerLost(RuntimeError):
    """A worker process died; the chunks it held will never be answered.

    Raised by :meth:`MatchChannel.submit` and :meth:`MatchFuture.result`.
    The caller still holds the library in the state it submitted (the
    batch's read lock), so matching that batch inline is correct; the
    executor replaces the process on its next dispatch.
    """


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
    when span ``j`` is ``ids[j]``).  A ``value`` given at construction is
    the whole answer (batches that need no worker).
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
        self._value = [] if value is None else value
        self._done = value is not None

    def _settle(self) -> Sequence[Future]:
        """Mark the batch done and hand back its chunk futures."""
        self._done = True
        chunks, self._chunks = self._chunks, ()
        return chunks

    def result(self) -> List[List[int]]:
        if self._done:
            return self._value
        chunks = self._settle()
        try:
            blocks = []
            for future in chunks:
                ok, worker, busy = future.result()
                self._executor._record_busy(worker, busy)
                blocks.append(ok)
        finally:
            # Also when a chunk raises (MatchWorkerLost): the batch is
            # over for the gauges either way.
            self._executor._batch_resolved(len(chunks))
        self._value = match_lists(
            np.concatenate(blocks), self._ids, self._positions
        )
        return self._value

    def cancel(self) -> None:
        """Drop an uncollected batch (slice teardown/migration drain).

        Chunk tasks already running are not interrupted — their results
        are simply discarded — but the executor's queue accounting is
        settled so gauges do not drift.
        """
        if self._done:
            return
        chunks = self._settle()
        for future in chunks:
            future.cancel()
        self._executor._batch_resolved(len(chunks))


class MatchChannel:
    """One M slice's lane into the executor: one segment + per-worker sync.

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
        self._shm: Optional[shared_memory.SharedMemory] = None
        self._capacity = 0
        self._width = 0
        self._token: Optional[int] = None
        self._generation: Optional[int] = None
        self._epoch: Optional[int] = None
        self._written_rows = 0
        self._meta: Optional[Dict[str, Any]] = None
        #: worker index -> last (token, epoch) that worker's metadata
        #: reflects (tokens disambiguate different library instances
        #: whose per-instance epoch counters collide).  The executor
        #: drops an index when it replaces that worker's process.
        self._synced: Dict[int, Tuple[int, int]] = {}

    def submit(self, library, payloads: Sequence[Any]) -> MatchFuture:
        """Snapshot ``library`` and dispatch ``payloads`` to the workers.

        Must be called while the slice's read lock is held (the engine's
        ``prepare_batch`` hook), so the packed view is stable for the
        duration of the copy-out.  Raises :class:`MatchWorkerLost` when a
        worker turns out to be dead; chunks already sent to the others
        are answered and dropped.
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
        executor = self.executor
        chunks = plan_chunks(
            view.starts, view.stops, executor.workers, executor.chunk_rows
        )
        executor._ensure_workers()
        self._sync_segment(view)
        sync = (view.token, view.epoch)
        futures = []
        for lo, hi in chunks:
            worker = executor._next_worker()
            if self._synced.get(worker) != sync:
                executor._send(worker, ("sync", self.key, self._meta))
                self._synced[worker] = sync
            futures.append(executor._submit_task(worker, self.key, lo, hi, batch))
        executor._batch_submitted(len(futures))
        return MatchFuture(
            executor,
            view.ids,
            None if view.dense else view.positions,
            futures,
        )

    def _copy_rows(self, view: PackedMatrixView, lo: int, hi: int) -> None:
        """Copy the library's rows ``[lo, hi)`` into the segment — only the
        store chunks that hold them are read."""
        matrix, strict, tol_signed = segment_arrays(
            self._shm.buf, self._capacity, self._width
        )
        view.copy_rows(
            lo, hi, matrix=matrix[lo:hi], strict=strict[lo:hi],
            tol_signed=tol_signed[lo:hi],
        )
        self._written_rows = hi

    def _sync_segment(self, view: PackedMatrixView) -> None:
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
                "starts": view.starts.copy(),
                "stops": view.stops.copy(),
            }

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        executor = self.executor
        executor._channels.pop(self.key, None)
        for worker in self._synced:
            with contextlib.suppress(MatchWorkerLost):
                executor._send(worker, ("close", self.key))
        if self._shm is not None:
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._shm = None


class _Worker:
    """One worker process with its pipe, reply thread and open tasks."""

    __slots__ = ("process", "pipe", "collector", "pending", "started_at", "busy_s")

    def __init__(self, process, pipe):
        self.process = process
        self.pipe = pipe
        self.collector: Optional[threading.Thread] = None
        #: task id -> future, for tasks sent and not yet answered.
        self.pending: Dict[int, Future] = {}
        self.started_at = time.monotonic()
        self.busy_s = 0.0


class MatchExecutor:
    """Dedicated worker processes + shared-memory matrix segments.

    The packed matrix crosses the process boundary through shm segments
    (full copy only on generation change or growth past capacity;
    appended-row deltas otherwise), and steady-state tasks ship just the
    publication batch over the worker's pipe.  Results come back on
    per-worker collector threads that resolve
    ``concurrent.futures.Future`` objects.  Workers start on the first
    dispatch; a worker found dead fails its open futures with
    :class:`MatchWorkerLost` and is replaced on the next dispatch.

    ``chunk_rows`` is the minimum packed-matrix rows per worker chunk; it
    keeps small matrices from being shredded into per-task overhead.
    """

    def __init__(self, workers: int, chunk_rows: int = 4096):
        if workers < 1:
            raise ValueError(f"match workers must be >= 1, got {workers}")
        if chunk_rows < 1:
            raise ValueError(f"match chunk rows must be >= 1, got {chunk_rows}")
        if os.name != "posix":
            # Replacing a segment unlinks it while workers still map it,
            # which only POSIX allows.
            raise ValueError("parallel matching needs POSIX shared memory")
        self.workers = workers
        self.chunk_rows = chunk_rows
        self._telemetry = None
        self._channels: Dict[str, MatchChannel] = {}
        self._channel_seq = itertools.count()
        self._inflight_batches = 0
        self._queued_tasks = 0
        self._workers: List[Optional[_Worker]] = [None] * workers
        self._pending_lock = threading.Lock()
        self._task_seq = itertools.count()
        self._rr = 0
        self._shutdown = False
        #: Full matrix re-ships (a new segment).
        self.resync_count = 0
        #: Dirty-row delta copies.
        self.delta_count = 0

    # -- channels -------------------------------------------------------------

    def open_channel(self, name: str) -> MatchChannel:
        """A fresh channel; ``name`` is decorated to stay globally unique
        (migrated slices build new handlers that must not alias the old
        channel's sync state)."""
        if self._shutdown:
            raise RuntimeError("match executor is shut down")
        key = f"{name}#{next(self._channel_seq)}"
        channel = MatchChannel(self, key)
        self._channels[key] = channel
        return channel

    # -- worker lifecycle -----------------------------------------------------

    def _ensure_workers(self) -> None:
        """Start every worker that is not running: all of them on the
        first dispatch, afterwards any whose process has died."""
        for index, worker in enumerate(self._workers):
            if worker is None or not worker.process.is_alive():
                self._start_worker(index)

    def _start_worker(self, index: int) -> None:
        old = self._workers[index]
        if old is not None:
            # The dead process's end of the pipe is closed, so its
            # collector sees EOF, fails what was open and returns.
            old.collector.join()
            old.pipe.close()
        # Workers must inherit this process's resource tracker: one that
        # started its own would unlink every segment it had attached when
        # it exits, under the parent's feet.
        resource_tracker.ensure_running()
        context = get_context("fork")
        parent_end, child_end = context.Pipe(duplex=True)
        process = context.Process(
            target=worker_main,
            args=(child_end, parent_end),
            name=f"repro-match-{index}",
            daemon=True,
        )
        process.start()
        child_end.close()
        worker = self._workers[index] = _Worker(process, parent_end)
        worker.collector = threading.Thread(
            target=self._collect, args=(index, worker), daemon=True
        )
        worker.collector.start()
        # The newcomer has attached nothing: sync it before its first task.
        for channel in self._channels.values():
            channel._synced.pop(index, None)

    def _next_worker(self) -> int:
        worker = self._rr
        self._rr = (self._rr + 1) % self.workers
        return worker

    def _send(self, index: int, message) -> None:
        try:
            self._workers[index].pipe.send(message)
        except OSError:
            raise MatchWorkerLost(
                f"match worker {index} is gone (pipe closed)"
            ) from None

    def _submit_task(
        self, index: int, key: str, span_lo: int, span_hi: int, batch
    ) -> Future:
        task_id = next(self._task_seq)
        future: Future = Future()
        pending = self._workers[index].pending
        with self._pending_lock:
            pending[task_id] = future
        try:
            self._send(index, ("task", task_id, key, span_lo, span_hi, batch))
        except MatchWorkerLost:
            with self._pending_lock:
                pending.pop(task_id, None)
            raise
        return future

    def _collect(self, index: int, worker: _Worker) -> None:
        # ``worker`` is this incarnation only: a replacement at the index
        # has its own thread and its own ``pending``.
        while True:
            try:
                message = worker.pipe.recv()
            except (EOFError, OSError):
                self._fail_pending(index, worker)
                return
            tag, task_id = message[0], message[1]
            with self._pending_lock:
                future = worker.pending.pop(task_id, None)
            if future is None:
                continue
            try:
                if tag == "result":
                    future.set_result((message[2], index, message[3]))
                else:
                    future.set_exception(
                        RuntimeError(f"match worker {index}: {message[2]}")
                    )
            except Exception:  # cancelled concurrently: discard
                pass

    def _fail_pending(self, index: int, worker: _Worker) -> None:
        with self._pending_lock:
            pending = list(worker.pending.values())
            worker.pending.clear()
        for future in pending:
            try:
                future.set_exception(
                    MatchWorkerLost(f"match worker {index} died")
                )
            except Exception:  # cancelled concurrently: discard
                pass

    def shutdown(self) -> None:
        """Close every channel and stop the workers; idempotent."""
        if self._shutdown:
            return
        self._shutdown = True
        for channel in list(self._channels.values()):
            channel.close()
        workers = [worker for worker in self._workers if worker is not None]
        for worker in workers:
            with contextlib.suppress(OSError):
                worker.pipe.send(("stop",))
        for worker in workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                # Nothing to lose: segments are the parent's to unlink.
                worker.process.kill()
                worker.process.join()
            worker.collector.join()
            worker.pipe.close()

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

    def _record_busy(self, index: int, busy: float) -> None:
        worker = self._workers[index]
        worker.busy_s += busy
        t = self._telemetry
        if t is not None and t.match_worker_busy_fraction is not None:
            elapsed = time.monotonic() - worker.started_at
            if elapsed > 0.0:
                t.match_worker_busy_fraction.labels(worker=str(index)).set(
                    worker.busy_s / elapsed
                )

    def _push_gauges(self) -> None:
        t = self._telemetry
        if t is None or getattr(t, "match_pool_inflight_batches", None) is None:
            return
        t.match_pool_inflight_batches.set(self._inflight_batches)
        t.match_pool_queued_tasks.set(self._queued_tasks)


# -- construction -------------------------------------------------------------


def create_executor(workers: int, chunk_rows: int = 4096) -> MatchExecutor:
    """A dedicated executor with ``workers >= 1`` processes (started on
    first use); the caller owns its :meth:`~MatchExecutor.shutdown`."""
    return MatchExecutor(workers, chunk_rows)


#: Process-wide executors by worker count: every hub asking for the same
#: count shares one set of processes (a test suite running with
#: ``REPRO_MATCH_WORKERS=4`` must not fork 4 workers per hub).
_SHARED: Dict[int, MatchExecutor] = {}
_SHARED_LOCK = threading.Lock()


def shared_executor(workers: int) -> MatchExecutor:
    """The shared executor for ``workers`` processes, created on first use."""
    with _SHARED_LOCK:
        executor = _SHARED.get(workers)
        if executor is None:
            executor = _SHARED[workers] = MatchExecutor(workers)
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
