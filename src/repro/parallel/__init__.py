"""Parallel matching execution: real cores under a deterministic DES.

The paper's M operator is the engine's CPU bottleneck, and the discrete
event simulation runs on one thread — so until this package, concurrent
M slices only *pretended* to overlap.  ``repro.parallel`` dispatches the
slices' ``match_batch`` work to worker processes that read each slice's
packed matrix from a shared-memory segment, while leaving the simulation
bit-deterministic: workers are pure functions of (packed matrix state,
publication batch), submission happens at dequeue time via the engine's
``prepare_batch`` hook, and results rejoin exactly at the batch's
already-scheduled virtual completion time.  Serial and parallel runs
therefore produce byte-identical notifications and CPU accounting; only
wall-clock time changes.

Turn it on with ``HubConfig(match_workers=N)`` or the
``REPRO_MATCH_WORKERS`` environment variable (``0``, the default, builds
no executor and matches inline); DESIGN.md §7 documents the
epoch/delta protocol and the determinism argument, and OBSERVABILITY.md
the worker metric families.
"""

from .executor import (
    MatchChannel,
    MatchExecutor,
    MatchFuture,
    MatchWorkerLost,
    create_executor,
    encode_batch,
    plan_chunks,
    shared_executor,
)
from .worker import match_span_range

__all__ = [
    "MatchChannel",
    "MatchExecutor",
    "MatchFuture",
    "MatchWorkerLost",
    "create_executor",
    "encode_batch",
    "match_span_range",
    "plan_chunks",
    "shared_executor",
]
