"""Host-speed calibration kernels.

The hosts this benchmark runs on are shared: identical work takes 1x to
2.5x as long from one minute to the next, CPU time tracking wall time, so
it is the host's speed that moves and no median over repetitions removes it
(perfbench/README.md, "Noise").  The runner therefore times fixed kernels
before and after every timed region and divides the region's CPU time by
the host's *slowness*: the kernels' time now over their time on the quiet
host the first ledger row was recorded on.  A normalised second is a CPU
second on that host.

Three kernels, because the slow-downs do not hit all work alike: interpreter
work (heap, dict and small-object churn, what the DES kernel and routing
do), streaming numpy work (a matrix product, a compare and a prefix sum of
the match kernel's shape, too large for the caches) and the same on
cache-resident blocks (what the chunked store's streaming match does).  Each
workload names the kernels that share its bottleneck.  They live here and
use nothing from ``src/``, so no change to the engine can move them.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Dict, Sequence

import numpy as np

__all__ = ["KERNELS", "REFERENCE_S", "slowness"]


class _Node:
    __slots__ = ("when", "callbacks")

    def __init__(self, when: float):
        self.when = when
        self.callbacks = []


def _python_kernel() -> None:
    queue: list = []
    seen: Dict[int, int] = {}
    for index in range(6000):
        node = _Node(index * 0.001)
        heapq.heappush(queue, (node.when + (index % 7) * 0.01, index, node))
        seen[index % 97] = seen.get(index % 97, 0) + 1
        if index % 3 == 0:
            heapq.heappop(queue)[2].callbacks = None
    while queue:
        heapq.heappop(queue)


# One M slice of the 100k workloads: 128 publications against 50 000 rows.
# The temporaries must stream from memory as the match kernel's do — a
# cache-resident kernel slows down less than the workload when the host does.
_ROWS = np.random.default_rng(0).random((50_000, 9))
_BATCH = np.random.default_rng(1).random((128, 9))
_PRODUCTS = np.empty((128, 50_000))
_SATISFIED = np.empty((128, 50_000), dtype=bool)
_PREFIX = np.empty((128, 50_000), dtype=np.int32)


def _numpy_stream_kernel() -> None:
    np.matmul(_BATCH, _ROWS.T, out=_PRODUCTS)
    np.greater(_PRODUCTS, 0.5, out=_SATISFIED)
    np.cumsum(_SATISFIED, axis=1, out=_PREFIX)


def _numpy_block_kernel() -> None:
    # One store chunk (4 096 rows) against a write-split batch, many times.
    rows, batch = _ROWS[:4096], _BATCH[:16]
    products, satisfied, prefix = _PRODUCTS[:16, :4096], _SATISFIED[:16, :4096], \
        _PREFIX[:16, :4096]
    for _ in range(60):
        np.matmul(batch, rows.T, out=products)
        np.greater(products, 0.5, out=satisfied)
        np.cumsum(satisfied, axis=1, out=prefix)


KERNELS: Dict[str, Callable[[], None]] = {
    "python": _python_kernel,
    "numpy_stream": _numpy_stream_kernel,
    "numpy_block": _numpy_block_kernel,
}

#: Kernel seconds on the quiet reference host (2 cores, Python 3.11, numpy
#: 2.4, one BLAS thread) — what makes a normalised second a second there.
REFERENCE_S = {"python": 0.0065, "numpy_stream": 0.028, "numpy_block": 0.0165}


def slowness(kernels: Sequence[str],
             clock: Callable[[], float] = time.process_time) -> float:
    """How many times slower than the reference host this host is now.

    Per kernel the faster of two back-to-back calls (the first also refills
    the caches the region before it emptied) over its reference time; the
    geometric mean over ``kernels``.  In process CPU time, like the regions
    it normalises.
    """
    product = 1.0
    for kernel in kernels:
        run = KERNELS[kernel]
        best = float("inf")
        for _ in range(2):
            started = clock()
            run()
            best = min(best, clock() - started)
        product *= best / REFERENCE_S[kernel]
    return product ** (1.0 / len(kernels))
