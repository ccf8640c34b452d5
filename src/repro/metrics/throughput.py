"""Backlog-based saturation detection.

Figure 6 (top) reports the *maximal* throughput of each static
configuration "before events start accumulating at the input of the AP
operator": a configuration sustains a rate iff queues stay bounded.  The
:class:`BacklogProbe` captures that criterion for any set of watched
queues.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

__all__ = ["BacklogProbe"]


class BacklogProbe:
    """Periodically samples queue lengths to detect unbounded growth.

    ``queues`` maps a name to a zero-argument callable returning the
    current queue length.  A run is *stable* if, over the second half of
    the observation, the maximum backlog does not keep growing beyond
    ``bound``.
    """

    def __init__(self, queues: Dict[str, Callable[[], int]]):
        self.queues = dict(queues)
        self.samples: List[Tuple[float, int]] = []

    def sample(self, time: float) -> int:
        total = sum(length() for length in self.queues.values())
        self.samples.append((time, total))
        return total

    def is_stable(self, bound: int = 100) -> bool:
        """True if backlog in the final quarter stays under ``bound``."""
        if not self.samples:
            return True
        start = self.samples[0][0]
        end = self.samples[-1][0]
        threshold = start + 0.75 * (end - start)
        tail = [total for time, total in self.samples if time >= threshold]
        return bool(tail) and max(tail) <= bound

    def max_backlog(self) -> int:
        return max((total for _, total in self.samples), default=0)
