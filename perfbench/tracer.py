"""Span tracer that measures layers from outside the program.

A :class:`Tracer` replaces public functions with timing wrappers for the
duration of one traced pass and puts the originals back afterwards.  Each
wrapped call is a span; a span stack attributes to every span its *self
time* — its duration minus the part covered by wrapped calls made from
inside it — so the self times of all spans under a root add up to the
root's duration.  Aggregates (calls and self seconds per span name, plus
whatever the count hooks add) are always kept; full span records
``(name, start, end, parent, wave)`` are kept only while
:attr:`Tracer.recording` is set, up to :attr:`Tracer.max_records`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["Tracer"]

#: ``hook(counts, args, result)`` — adds to named counters at a wrapper.
CountHook = Callable[[Dict[str, float], tuple, Any], None]


class Tracer:
    """Timing wrappers, a span stack, aggregates and sampled span records."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 max_records: int = 200_000):
        self.clock = clock
        self.max_records = max_records
        #: span name → [calls, self seconds].
        self.totals: Dict[str, List[float]] = {}
        #: Counter name → value, fed by the count hooks.
        self.counts: Dict[str, float] = {}
        #: ``[name, start, end, parent record index or -1, wave]`` rows.
        self.records: List[list] = []
        self.recording = False
        #: Identifier stamped on records (the publication wave being run).
        self.wave = -1
        #: Open spans, innermost last: ``[child seconds, record index]``.
        self._stack: List[list] = []
        self._installed: List[tuple] = []

    # -- spans ----------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [0.0, -1]
        if self.recording and len(self.records) < self.max_records:
            parent = self._stack[-1][1] if self._stack else -1
            frame[1] = len(self.records)
            self.records.append([name, 0.0, None, parent, self.wave])
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: float) -> None:
        duration = self.clock() - start
        self._stack.pop()
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0]
        total[0] += 1
        total[1] += duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration
        if frame[1] >= 0:
            record = self.records[frame[1]]
            record[1] = start
            record[2] = start + duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """An explicit span (the root around a measured phase)."""
        frame = self._enter(name)
        start = self.clock()
        try:
            yield
        finally:
            self._exit(name, frame, start)

    # -- wrappers -------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, count: Optional[CountHook] = None) -> Callable:
        """``fn`` as a span named ``name``; ``count`` runs after each call."""
        enter, exit_, clock, counts = self._enter, self._exit, self.clock, self.counts

        def traced(*args, **kwargs):
            frame = enter(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(name, frame, start)
            if count is not None:
                count(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_iterator(self, name: str, fn: Callable) -> Callable:
        """A generator function whose every ``next`` is one span.

        The consumer's work between two items is outside the span, so the
        self time is what producing the items cost (for the chunk store:
        faulting a chunk back in).
        """
        enter, exit_, clock = self._enter, self._exit, self.clock

        def traced(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                frame = enter(name)
                start = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    exit_(name, frame, start)
                yield item

        traced.__wrapped__ = fn
        return traced

    def wrap_counter(self, name: str, fn: Callable) -> Callable:
        """Count calls of ``fn`` under ``name`` without timing them.

        For functions called so often that a span per call would cost more
        than the call (``Environment.step``); their time stays in the self
        time of the enclosing span.
        """
        total = self.totals.setdefault(name, [0, 0.0])

        def counted(*args, **kwargs):
            total[0] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation ---------------------------------------------------------

    def install(self, owner: Any, attribute: str, wrapper: Callable) -> None:
        """Replace ``owner.attribute`` by ``wrapper`` until :meth:`remove`."""
        self._installed.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    def remove(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # -- results --------------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0))[0])

    def self_seconds(self, prefix: str) -> float:
        """Self time summed over span names equal to or under ``prefix``."""
        return sum(
            total[1]
            for name, total in self.totals.items()
            if name == prefix or name.startswith(prefix + ".")
        )

    def write_jsonl(self, path) -> int:
        """Write the span records, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, wave) in enumerate(self.records):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "wave": wave,
                }) + "\n")
        return len(self.records)
