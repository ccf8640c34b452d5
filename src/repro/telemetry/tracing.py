"""Span-based tracing on the simulation clock.

A :class:`Span` is a named interval ``[start, end]`` of *simulated* time
with arbitrary JSON-serializable attributes.  The engine uses spans to
follow a publication hop by hop (``hop.AP`` → ``hop.M`` → ``hop.EP`` →
``hop.SINK``, correlated by the ``pub_id`` attribute), a migration
through its protocol phases (``migration.pre`` … ``migration.post``,
linked to a ``migration`` root span via ``parent_id``), and an enforcer
decision via instant spans carrying the decision's full inputs.

Because timestamps come from the discrete-event clock and span ids are
assigned sequentially, two identical simulation runs produce
byte-identical JSONL traces — tracing is a pure observer and never
schedules simulation events.

There is no disabled tracer: with telemetry off the engine holds no
bundle and never reaches a tracer.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Tuple

from .export import write_atomic

__all__ = ["Span", "Tracer", "read_jsonl"]


class Span:
    """One traced interval; ``end`` is ``None`` while the span is open."""

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "attrs")

    def __init__(
        self,
        span_id: int,
        name: str,
        start: float,
        end: Optional[float] = None,
        parent_id: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = end
        self.attrs = attrs or {}

    @property
    def duration_s(self) -> float:
        """Span length in simulated seconds (0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def to_record(self) -> Dict[str, Any]:
        """Plain-data form of the span (one JSONL line)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration_s": self.duration_s if self.end is not None else None,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<span #{self.span_id} {self.name} [{self.start}, {self.end}]>"


class Tracer:
    """Collects spans against an externally supplied clock.

    ``clock`` is any zero-argument callable returning the current time;
    :class:`~repro.telemetry.Telemetry` binds it to the simulation
    environment's ``now``.  Spans are appended in *start* order, which
    together with the deterministic clock makes traces reproducible
    run-to-run.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock or (lambda: 0.0)
        self.spans: List[Span] = []
        self._next_id = 1

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Replace the clock (used when the environment arrives late)."""
        self._clock = clock

    # -- recording --------------------------------------------------------------

    def start_span(
        self, name: str, parent: Optional[Span] = None, **attrs: Any
    ) -> Span:
        """Open a span at the current clock; close with :meth:`finish_span`."""
        span = Span(
            self._next_id,
            name,
            self._clock(),
            parent_id=parent.span_id if parent is not None else None,
            attrs=attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def finish_span(self, span: Span, **attrs: Any) -> Span:
        """Close ``span`` at the current clock, merging extra attributes."""
        span.end = self._clock()
        if attrs:
            span.attrs.update(attrs)
        return span

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Record an already-measured interval (e.g. a hop latency whose
        start is the upstream emission timestamp)."""
        span = Span(
            self._next_id,
            name,
            start,
            end=end,
            parent_id=parent.span_id if parent is not None else None,
            attrs=attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def event(self, name: str, **attrs: Any) -> Span:
        """Record an instant (zero-duration) span — a decision, a marker."""
        now = self._clock()
        return self.add_span(name, now, now, **attrs)

    # -- read-out ---------------------------------------------------------------

    def find(self, name: str) -> List[Span]:
        """All spans named ``name``, in start order."""
        return [span for span in self.spans if span.name == name]

    def breakdown(self) -> List[Tuple[str, int, float, float, float]]:
        """Per-span-name latency summary, sorted by total time descending.

        Returns ``(name, count, total_s, mean_s, max_s)`` tuples over all
        *closed* spans — the ``repro trace`` latency table.
        """
        stats: Dict[str, List[float]] = {}
        for span in self.spans:
            if span.end is None:
                continue
            duration = span.duration_s
            entry = stats.get(span.name)
            if entry is None:
                stats[span.name] = [1, duration, duration]
            else:
                entry[0] += 1
                entry[1] += duration
                if duration > entry[2]:
                    entry[2] = duration
        out = []
        for name, (count, total, peak) in stats.items():
            out.append((name, count, total, total / count, peak))
        out.sort(key=lambda row: (-row[2], row[0]))
        return out

    def write_jsonl(self, path: str) -> str:
        """Write every span as one JSON line; atomic, deterministic bytes."""
        return write_atomic(path, (
            json.dumps(span.to_record(), sort_keys=True) + "\n"
            for span in self.spans
        ))


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a trace written by :meth:`Tracer.write_jsonl`."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
