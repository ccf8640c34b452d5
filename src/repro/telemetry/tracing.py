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
import os
import tempfile
from typing import Any, Callable, Dict, List, Optional, Tuple

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
        # Windowed disk streaming (see stream_to); inactive by default.
        self._stream_handle = None
        self._stream_path: Optional[str] = None
        self._stream_tmp: Optional[str] = None
        self._stream_window = 0
        #: name → [count, total_s, max_s] of spans already streamed out.
        self._flushed_stats: Dict[str, List[float]] = {}
        #: Spans written to the stream file and dropped from memory.
        self.flushed_spans = 0

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
        if self._stream_handle is not None:
            self._maybe_stream()
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
        if self._stream_handle is not None:
            self._maybe_stream()
        return span

    def event(self, name: str, **attrs: Any) -> Span:
        """Record an instant (zero-duration) span — a decision, a marker."""
        now = self._clock()
        return self.add_span(name, now, now, **attrs)

    # -- windowed disk streaming -------------------------------------------------

    def stream_to(self, path: str, window_spans: int = 4096) -> str:
        """Stream spans to ``path`` in fixed-size windows, keeping memory flat.

        Whenever ``window_spans`` spans are resident, the longest *closed*
        prefix (spans never leave the file out of start order, so an open
        span holds back everything behind it) is appended to the stream
        file and dropped from memory.  The final :meth:`write_jsonl` call
        on the same ``path`` writes the remainder and atomically installs
        the file — whose bytes are identical to a non-streamed
        :meth:`write_jsonl` of the same run, because spans are written in
        the same order with the same sequential ids and the clock is the
        deterministic simulation clock.

        While streaming, :meth:`breakdown` still covers every closed span
        (flushed spans fold into incremental statistics), but
        :meth:`find` and :attr:`spans` only see the resident window.
        """
        if window_spans < 1:
            raise ValueError(f"window_spans must be >= 1, got {window_spans}")
        if self._stream_handle is not None:
            raise RuntimeError(f"already streaming to {self._stream_path}")
        directory = os.path.dirname(os.path.abspath(path)) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".trace-", suffix=".stream")
        self._stream_handle = os.fdopen(fd, "w")
        self._stream_path = os.path.abspath(path)
        self._stream_tmp = tmp
        self._stream_window = window_spans
        self._maybe_stream()
        return path

    @property
    def streaming(self) -> bool:
        return self._stream_handle is not None

    def _maybe_stream(self) -> None:
        """Flush the longest closed span prefix once the window fills."""
        spans = self.spans
        if len(spans) < self._stream_window:
            return
        prefix = 0
        for span in spans:
            if span.end is None:
                break
            prefix += 1
        if prefix == 0:
            return
        self._write_spans(spans[:prefix], account=True)
        del spans[:prefix]
        self.flushed_spans += prefix

    def _write_spans(self, spans, account: bool) -> None:
        handle = self._stream_handle
        stats = self._flushed_stats
        for span in spans:
            handle.write(json.dumps(span.to_record(), sort_keys=True))
            handle.write("\n")
            if account and span.end is not None:
                duration = span.duration_s
                entry = stats.get(span.name)
                if entry is None:
                    stats[span.name] = [1, duration, duration]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    if duration > entry[2]:
                        entry[2] = duration

    # -- read-out ---------------------------------------------------------------

    def find(self, name: str) -> List[Span]:
        """All resident spans named ``name``, in start order.

        With streaming enabled, spans already flushed to disk are not
        searched — load them with :func:`read_jsonl` instead.
        """
        return [span for span in self.spans if span.name == name]

    def breakdown(self) -> List[Tuple[str, int, float, float, float]]:
        """Per-span-name latency summary, sorted by total time descending.

        Returns ``(name, count, total_s, mean_s, max_s)`` tuples over all
        *closed* spans — the ``repro trace`` latency table.  Spans
        streamed to disk are included through incremental statistics.
        """
        stats: Dict[str, List[float]] = {
            name: list(entry) for name, entry in self._flushed_stats.items()
        }
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
            out.append((name, int(count), total, total / count, peak))
        out.sort(key=lambda row: (-row[2], row[0]))
        return out

    def write_jsonl(self, path: str) -> str:
        """Write every span as one JSON line; atomic, deterministic bytes.

        With streaming enabled, ``path`` must be the streamed path: the
        resident remainder is appended and the finished file is
        atomically installed, byte-identical to a non-streamed write.
        """
        if self._stream_handle is not None:
            if os.path.abspath(path) != self._stream_path:
                raise ValueError(
                    f"tracer is streaming to {self._stream_path!r}; "
                    f"cannot write to {path!r}"
                )
            self._write_spans(self.spans, account=True)
            self.flushed_spans += len(self.spans)
            del self.spans[:]
            self._stream_handle.close()
            self._stream_handle = None
            os.replace(self._stream_tmp, self._stream_path)
            self._stream_tmp = None
            return path
        directory = os.path.dirname(os.path.abspath(path)) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".trace-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                for span in self.spans:
                    handle.write(json.dumps(span.to_record(), sort_keys=True))
                    handle.write("\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a trace written by :meth:`Tracer.write_jsonl`."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
