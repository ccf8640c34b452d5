"""Metric registry: counters, gauges and histograms with label families.

The registry is the process-wide (per-deployment) catalog of everything
the engine counts while it runs: events routed, batches coalesced, queue
depths, matcher match rates, migration state bytes, enforcer rule
firings.  Instruments are registered once by name — re-registering with
an identical signature returns the existing family, so independent
modules can share a metric without coordination — and are sampled either
continuously (counters incremented at the instrumented call site) or on
the heartbeat path (gauges set by :class:`~repro.elastic.probes.
ProbeCollector` each probe round).

Design constraints, in order:

* **Zero cost when unused.**  Instrumented call sites hold either a
  family (or pre-resolved child) or ``None``; the disabled path is a
  single ``is None`` test.  Nothing here starts threads, reads clocks or
  touches the simulation — values are plain Python numbers.
* **Deterministic.**  Snapshots and renderings are sorted by metric name
  and label values, so two identical simulation runs produce
  byte-identical exports.
* **Prometheus-compatible.**  The type/label model maps 1:1 onto the
  Prometheus text exposition format (see :mod:`repro.telemetry.export`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .report import format_table

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds (seconds) — sized for the delays
#: this system produces: sub-millisecond hops up to multi-second
#: migrations.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing count (events, bytes, firings)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A point-in-time measurement (queue depth, host count, utilization)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = value

    def add(self, amount: float) -> None:
        """Shift the gauge by ``amount`` (may be negative)."""
        self.value += amount


class Histogram:
    """A distribution summarized by cumulative buckets, count and sum."""

    __slots__ = ("bounds", "bucket_counts", "count", "sum")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise ValueError("need at least one bucket bound")
        self.bounds = bounds
        #: Per-bound counts of observations <= bound, plus one overflow slot.
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        """Average of all observations (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, Prometheus-style."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            running += bucket
            out.append((bound, running))
        return out


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All children of one named metric, one child per label combination.

    A family declared without labels acts directly as its single child:
    ``family.inc()`` / ``family.set()`` / ``family.observe()`` forward to
    the label-less child, which keeps hot call sites free of ``labels()``
    lookups.
    """

    __slots__ = ("kind", "name", "help", "unit", "label_names", "buckets",
                 "_children", "_default")

    def __init__(
        self,
        kind: str,
        name: str,
        help: str = "",
        unit: str = "",
        label_names: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ):
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.kind = kind
        self.name = name
        self.help = help
        self.unit = unit
        self.label_names = tuple(label_names)
        self.buckets = tuple(buckets) if buckets is not None else None
        self._children: Dict[Tuple[str, ...], Any] = {}
        self._default = None if self.label_names else self._make()

    def _make(self):
        if self.kind == "histogram":
            return Histogram(self.buckets or DEFAULT_BUCKETS)
        return _KINDS[self.kind]()

    def labels(self, **labels: str):
        """The child for one label combination (created on first use)."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} requires labels {self.label_names}, got "
                f"{tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make()
        return child

    def samples(self) -> Iterator[Tuple[Dict[str, str], Any]]:
        """``(labels, child)`` pairs sorted by label values."""
        if self._default is not None:
            yield {}, self._default
            return
        for key in sorted(self._children):
            yield dict(zip(self.label_names, key)), self._children[key]

    # -- label-less convenience surface ---------------------------------------

    def _only(self):
        if self._default is None:
            raise ValueError(f"{self.name} is labelled; use .labels(...)")
        return self._default

    def inc(self, amount: float = 1) -> None:
        self._only().inc(amount)

    def set(self, value: float) -> None:
        self._only().set(value)

    def observe(self, value: float) -> None:
        self._only().observe(value)

    @property
    def value(self):
        """Value of the label-less child (counters and gauges only)."""
        return self._only().value

    @property
    def count(self) -> int:
        """Observation count of the label-less child (histograms only)."""
        return self._only().count

    @property
    def sum(self) -> float:
        """Observation sum of the label-less child (histograms only)."""
        return self._only().sum

    @property
    def mean(self) -> float:
        """Observation mean of the label-less child (histograms only)."""
        return self._only().mean


class MetricsRegistry:
    """Named catalog of metric families; the unit exporters consume."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def __iter__(self) -> Iterator[MetricFamily]:
        for name in sorted(self._families):
            yield self._families[name]

    def __len__(self) -> int:
        return len(self._families)

    def get(self, name: str) -> Optional[MetricFamily]:
        """The family registered under ``name``, or ``None``."""
        return self._families.get(name)

    def _register(
        self,
        kind: str,
        name: str,
        help: str,
        unit: str,
        labels: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.label_names != tuple(labels):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind} "
                    f"with labels {existing.label_names}"
                )
            return existing
        family = MetricFamily(kind, name, help, unit, labels, buckets)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", unit: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) a counter family."""
        return self._register("counter", name, help, unit, labels)

    def gauge(
        self, name: str, help: str = "", unit: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) a gauge family."""
        return self._register("gauge", name, help, unit, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        """Register (or fetch) a histogram family."""
        return self._register("histogram", name, help, unit, labels, buckets)

    # -- read-out ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic plain-data view of every family (for JSON export)."""
        out: Dict[str, Any] = {}
        for family in self:
            samples = []
            for labels, child in family.samples():
                if family.kind == "histogram":
                    samples.append({
                        "labels": labels,
                        "count": child.count,
                        "sum": child.sum,
                        "buckets": [list(b) for b in child.cumulative_buckets()],
                    })
                else:
                    samples.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "unit": family.unit,
                "samples": samples,
            }
        return out

    def render(self) -> str:
        """Human-readable table of every sample (the ``repro metrics`` view)."""
        rows = []
        for family in self:
            for labels, child in family.samples():
                label_text = ",".join(f"{k}={v}" for k, v in labels.items())
                if family.kind == "histogram":
                    value = (
                        f"count={child.count} sum={child.sum:.6g} "
                        f"mean={child.mean:.6g}"
                    )
                else:
                    value = f"{child.value:g}"
                rows.append([family.name, family.kind, label_text, value,
                             family.unit])
        return format_table(["metric", "kind", "labels", "value", "unit"], rows)
