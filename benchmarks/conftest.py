"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures, prints a
``paper=`` vs ``measured=`` report (bypassing pytest's capture so it shows
up in the tee'd output), and asserts the qualitative *shape* the paper
claims — who wins, by roughly what factor, where crossovers fall.

Environment knobs:

* ``REPRO_BENCH_SCALE`` (float, default 1.0) multiplies each experiment's
  default time scale; values below 1 shorten runs at the cost of rougher
  elasticity dynamics (see EXPERIMENTS.md).
* ``REPRO_BENCH_TRACEMALLOC`` (default off) additionally traces Python
  allocations and attaches the top allocation sites to each benchmark's
  exported ``memory`` record — slow, for memory debugging only.
"""

import os
import resource
import sys
import tracemalloc

import pytest


def bench_scale() -> float:
    """Global multiplier for the experiments' default time scales."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def _tracemalloc_enabled() -> bool:
    return os.environ.get("REPRO_BENCH_TRACEMALLOC", "").strip() not in ("", "0")


@pytest.fixture(scope="session", autouse=True)
def _tracemalloc_session():
    """Trace Python allocations for the whole run when the knob is set."""
    started = False
    if _tracemalloc_enabled() and not tracemalloc.is_tracing():
        tracemalloc.start()
        started = True
    yield
    if started:
        tracemalloc.stop()


def memory_snapshot(top: int = 10) -> dict:
    """Peak-memory record attached to every exported bench payload.

    Always carries the getrusage high-water RSS; with
    ``REPRO_BENCH_TRACEMALLOC`` set it adds traced Python heap totals and
    the ``top`` largest allocation sites.
    """
    # ``ru_maxrss`` is KiB on Linux, bytes on macOS.
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    snapshot = {"peak_rss_bytes": rss * (1 if sys.platform == "darwin" else 1024)}
    if tracemalloc.is_tracing():
        current, peak = tracemalloc.get_traced_memory()
        stats = tracemalloc.take_snapshot().statistics("lineno")[:top]
        snapshot["tracemalloc"] = {
            "current_bytes": current,
            "peak_bytes": peak,
            "top": [
                {
                    "site": str(stat.traceback),
                    "bytes": stat.size,
                    "count": stat.count,
                }
                for stat in stats
            ],
        }
    return snapshot


@pytest.fixture
def report(capsys):
    """Print through pytest's capture, so harness output reaches the tee."""

    def _print(text: str = "") -> None:
        with capsys.disabled():
            print(text)

    return _print


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are deterministic simulations; repeated rounds would
    only re-measure the same run.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
