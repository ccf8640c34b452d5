"""Run one workload in this process: repetitions, oracle, metrics.

A short discarded warm-up, then repetitions until ``seconds`` of measured
time are spent (at least :data:`MIN_REPS`).  Every repetition
builds a fresh hub and runs the workload's waves, and is checked by the
oracle.  Wave 0 is where a fresh hub pays its lazy set-up (first touch of
the match workspaces, channel and dict growth), so it is timed into
``setup_s`` with the build; waves 1.. are the measured phase.

Three things keep the gated host-time metrics steady on a shared host.
Wave ``w`` does identical work in every repetition, so the measured-phase
time is the sum over waves of the *median across repetitions* of that wave,
which a spike in one repetition does not move.  Every timed region is
divided by calibration kernels timed right before and after it
(:mod:`perfbench.calibration`), which removes the host's slow minutes.  And
the normalised times are process CPU seconds, not wall seconds: the mmap
store's evictions ``msync`` to a disk the host shares, and that wait (10 %
of ``outofcore_churn_100k`` on a quiet disk, 50 % on a busy one) is the
host's, not the engine's.  Raw wall seconds are reported beside them.

With ``trace`` the repetitions alternate between plain and traced (and, on
``pipeline_burst``, one with the engine's own ``Telemetry()`` bound); the
per-layer host times are medians over the traced ones and the counts must
repeat exactly.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.chaos import multiset_digest
from repro.metrics import percentile
from repro.telemetry import Telemetry

from . import REPO_ROOT, calibration, layers, oracle
from .tracer import Tracer
from .workloads import WORKLOADS

__all__ = ["OUT_DIR", "MIN_REPS", "load_spec", "measure", "contract_line"]

OUT_DIR = REPO_ROOT / "perfbench" / "out"
MIN_REPS = 3
#: Times the inputs are generated (the last set is used).
GENERATIONS = 3
#: A publication is late when not delivered within this simulated time.
LATE_AFTER_S = 1.0
#: End-to-end values the command prints but BENCHMARK.json does not gate:
#: they are legitimately 0, or read exactly the same for every seed (host
#: counts change at probe rounds), or are raw wall time on a shared host and
#: not steady enough to bound.  name → (unit, better).
UNGATED = {
    "wall_pubs_per_s": ("pubs/s", "higher"),
    "wall_setup_s": ("s", "lower"),
    "sim_late_share": ("fraction", "lower"),
    "sim_host_seconds": ("host.s", "lower"),
    "failed_share": ("fraction", "lower"),
    "proc.cpu_ms_per_pub": ("ms", "lower"),
}


def load_spec() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Rep:
    kind: str
    #: Build plus wave 0: wall seconds, normalised CPU seconds.
    setup_s: float
    setup_norm_s: float
    #: Per measured wave (1..): wall seconds, normalised CPU seconds.
    wave_s: List[float]
    norm_s: List[float]
    #: Process CPU seconds of the measured waves, not normalised.
    cpu_s: float
    #: Publications injected during the measured waves.
    measured_pubs: int
    #: Simulated-clock results; identical in every repetition of a seed.
    sim: Dict[str, float]
    digest: str
    delivery_failures: int
    #: Exact workloads: sorted subscriber ids per reference-checked publication.
    delivered: Optional[Dict[int, tuple]] = None
    #: Traced repetitions: the tracer, per-layer metrics, self seconds per
    #: layer and the wall time of the traced waves they must add up to.
    tracer: Optional[Tracer] = None
    layer: Optional[Dict[str, float]] = None
    layer_self_s: Optional[Dict[str, float]] = None
    traced_s: float = 0.0
    telemetry_spans: int = 0


def _sim_results(rig) -> Dict[str, float]:
    hub = rig.hub
    delays = sorted(sample.delay for sample in hub.delay_tracker.samples)
    late = sum(1 for delay in delays if delay > LATE_AFTER_S)
    late += hub.published_count - len(delays)
    return {
        "sim_delay_p50_ms": percentile(delays, 0.50) * 1e3,
        "sim_delay_p99_ms": percentile(delays, 0.99) * 1e3,
        "sim_late_share": late / hub.published_count,
        "sim_host_seconds": rig.cloud.host_seconds(),
        "delays": len(delays),
        "published": hub.published_count,
    }


def _normalised(cpu_seconds: float, before: float, after: float) -> float:
    """CPU seconds on the reference host, given the slowness around them."""
    return cpu_seconds / ((before + after) / 2.0)


def _warm_up(workload, inputs, spill_dir: str) -> None:
    """Build a hub and run its first two waves, discarded: fills the
    interpreter's and the allocator's caches before anything is timed."""
    gc.collect()
    rig = workload.build(inputs, spill_dir)
    for wave in range(2):
        workload.run_wave(rig, inputs, wave)


def _run_rep(workload, inputs, spill_dir: str, kind: str,
             every: Optional[int]) -> Rep:
    """One repetition: build (set-up), waves (wave 0 set-up, then measured),
    then everything the oracle and the metrics need from the hub.  With
    ``every`` the delivered subscriber sets are kept for the reference check."""
    gc.collect()
    kernels = workload.calibration
    telemetry = Telemetry() if kind == "telemetry" else None
    tracer = Tracer() if kind == "traced" else None
    # Slowness marks: before the build, then after every wave.
    marks = [calibration.slowness(kernels)]
    cpu_started = time.process_time()
    started = time.perf_counter()
    rig = workload.build(inputs, spill_dir, telemetry=telemetry)
    build_s = time.perf_counter() - started
    build_cpu_s = time.process_time() - cpu_started

    waves = workload.wave_count(inputs)
    wave_s: List[float] = []
    cpu_s: List[float] = []
    published: List[int] = []
    if tracer is not None:
        layers.install(tracer)
    try:
        for wave in range(waves):
            if tracer is not None:
                tracer.wave = wave
                tracer.recording = wave == waves // 2
            root = tracer.span(layers.ROOT) if tracer is not None else nullcontext()
            cpu_started = time.process_time()
            started = time.perf_counter()
            with root:
                workload.run_wave(rig, inputs, wave)
            wave_s.append(time.perf_counter() - started)
            cpu_s.append(time.process_time() - cpu_started)
            published.append(rig.hub.published_count)
            marks.append(calibration.slowness(kernels))
    finally:
        if tracer is not None:
            tracer.remove()

    sim = _sim_results(rig)
    rep = Rep(
        kind=kind,
        setup_s=build_s + wave_s[0],
        setup_norm_s=_normalised(build_cpu_s + cpu_s[0], marks[0], marks[1]),
        wave_s=wave_s[1:],
        norm_s=[_normalised(cpu_s[wave], marks[wave], marks[wave + 1])
                for wave in range(1, waves)],
        cpu_s=sum(cpu_s[1:]),
        measured_pubs=published[-1] - published[0],
        sim=sim,
        digest=multiset_digest(rig.hub),
        delivery_failures=oracle.delivery_failures(rig.hub),
    )
    if every is not None:
        rep.delivered = oracle.delivered_sets(rig.hub, every)
    if tracer is not None:
        rep.tracer = tracer
        rep.layer = layers.layer_metrics(tracer, rig, sim["published"])
        rep.layer_self_s = layers.layer_self_seconds(tracer)
        rep.traced_s = sum(wave_s)
    if telemetry is not None:
        rep.telemetry_spans = len(telemetry.tracer.spans)
    return rep


def _wave_median_sum(reps: List[Rep], normalised: bool = True) -> float:
    """Measured-phase seconds: per wave the median across ``reps``, summed."""
    columns = zip(*(rep.norm_s if normalised else rep.wave_s for rep in reps))
    return sum(statistics.median(column) for column in columns)


def _spread(values: List[float]) -> Dict[str, float]:
    """Sample count, minimum and quartiles of per-repetition values."""
    if len(values) < 2:
        quartiles = [values[0]] * 3
    else:
        quartiles = statistics.quantiles(values, n=4)
    return {"n": len(values), "min": min(values),
            "q1": quartiles[0], "q3": quartiles[2]}


def _shm_segments() -> set:
    """Python shared-memory segments (what the engine's shm match executor
    creates) — not whatever else the host keeps in /dev/shm."""
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def _leftovers(spill_dir: str, shm_before: set) -> List[str]:
    """Spill files, shared-memory segments and child processes left behind."""
    found = [f"spill file {name}" for name in os.listdir(spill_dir)]
    found += [f"shm segment {name}" for name in _shm_segments() - shm_before]
    found += [f"child process {child.pid}"
              for child in multiprocessing.active_children()]
    return found


def _oracle_failures(inputs, measured: List[Rep], every: int):
    """Failed operations over all repetitions, and how many publications the
    hub-free reference checked."""
    first = measured[0]
    published = first.sim["published"]
    failed = sum(rep.delivery_failures for rep in measured)
    # A repetition that delivered another multiset, or other simulated
    # values, than the first is wrong as a whole.
    failed += published * sum(
        1 for rep in measured
        if rep.digest != first.digest or rep.sim != first.sim
    )
    if first.delivered is None:
        return failed, 0
    expected = oracle.reference_sets(inputs, every)
    failed += sum(1 for pub_id, ids in expected.items()
                  if first.delivered.get(pub_id) != ids)
    failed += oracle.pair_check_failures(inputs, expected)
    return failed, len(expected)


def _end_to_end(spec: dict, measured: List[Rep], plain: List[Rep], norm_s: float,
                generate_s: float, generate_norm_s: float, peak_rss_mb: float,
                failed_share: float) -> Dict[str, dict]:
    """Every end-to-end metric with unit, direction, clock and spread."""
    sim = measured[0].sim
    timed_pubs = measured[0].measured_pubs
    values = {
        "norm_pubs_per_s": timed_pubs / norm_s,
        "wall_pubs_per_s": timed_pubs / _wave_median_sum(plain, normalised=False),
        "sim_delay_p50_ms": sim["sim_delay_p50_ms"],
        "sim_delay_p99_ms": sim["sim_delay_p99_ms"],
        "sim_ontime_share": 1.0 - sim["sim_late_share"],
        "sim_late_share": sim["sim_late_share"],
        "sim_host_seconds": sim["sim_host_seconds"],
        "peak_rss_mb": peak_rss_mb,
        "setup_s": generate_norm_s + statistics.median(
            rep.setup_norm_s for rep in measured),
        "wall_setup_s": generate_s + statistics.median(
            rep.setup_s for rep in measured),
        "failed_share": failed_share,
        "proc.cpu_ms_per_pub": statistics.median(
            rep.cpu_s for rep in plain) * 1e3 / timed_pubs,
    }
    spreads = {
        "norm_pubs_per_s": _spread([timed_pubs / sum(r.norm_s) for r in plain]),
        "wall_pubs_per_s": _spread([timed_pubs / sum(r.wave_s) for r in plain]),
        "setup_s": _spread([generate_norm_s + r.setup_norm_s for r in measured]),
        "wall_setup_s": _spread([generate_s + r.setup_s for r in measured]),
    }
    directions = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    directions.update(UNGATED)
    metrics = {}
    for metric, (unit, better) in directions.items():
        value = values[metric]
        samples = sim["delays"] if metric.startswith("sim_delay") else 1
        metrics[metric] = {
            "value": value, "unit": unit, "better": better,
            "clock": ("sim" if metric.startswith("sim_")
                      else "count" if metric == "failed_share" else "host"),
            **spreads.get(metric, {"n": samples, "min": value,
                                   "q1": value, "q3": value}),
        }
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool,
            verify_full: bool = False, reps: Optional[int] = None) -> dict:
    """Run workload ``name`` and return its result record."""
    workload = WORKLOADS[name]
    spec = load_spec()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    shm_before = _shm_segments()
    spill_dir = tempfile.mkdtemp(prefix=f"spill-{name}-", dir=OUT_DIR)

    # Generation happens once per real use, so one sample is all a run would
    # give; repeat it for a median that is steady from run to run.
    generated = []
    for _ in range(GENERATIONS):
        inputs = None  # one set of inputs alive at a time, or peak RSS doubles
        gc.collect()
        before = calibration.slowness(workload.calibration)
        cpu_started = time.process_time()
        started = time.perf_counter()
        inputs = workload.generate(seed)
        wall_s = time.perf_counter() - started
        generated.append((wall_s, _normalised(
            time.process_time() - cpu_started, before,
            calibration.slowness(workload.calibration))))
    generate_s = statistics.median(wall for wall, _ in generated)
    generate_norm_s = statistics.median(norm for _, norm in generated)

    kinds = ["plain"]
    if trace:
        kinds += ["traced"] + (["telemetry"] if workload.telemetry_rep else [])
    every = 1 if verify_full else workload.verify_every
    try:
        _warm_up(workload, inputs, spill_dir)
        measured: List[Rep] = []
        spent = 0.0
        minimum = reps * len(kinds) if reps is not None else max(MIN_REPS, len(kinds))
        while len(measured) < minimum or (reps is None and spent < seconds):
            # The first repetition's deliveries go to the reference check; the
            # others must only equal its digest, so the memory held (and with
            # it peak RSS) does not grow with the number of repetitions.
            rep = _run_rep(workload, inputs, spill_dir,
                           kinds[len(measured) % len(kinds)],
                           every if every and not measured else None)
            measured.append(rep)
            spent += sum(rep.wave_s)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gc.collect()
        leftovers = _leftovers(spill_dir, shm_before)
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)
    if leftovers:
        raise RuntimeError(f"{name} left behind: {', '.join(leftovers)}")

    published = measured[0].sim["published"]
    attempted = published * len(measured)
    failed, checked = _oracle_failures(inputs, measured, every)
    plain = [rep for rep in measured if rep.kind == "plain"]
    norm_s = _wave_median_sum(plain)
    if trace:
        layer_results, mismatched = _layer_results(spec, measured, norm_s, published)
        # Counts that differ between traced repetitions fail one whole one.
        failed += published * bool(mismatched)
    metrics = _end_to_end(spec, measured, plain, norm_s, generate_s,
                          generate_norm_s, peak_rss_mb, failed / attempted)

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "publications": published,
        "reps": {kind: sum(1 for r in measured if r.kind == kind) for kind in kinds},
        "attempted": attempted, "failed": failed, "correct": failed == 0,
        "reference_checked": checked, "digest": measured[0].digest,
        "timed_publications": measured[0].measured_pubs,
        "calibration": list(workload.calibration),
        "metrics": metrics,
        "wave_s": {kind: [r.wave_s for r in measured if r.kind == kind]
                   for kind in kinds},
        "norm_s": {kind: [r.norm_s for r in measured if r.kind == kind]
                   for kind in kinds},
    }
    if trace:
        record["layers"] = layer_results
        record["count_mismatches"] = mismatched
        sample = next(rep for rep in measured if rep.kind == "traced")
        record["layer_self_s"] = sample.layer_self_s
        record["traced_wall_s"] = sample.traced_s
        trace_path = OUT_DIR / f"trace_{name}.jsonl"
        record["trace_spans"] = sample.tracer.write_jsonl(trace_path)
    return record


def _layer_results(spec: dict, measured: List[Rep], plain_norm_s: float,
                   published: int):
    """Per-layer metrics over the traced repetitions, and the names of
    counts that did not repeat exactly."""
    traced = [rep for rep in measured if rep.kind == "traced"]
    telemetry = [rep for rep in measured if rep.kind == "telemetry"]
    samples = [dict(rep.layer) for rep in traced]
    overhead = _wave_median_sum(traced) / plain_norm_s - 1.0
    for sample in samples:
        sample["trace.overhead_share"] = overhead
        sample["telemetry.spans_per_pub"] = (
            telemetry[0].telemetry_spans / published if telemetry else 0.0)
        sample["telemetry.enabled_cost_share"] = (
            _wave_median_sum(telemetry) / plain_norm_s - 1.0 if telemetry else 0.0)
    results, mismatched = {}, []
    for metric in spec["per_layer"]:
        name = metric["name"]
        column = [sample[name] for sample in samples]
        clock = layers.clock_of(name)
        if clock == "host":
            value = statistics.median(column)
        else:
            value = column[0]
            if any(other != value for other in column):
                mismatched.append(name)
        results[name] = {"value": value, "unit": metric["unit"],
                         "better": metric["better"], "clock": clock}
    return results, mismatched


def contract_line(record: dict, spec: dict) -> str:
    """The benchmark contract's result: the last line of standard output."""
    if record["trace"]:
        names = [m["name"] for m in spec["per_layer"]]
        source = record["layers"]
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        source = record["metrics"]
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": source[name]["value"],
                           "unit": source[name]["unit"]} for name in names},
    })
