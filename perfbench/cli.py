"""Command line of the benchmark: ``run`` and ``compare``.

``run --workload W`` measures one workload in this process and ends its
output with the benchmark contract's JSON line.  ``run`` without a workload
runs each of the four in its own child process (so peak RSS is per
workload), prints every metric and writes ``perfbench/out/<run>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional

from . import REPO_ROOT, runner
from .workloads import DEFAULT_SEED

__all__ = ["main"]

LEDGER = REPO_ROOT / "perfbench" / "ledger.jsonl"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure the workloads")
    run.add_argument("--workload", help="one workload, in this process")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=None,
                     help="measured time per workload (default: run_seconds)")
    run.add_argument("--reps", type=int, default=None,
                     help="exactly this many measured repetitions (of each kind) instead")
    run.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                     choices=(0, 1), help="per-layer traced run")
    run.add_argument("--verify", choices=("sampled", "full"), default="sampled",
                     help="reference-check every 8th publication, or all")
    run.add_argument("--ledger", action="store_true",
                     help="append the end-to-end rows to perfbench/ledger.jsonl")
    compare = commands.add_parser("compare", help="judge run B against run A")
    compare.add_argument("a")
    compare.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return _compare(args.a, args.b)
    if args.workload is not None:
        return _run_one(args)
    return _run_all(args)


# -- run ----------------------------------------------------------------------

def _run_one(args) -> int:
    spec = runner.load_spec()
    if args.workload not in runner.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(runner.WORKLOADS)}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    record = runner.measure(args.workload, args.seed, seconds, bool(args.trace),
                            verify_full=args.verify == "full", reps=args.reps)
    path = runner.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    _print_record(record)
    print(runner.contract_line(record, spec))
    return 0 if record["correct"] else 1


def _print_record(record: dict) -> None:
    reps = ", ".join(f"{count} {kind}" for kind, count in record["reps"].items())
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"{record['publications']} publications/rep  reps: {reps}")
    print(f"   oracle: attempted {record['attempted']}  failed {record['failed']}  "
          f"reference-checked {record['reference_checked']}  "
          f"digest {record['digest'][:16]}")
    for name, metric in record["metrics"].items():
        spread = ""
        if metric["n"] > 1 and metric["clock"] == "host":
            spread = (f"  min {metric['min']:.6g}  q1 {metric['q1']:.6g}"
                      f"  q3 {metric['q3']:.6g}")
        print(f"   {name:<22}{metric['value']:>14.6g} {metric['unit']:<9}"
              f"[{metric['clock']} clock, {metric['better']} is better, "
              f"n={metric['n']}]{spread}")
    if "layers" not in record:
        return
    print("   -- per layer (traced repetitions; *_self_s and *_share are host time)")
    for name, metric in record["layers"].items():
        print(f"   {name:<34}{metric['value']:>16.6g} {metric['unit']:<9}"
              f"[{metric['clock']}]")
    self_s = record["layer_self_s"]
    total = sum(self_s.values())
    print("   layer self time (one traced repetition): " + "  ".join(
        f"{layer} {seconds:.3f}s ({seconds / total:.1%})"
        for layer, seconds in sorted(self_s.items(), key=lambda item: -item[1])))
    print(f"   sum {total:.4f}s against {record['traced_wall_s']:.4f}s of traced wall "
          f"time ({total / record['traced_wall_s'] - 1.0:+.2%}); "
          f"{record['trace_spans']} spans of one wave in "
          f"perfbench/out/trace_{record['workload']}.jsonl")


def _host_fingerprint() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "blas_threads": 1}


def _commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _run_all(args) -> int:
    spec = runner.load_spec()
    records = {}
    for workload in runner.WORKLOADS:
        command = [sys.executable, "-m", "perfbench", "run", "--workload", workload,
                   "--seed", str(args.seed), "--trace", str(args.trace),
                   "--verify", args.verify]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.reps is not None:
            command += ["--reps", str(args.reps)]
        # Own session: whatever the child leaves running shares its group id.
        child = subprocess.Popen(command, cwd=REPO_ROOT, start_new_session=True)
        code = child.wait()
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            pass
        else:
            raise RuntimeError(f"{workload}: processes outlived the run")
        path = runner.OUT_DIR / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        if code not in (0, 1) or not path.exists():
            raise RuntimeError(f"{workload}: child exited with code {code}")
        with open(path, encoding="utf-8") as handle:
            records[workload] = json.load(handle)

    summary = {
        "schema": 1, "commit": _commit(), "seed": args.seed, "trace": args.trace,
        "run_seconds": args.seconds if args.seconds is not None else spec["run_seconds"],
        "host": _host_fingerprint(), "workloads": records, "claim": None,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = runner.OUT_DIR / f"run-{stamp}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    if args.ledger:
        _append_ledger(summary)
    failed = sum(record["failed"] for record in records.values())
    print(f"wrote {path.relative_to(REPO_ROOT)}  failed operations: {failed}  "
          f'"claim": null')
    return 0 if failed == 0 else 1


def _append_ledger(summary: dict) -> None:
    with open(LEDGER, "a", encoding="utf-8") as handle:
        for workload, record in summary["workloads"].items():
            for name, metric in record["metrics"].items():
                handle.write(json.dumps({
                    "commit": summary["commit"], "seed": summary["seed"],
                    "workload": workload, "metric": name,
                    "median": metric["value"], "q1": metric["q1"],
                    "q3": metric["q3"], "n": metric["n"], "unit": metric["unit"],
                    "reps": record["reps"]["plain"], "host": summary["host"],
                }) + "\n")


# -- compare ------------------------------------------------------------------

def _verdict(a: dict, b: dict, bound: float) -> str:
    """``same``/``worse``/``better``/``unresolved`` of B's metric against A's."""
    if a["value"] == b["value"]:
        return "same"
    base = abs(a["value"])
    if base == 0.0:
        gain = b["value"] if a["better"] == "higher" else -b["value"]
        return "better" if gain > 0 else "worse"
    if bound > 0 and max(
        (side.get("q3", side["value"]) - side.get("q1", side["value"]))
        / abs(side["value"]) for side in (a, b) if side["value"]
    ) > bound:
        return "unresolved"
    gain = (b["value"] - a["value"]) / base
    if a["better"] == "lower":
        gain = -gain
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "same"


def _bound(bounds: Dict[str, float], name: str, clock: str, same_seed: bool) -> float:
    """Simulated time and counts repeat exactly for a fixed seed.  A host
    time BENCHMARK.json does not bound gets the throughput's noise band."""
    if clock != "host":
        return 0.0 if same_seed or name not in bounds else bounds[name]
    return bounds.get(name, bounds["norm_pubs_per_s"])


def _compare(path_a: str, path_b: str) -> int:
    spec = runner.load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    with open(path_a, encoding="utf-8") as handle:
        run_a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        run_b = json.load(handle)
    same_seed = run_a["seed"] == run_b["seed"]
    worse = 0
    for workload, a in run_a["workloads"].items():
        b = run_b["workloads"].get(workload)
        if b is None:
            continue
        cells = []
        for name, metric in a["metrics"].items():
            if name not in b["metrics"]:
                continue
            verdict = _verdict(metric, b["metrics"][name],
                               _bound(bounds, name, metric["clock"], same_seed))
            # Raw wall times are printed for the reader, not judged.
            worse += verdict == "worse" and (name in bounds or metric["clock"] != "host")
            cells.append(f"{name}={verdict}")
        print(f"{workload}: " + "  ".join(cells))
        if "layers" in a and "layers" in b:
            moved = []
            for name, metric in a["layers"].items():
                if metric["clock"] == "host" or same_seed:
                    verdict = _verdict(metric, b["layers"][name],
                                       _bound(bounds, name, metric["clock"], same_seed))
                    if verdict != "same":
                        moved.append(f"{name}={verdict}"
                                     f"({metric['value']:.6g}->{b['layers'][name]['value']:.6g})")
            print(f"  layers: {len(a['layers']) - len(moved)} same"
                  + ("; " + "  ".join(moved) if moved else ""))
    return 1 if worse else 0
