#!/usr/bin/env python3
"""Which functions in ``src/`` only the tests reach.

Runs the reproduction's own entry points in subprocesses:

* every ``benchmarks/bench_*.py`` (blind inside a bench's timed body:
  pytest-benchmark pauses profile hooks there, so what a bench reaches
  only inside ``benchmark(...)`` / ``run_once`` is not recorded);
* the four ``perfbench`` workloads (``run --workload W --reps 1 --trace 1``);
* every ``repro.cli`` subcommand;
* every ``examples/*.py``.

Then it runs tier-1 once.

Each subprocess gets a ``sitecustomize`` whose ``sys.setprofile`` hook
records ``(file, first line, qualified name)`` of every function under
``src/repro/`` that is called.  The records are diffed against every
function compiled from ``src/``.  Every function no entry point reaches must
carry a decision in ``KEPT`` below, and every decision must name such a
function.  The report is written between the
reachability markers in ``EXPERIMENTS.md``.

Usage::

    python tools/reachability.py            # run everything (~30 min on 2 cores, 2 at a time)
    python tools/reachability.py --reuse    # re-diff the last run's records

The raw records and per-run logs go to ``repro-reachability`` under the
system temporary directory; a full run replaces them.  Exits non-zero if an
entry point fails, an entry has no decision, or a decision names no
unreached function.
"""

from __future__ import annotations

import argparse
import inspect
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import types
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterable, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REPORT = ROOT / "EXPERIMENTS.md"
BEGIN = "<!-- reachability:begin -->"
END = "<!-- reachability:end -->"
RECORDS = pathlib.Path(tempfile.gettempdir()) / "repro-reachability"
#: Entry points run at once; several hold a full hub, so keep memory low.
JOBS = 2

#: Function-name kinds that are not ``def`` statements.
ANONYMOUS = ("<lambda>", "<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>")

HOOK = '''\
import atexit, os, sys, threading

_seen = set()


def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


sys.setprofile(_hook)
threading.setprofile(_hook)


@atexit.register
def _dump():
    sys.setprofile(None)
    root = os.environ["REACHABILITY_SRC"]
    rows = set()
    for code in _seen:
        path = os.path.realpath(code.co_filename)
        if path.startswith(root):
            rows.add(f"{os.path.relpath(path, root)}\\t{code.co_firstlineno}"
                     f"\\t{code.co_qualname}\\n")
    out = os.path.join(os.environ["REACHABILITY_OUT"], f"{os.getpid()}.tsv")
    with open(out, "w", encoding="utf-8") as handle:
        handle.writelines(sorted(rows))
'''

Key = Tuple[str, int, str]  # (path under src/, first line, qualified name)

# -- decisions ----------------------------------------------------------------

OBSERVE = "accessor tests use to observe state"
REFERENCE = "reference implementation tests compare against"
SAFETY = "safety path: fault handling no fault-free entry point exercises"
INTERFACE = "abstract or default method of an interface; concrete classes override it"
REPR = "debugging repr / str (assertion messages)"
TELEMETRY = "decision-span attributes, recorded when a Telemetry bundle is bound"
METRIC = "metric API for library callers; entry points read the registry by snapshot"
DRIVE = "operation tests drive directly; entry points reach the same state another way"


def _kept(reason: str, *names: str) -> Dict[str, str]:
    return dict.fromkeys(names, reason)


#: ``path::qualname`` -> one-line reason it stays although no entry point reaches it.
KEPT: Dict[str, str] = {
    **_kept(OBSERVE,
            "repro/cluster/cpu.py::CpuScheduler.active_tasks",
            "repro/cluster/cpu.py::CpuScheduler.queued_tasks",
            "repro/cluster/network.py::Network.is_attached",
            "repro/cluster/network.py::Network.transfer_time",
            "repro/cluster/network.py::Network.nic_busy_until",
            "repro/coord/kernel.py::CoordinationKernel.walk",
            "repro/coord/recipes.py::LeaderElection.is_leader",
            "repro/coord/recipes.py::LeaderElection.leader_id",
            "repro/elastic/binpack.py::Placement.uses_new_hosts",
            "repro/elastic/manager.py::ElasticityManager.host_count",
            "repro/elastic/manager.py::ElasticityManager.stored_placement",
            "repro/elastic/probes.py::ProbeSet.total_load_cores",
            "repro/engine/checkpoint.py::CheckpointStore.slices",
            "repro/engine/checkpoint.py::CheckpointStore.__len__",
            "repro/engine/locks.py::RWLock.idle",
            "repro/engine/retention.py::RetentionBuffer.__len__",
            "repro/engine/retention.py::RetentionBuffer.bytes_retained",
            "repro/engine/retention.py::RetentionBuffer.highest_seq",
            "repro/engine/retention.py::RetentionLog.total_events",
            "repro/engine/retention.py::RetentionLog.total_bytes",
            "repro/engine/runtime.py::EngineRuntime.slice_count",
            "repro/experiments/baseline.py::BacklogProbe.max_backlog",
            "repro/experiments/harness.py::Deployment.stored_subscriptions",
            "repro/filtering/aspe.py::AspeKey.cipher_dimensions",
            "repro/filtering/aspe.py::EncryptedSubscription.size_bytes",
            "repro/filtering/aspe.py::AspeLibrary.state_size_bytes",
            "repro/filtering/cost.py::CostModel.m_state_bytes",
            "repro/filtering/cost.py::CostModel.migration_serialize_s",
            "repro/filtering/predicates.py::PredicateSet.__len__",
            "repro/filtering/store/chunks.py::ChunkedMatrixStore.resident_bytes",
            "repro/filtering/store/chunks.py::ChunkedMatrixStore.chunk_count",
            "repro/filtering/store/chunks.py::ChunkedMatrixStore.resident_chunks",
            "repro/pubsub/hub.py::StreamHub.subscribed_count",
            "repro/sim/core.py::Event.processed",
            "repro/sim/core.py::Event.ok",
            "repro/sim/core.py::Event.value",
            "repro/sim/core.py::Environment.peek",
            "repro/telemetry/stats.py::DelayTracker.total_notifications",
            "repro/telemetry/stats.py::WindowedSeries.__len__",
            "repro/telemetry/stats.py::WindowedSeries.samples",
            "repro/transport/channel.py::Channel.pending_count",
            "repro/transport/channel.py::Transport.channel_count",
            "repro/workloads/frankfurt.py::FrankfurtTraceModel.base_rate_at"),
    **_kept(SAFETY,
            "repro/cluster/failures.py::Watchdog.__init__",
            "repro/cluster/failures.py::Watchdog.guard",
            "repro/cluster/failures.py::Watchdog.guard.<locals>.check",
            "repro/cluster/failures.py::Watchdog.guard.<locals>.disarm",
            "repro/cluster/network.py::Network._drop_partitioned",
            "repro/engine/recovery.py::DeadLetterQueue.push",
            "repro/engine/recovery.py::DeadLetterQueue.entries",
            "repro/engine/recovery.py::DeadLetterQueue.drain",
            "repro/engine/recovery.py::DeadLetterQueue.slices",
            "repro/engine/recovery.py::DeadLetterQueue.__len__",
            "repro/engine/recovery.py::ReliabilityCoordinator._abandon_slice",
            "repro/sim/core.py::Event.fail"),
    **_kept("fault-script steps tier-1's recovery and failover tests schedule",
            "repro/cluster/failures.py::FaultPlan.crash_host_at",
            "repro/cluster/failures.py::FaultPlan.crash_manager_at"),
    **_kept(REPR,
            "repro/cluster/host.py::Host.__repr__",
            "repro/coord/kernel.py::ZNodeStat.__repr__",
            "repro/coord/kernel.py::WatchedEvent.__repr__",
            "repro/engine/event.py::StreamEvent.__repr__",
            "repro/filtering/predicates.py::Predicate.__str__",
            "repro/filtering/predicates.py::PredicateSet.__str__",
            "repro/sim/core.py::Event.__repr__",
            "repro/telemetry/tracing.py::Span.__repr__"),
    **_kept(DRIVE,
            "repro/engine/locks.py::RWLock.acquire",
            "repro/engine/recovery.py::ReliabilityCoordinator.checkpoint_now",
            "repro/telemetry/tracing.py::read_jsonl"),
    **_kept(TELEMETRY,
            "repro/elastic/enforcer.py::ElasticityEnforcer._record_decision",
            "repro/elastic/policy.py::Violation.measured",
            "repro/elastic/policy.py::Violation.evidence_attrs",
            "repro/elastic/signals.py::CpuBandEvidence.headline",
            "repro/elastic/signals.py::CpuBandEvidence.attrs"),
    **_kept(INTERFACE,
            "repro/engine/handler.py::SliceHandler.process",
            "repro/engine/handler.py::SliceHandler.coalesce_with",
            "repro/engine/handler.py::SliceHandler.process_batch",
            "repro/filtering/backends.py::MatchingBackend.store",
            "repro/filtering/backends.py::MatchingBackend.match",
            "repro/filtering/backends.py::MatchingBackend.match_batch",
            "repro/filtering/backends.py::MatchingBackend.subscription_count",
            "repro/filtering/backends.py::MatchingBackend.export_state",
            "repro/filtering/backends.py::MatchingBackend.import_state",
            "repro/filtering/base.py::FilteringLibrary.store",
            "repro/filtering/base.py::FilteringLibrary.match",
            "repro/filtering/base.py::FilteringLibrary.match_batch",
            "repro/filtering/base.py::FilteringLibrary.subscription_count",
            "repro/filtering/base.py::FilteringLibrary.state_size_bytes",
            "repro/filtering/base.py::FilteringLibrary.export_state",
            "repro/filtering/base.py::FilteringLibrary.import_state"),
    **_kept("state transfer of an exact library; entry points migrate sampled slices",
            "repro/filtering/aspe.py::AspeLibrary.export_state",
            "repro/filtering/aspe.py::AspeLibrary.import_state",
            "repro/filtering/store/chunks.py::ChunkedMatrixStore.clear"),
    **_kept("growth of a RAM chunk past its first capacity; no entry point's "
            "subscriptions outgrow it",
            "repro/filtering/store/chunks.py::_Chunk.columns",
            "repro/filtering/store/chunks.py::_Chunk.grow"),
    **_kept(REFERENCE,
            "repro/filtering/plain.py::BruteForceLibrary.state_size_bytes"),
    **_kept("`repro metrics --format prom`, which CI runs for its `BENCH_metrics.prom` "
            "sample; the tool runs the table format",
            "repro/telemetry/export.py::_escape",
            "repro/telemetry/export.py::_family_lines",
            "repro/telemetry/export.py::_fmt",
            "repro/telemetry/export.py::_labels_text",
            "repro/telemetry/export.py::to_prometheus",
            "repro/telemetry/registry.py::Histogram.cumulative_buckets"),
    **_kept("one-call scrape writer for library callers; `repro metrics` writes "
            "the text it rendered",
            "repro/telemetry/export.py::write_prometheus"),
    **_kept(METRIC,
            "repro/telemetry/registry.py::Gauge.add",
            "repro/telemetry/registry.py::MetricFamily.set",
            "repro/telemetry/registry.py::MetricFamily.value",
            "repro/telemetry/registry.py::MetricFamily.count",
            "repro/telemetry/registry.py::MetricFamily.mean",
            "repro/telemetry/registry.py::MetricFamily.sum",
            "repro/telemetry/registry.py::MetricsRegistry.__len__",
            "repro/telemetry/registry.py::MetricsRegistry.get",
            "repro/telemetry/registry.py::MetricsRegistry.snapshot"),
    **_kept("adaptive flush's delay-budget deadline (`--net-flush-mode adaptive`); "
            "no entry point runs adaptive flush with a delay budget",
            "repro/transport/channel.py::Channel._on_deadline"),
    **_kept("no-op `perfbench/layers.py` wraps by name; it goes with "
            "`prepare_batch`",
            "repro/filtering/store/chunks.py::ChunkedMatrixStore.compact",
            "repro/transport/channel.py::Transport.on_consumed"),
    **_kept("`bench_ablation_backlog`'s load step, built and run inside its "
            "timed body, where pytest-benchmark pauses the hook",
            "repro/workloads/rates.py::staircase",
            "repro/workloads/rates.py::staircase.<locals>.rate"),
}


# -- entry points -------------------------------------------------------------

def entry_points(scratch: pathlib.Path) -> List[Tuple[str, List[str]]]:
    """``(label, argv after the interpreter)`` of every entry point."""
    pytest = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]
    runs = [
        (bench.stem, pytest + [str(bench)])
        for bench in sorted((ROOT / "benchmarks").glob("bench_*.py"))
    ]
    runs += [
        (f"perfbench_{w}", ["-m", "perfbench", "run", "--workload", w,
                            "--reps", "1", "--trace", "1"])
        for w in ("pipeline_burst", "match_100k", "outofcore_churn_100k",
                  "elastic_surge")
    ]
    cli = ["-m", "repro.cli"]
    runs += [
        ("cli_figure1", cli + ["figure1"]),
        ("cli_figure6", cli + ["figure6", "--hosts", "2", "12", "--iterations", "2"]),
        ("cli_table1", cli + ["table1", "--migrations", "3"]),
        ("cli_figure7", cli + ["figure7"]),
        ("cli_figure8", cli + ["figure8", "--time-scale", "0.1"]),
        ("cli_figure9", cli + ["figure9", "--time-scale", "0.2"]),
        ("cli_cost", cli + ["cost", "--time-scale", "0.1"]),
        ("cli_trace", cli + ["trace", "--out", str(scratch / "trace.jsonl")]),
        ("cli_metrics", cli + ["metrics"]),
        ("cli_policy", cli + ["policy"]),
        ("cli_chaos", cli + ["chaos", "--scenario", "all"]),
    ]
    runs += [
        (f"cli_ablations_{which}",
         cli + ["ablations", "--which", which, "--time-scale", "0.1"])
        for which in ("selection", "grace", "target")
    ]
    runs += [
        (f"example_{example.stem}", [str(example)])
        for example in sorted((ROOT / "examples").glob("*.py"))
    ]
    return runs


def run_all(records: pathlib.Path) -> List[str]:
    """Run every entry point and tier-1; return the failures."""
    hook_dir = records / "hook"
    hook_dir.mkdir(parents=True, exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
    work = [(f"entry/{label}", argv)
            for label, argv in entry_points(records / "entry")]
    work.append(("tier1/tests", ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                                 str(ROOT / "tests")]))

    def run(item) -> str:
        name, argv = item
        out = records / name
        out.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(hook_dir), str(SRC), str(ROOT)])
        env["REACHABILITY_SRC"] = os.path.realpath(SRC) + os.sep
        env["REACHABILITY_OUT"] = str(out)
        with open(records / f"{name.replace('/', '__')}.log", "w") as log:
            status = subprocess.call([sys.executable] + argv, cwd=out, env=env,
                                     stdout=log, stderr=subprocess.STDOUT)
        print(f"{'ok  ' if status == 0 else 'FAIL'} {name}", flush=True)
        return "" if status == 0 else name

    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        failed = [name for name in pool.map(run, work) if name]
    (records / "failed.txt").write_text("".join(f"{n}\n" for n in failed))
    return failed


def read_records(records: pathlib.Path, group: str) -> Set[Key]:
    """Every key recorded under ``records/<group>/``."""
    keys: Set[Key] = set()
    for tsv in (records / group).glob("*/*.tsv"):
        for line in tsv.read_text(encoding="utf-8").splitlines():
            path, first, name = line.split("\t")
            keys.add((path, int(first), name))
    return keys


# -- the universe -------------------------------------------------------------

def functions() -> Set[Key]:
    """Every named function compiled from ``src/`` (not module or class
    bodies, not lambdas or comprehensions)."""
    keys: Set[Key] = set()
    for path in sorted(SRC.rglob("*.py")):
        relative = str(path.relative_to(SRC))
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
                    if (const.co_flags & inspect.CO_OPTIMIZED
                            and const.co_name not in ANONYMOUS):
                        keys.add((relative, const.co_firstlineno, const.co_qualname))
    return keys


# -- the report ---------------------------------------------------------------

def report(universe: Set[Key], reached: Set[Key], tier1: Set[Key]
           ) -> Tuple[str, List[str], List[str]]:
    """The markdown report, the entries left undecided and the decisions
    naming no unreached function."""
    any_entry = reached & universe
    unreached = universe - any_entry
    test_only = unreached & tier1
    rows, undecided, used = [], [], set()
    for path, first, name in sorted(unreached):
        decision = f"{path}::{name}"
        reason = KEPT.get(decision)
        used.add(decision)
        if reason is None:
            undecided.append(decision)
            reason = "**undecided**"
        who = "tier-1 only" if (path, first, name) in test_only else "nothing"
        rows.append(f"| `{path}` | `{name}` | {who} | {reason} |")
    stale = sorted(set(KEPT) - used)
    lines = [
        "Regenerate with `python tools/reachability.py`.",
        "",
        "| named functions in `src/` | count |",
        "|---|---|",
        f"| compiled | {len(universe)} |",
        f"| reached by an entry point | {len(any_entry)} |",
        f"| reached only by tier-1 | {len(test_only)} |",
        f"| reached by nothing | {len(unreached - test_only)} |",
        "",
        "| file | function | reached by | kept because |",
        "|---|---|---|---|",
        *rows,
    ]
    return "\n".join(lines), undecided, stale


def write_report(text: str) -> None:
    document = REPORT.read_text(encoding="utf-8")
    head, rest = document.split(BEGIN, 1)
    _, tail = rest.split(END, 1)
    REPORT.write_text(f"{head}{BEGIN}\n{text}\n{END}{tail}", encoding="utf-8")


def main(argv: Iterable[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reuse", action="store_true",
                        help=f"re-diff the records of the last run in {RECORDS}")
    args = parser.parse_args(argv)
    records = RECORDS
    if args.reuse:
        failed = (records / "failed.txt").read_text().split()
    else:
        shutil.rmtree(records, ignore_errors=True)
        failed = run_all(records)
    if failed:
        print(f"entry points failed (see the logs in {records}): " + ", ".join(failed))
        return 1
    text, undecided, stale = report(
        functions(), read_records(records, "entry"), read_records(records, "tier1")
    )
    write_report(text)
    print(text)
    print(f"\nreport written to {REPORT.relative_to(ROOT)}")
    if undecided:
        print(f"{len(undecided)} entries have no decision:")
        print("\n".join(f"  {entry}" for entry in undecided))
    if stale:
        print(f"{len(stale)} decisions name no unreached function:")
        print("\n".join(f"  {entry}" for entry in stale))
    return 1 if undecided or stale else 0


if __name__ == "__main__":
    sys.exit(main())
