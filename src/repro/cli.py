"""Command-line interface: regenerate any paper experiment from a shell.

Usage::

    python -m repro.cli figure1 [--resolution 300]
    python -m repro.cli figure6 [--hosts 2 4 6 8 10 12]
    python -m repro.cli table1  [--migrations 25]
    python -m repro.cli figure7
    python -m repro.cli figure8 [--time-scale 0.25]
    python -m repro.cli figure9 [--time-scale 0.5]
    python -m repro.cli ablations [--which selection|grace|target]
    python -m repro.cli trace   [--out trace.jsonl]
    python -m repro.cli metrics [--format table|prom|json]
    python -m repro.cli policy  [--slo-veto]

Each experiment command prints the same ``paper vs measured`` report the
benchmark harness produces (see EXPERIMENTS.md).  ``trace`` and
``metrics`` drive a small telemetry-enabled deployment (with one live M
slice migration) and emit its span trace / metric registry — the ops
surface documented in OBSERVABILITY.md.  ``policy`` prints the resolved
elasticity-policy thresholds with the provenance of each knob (CLI
flag or built-in default); the same
``--slo-veto``/``--slo-*`` flags steer the elastic experiments
(``figure8``/``figure9``).  Policy and ``--net-*`` flags
are derived from the fields of their knob group by
:func:`repro.config.add_flags`; none is declared here.  The demo behind
``trace``/``metrics`` matches statistically, so no store knob would
reach a backend and none is offered.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .config import add_flags, flag_overrides, from_flags, provenance
from .elastic import ElasticityPolicy
from .telemetry import format_series, format_table
from .transport import TransportConfig

__all__ = ["main", "build_parser"]


def _flags_over_defaults(args, cls, prefix: str = ""):
    """Knob group ``cls``: each passed flag over its field's default."""
    try:
        return from_flags(cls, **flag_overrides(args, cls, prefix))
    except ValueError as exc:
        raise SystemExit(f"{args.command}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="E-STREAMHUB reproduction: regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figure1", help="FSE tick trace (Figure 1)")
    p.add_argument("--resolution", type=float, default=300.0,
                   help="sampling resolution in seconds")

    p = sub.add_parser("figure6", help="baseline throughput and delays (Figure 6)")
    p.add_argument("--hosts", type=int, nargs="+", default=[2, 4, 6, 8, 10, 12])
    p.add_argument("--iterations", type=int, default=5,
                   help="binary-search iterations per configuration")

    p = sub.add_parser("table1", help="migration times (Table I)")
    p.add_argument("--migrations", type=int, default=25,
                   help="migrations per operator")

    sub.add_parser("figure7", help="delays under consecutive migrations (Figure 7)")

    p = sub.add_parser("figure8", help="synthetic elastic scaling (Figure 8)")
    p.add_argument("--time-scale", type=float, default=0.25)
    p.add_argument("--peak", type=float, default=350.0)
    add_flags(p, ElasticityPolicy)

    p = sub.add_parser("figure9", help="FSE trace elastic scaling (Figure 9)")
    p.add_argument("--time-scale", type=float, default=0.5)
    p.add_argument("--peak", type=float, default=190.0)
    add_flags(p, ElasticityPolicy)

    p = sub.add_parser("ablations", help="enforcer design-choice ablations")
    p.add_argument("--which", choices=["selection", "grace", "target"],
                   default="selection")
    p.add_argument("--time-scale", type=float, default=0.15)

    p = sub.add_parser("cost", help="elastic vs static provisioning cost (§I)")
    p.add_argument("--time-scale", type=float, default=0.35)

    p = sub.add_parser(
        "trace",
        help="record a sample JSONL span trace (pipeline + one migration)",
    )
    p.add_argument("--out", default="trace.jsonl",
                   help="JSONL output path (default: trace.jsonl)")
    p.add_argument("--publications", type=int, default=200)
    p.add_argument("--no-migration", action="store_true",
                   help="skip the mid-run M slice migration")
    add_flags(p, TransportConfig, "net_")

    p = sub.add_parser(
        "metrics",
        help="render the telemetry registry snapshot of a sample run",
    )
    p.add_argument("--format", choices=["table", "prom", "json"],
                   default="table", dest="fmt")
    p.add_argument("--out", default=None,
                   help="write to this file instead of stdout")
    p.add_argument("--publications", type=int, default=200)
    add_flags(p, TransportConfig, "net_")

    p = sub.add_parser(
        "policy",
        help="print the resolved elasticity-policy knobs",
    )
    add_flags(p, ElasticityPolicy)

    p = sub.add_parser(
        "chaos",
        help="run the chaos scenarios (RESILIENCE.md) and print verdicts",
    )
    p.add_argument(
        "--scenario",
        choices=["rack-loss", "manager-crash", "partition", "all"],
        default="all",
        help="which scenario family to run (default: all)",
    )
    p.add_argument("--rack-size", type=int, default=2,
                   help="hosts lost at once in the rack-loss scenario")
    p.add_argument(
        "--phase", default="copy",
        choices=["pre", "sync", "pause", "copy", "post"],
        help="migration phase whose start crashes the manager",
    )
    p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="also write each scenario's span trace (fault.injected, "
             "recovery.*) as JSONL, one file per scenario next to PATH",
    )
    return parser


def _cmd_figure1(args) -> None:
    from .workloads import FrankfurtTraceModel

    series = FrankfurtTraceModel().series(resolution_s=args.resolution)
    hourly = [
        (f"{t / 3600:04.1f}h", round(rate))
        for t, rate in series
        if t % 3600 == 0
    ]
    print("Figure 1 — FSE tick volume (synthetic reconstruction, ticks/s)")
    print(format_series("hour, ticks/s", hourly))


def _cmd_figure6(args) -> None:
    from .experiments import ExperimentSetup, run_figure6

    setup = ExperimentSetup()
    results = run_figure6(
        host_counts=args.hosts, setup=setup, search_iterations=args.iterations
    )
    print("Figure 6 — baseline performance (paper: 422 pub/s at 12 hosts)")
    rows = []
    for r in results:
        stack = dict(r.delay_percentiles)
        rows.append([
            r.hosts,
            round(r.max_throughput, 1),
            round(r.max_throughput * setup.subscriptions / 1e6, 1),
            round(r.delay_stats.minimum * 1000),
            round(stack[0.75] * 1000),
        ])
    print(format_table(
        ["hosts", "max pub/s", "Mops/s", "delay min ms", "delay p75 ms"], rows
    ))


def _cmd_table1(args) -> None:
    from .experiments import run_table1

    rows = run_table1(migrations_per_operator=args.migrations)
    print("Table I — migration times (paper: AP 232±31, M(12.5K) 1497±354,")
    print("          M(50K) 2533±1557, EP 275±52 ms)")
    print(format_table(
        ["operator", "avg ms", "std ms"],
        [[r.operator, round(r.average_ms), round(r.std_ms)] for r in rows],
    ))


def _cmd_figure7(args) -> None:
    from .experiments import run_figure7

    result = run_figure7()
    print("Figure 7 — delays under consecutive migrations")
    print("migrations at: " + ", ".join(
        f"t={t:.0f}s ({sid})" for t, sid in result.migration_marks
    ))
    print(format_table(
        ["window", "mean ms", "max ms"],
        [
            [f"{w.window_start:.0f}s", round(w.mean * 1000), round(w.maximum * 1000)]
            for w in result.delay_windows
        ],
    ))
    print(f"steady ≈ {result.steady_state_mean_s * 1000:.0f} ms "
          f"(paper ≈ 500); peak {result.peak_delay_s * 1000:.0f} ms (paper < 2000)")


def _print_elastic(result) -> None:
    print(format_table(
        ["time", "hosts", "cpu min", "cpu avg", "cpu max"],
        [
            [f"{t:.0f}s", count, f"{lo:.0%}", f"{avg:.0%}", f"{hi:.0%}"]
            for (t, count), (_, lo, avg, hi) in list(
                zip(result.host_series, result.utilization_series)
            )[:: max(1, len(result.host_series) // 25)]
        ],
    ))
    print(format_table(
        ["window", "delay mean ms", "delay max ms"],
        [
            [f"{w.window_start:.0f}s", round(w.mean * 1000), round(w.maximum * 1000)]
            for w in result.delay_windows[:: max(1, len(result.delay_windows) // 15)]
        ],
    ))
    print(
        f"hosts 1 → {result.max_hosts} → {result.final_hosts}; "
        f"decisions {len(result.decisions)}; migrations "
        f"{len(result.migration_reports)}; published {result.published}; "
        f"notified {result.notified}"
    )


def _cmd_figure8(args) -> None:
    from .experiments import run_figure8

    print(f"Figure 8 — synthetic ramp to {args.peak:g} pub/s "
          f"(time scale {args.time_scale:g}; paper: 1 → ~15 → 1 hosts)")
    _print_elastic(run_figure8(
        time_scale=args.time_scale, peak_rate=args.peak,
        policy=_flags_over_defaults(args, ElasticityPolicy),
    ))


def _cmd_figure9(args) -> None:
    from .experiments import run_figure9

    print(f"Figure 9 — FSE trace replay, peak {args.peak:g} pub/s "
          f"(time scale {args.time_scale:g}; paper: 1 to 8 hosts)")
    _print_elastic(run_figure9(
        time_scale=args.time_scale, peak_rate=args.peak,
        policy=_flags_over_defaults(args, ElasticityPolicy),
    ))


def _cmd_ablations(args) -> None:
    from .experiments import (
        run_grace_period_ablation,
        run_selection_ablation,
        run_target_utilization_ablation,
    )

    runner = {
        "selection": run_selection_ablation,
        "grace": run_grace_period_ablation,
        "target": run_target_utilization_ablation,
    }[args.which]
    rows = runner(time_scale=args.time_scale)
    print(f"Ablation — {args.which}")
    print(format_table(
        ["variant", "migrations", "state MB", "decisions", "mean delay ms",
         "max hosts"],
        [
            [r.variant, r.migrations, round(r.state_moved_mb, 1), r.decisions,
             round(r.mean_delay_s * 1000), r.max_hosts]
            for r in rows
        ],
    ))


def _cmd_cost(args) -> None:
    from .experiments import run_cost_effectiveness

    comparison = run_cost_effectiveness(time_scale=args.time_scale)
    print("Cost-effectiveness — elastic vs static provisioning (FSE day)")
    print(format_table(
        ["provisioning", "host-seconds", "avg hosts"],
        [
            ["static @ peak", round(comparison.static_peak_host_seconds),
             comparison.peak_hosts],
            ["elastic", round(comparison.elastic_host_seconds),
             round(comparison.average_hosts, 2)],
        ],
    ))
    print(f"savings vs static peak: {comparison.savings_vs_static_peak:.0%}")


def _telemetry_demo(
    publications: int,
    net: TransportConfig,
    migrate: bool = True,
):
    """One small telemetry-enabled deployment, fully deterministic.

    Two engine hosts run a 2/4/2-slice hub; a burst of ``publications``
    flows through while (optionally) the stateful slice ``M:0``
    live-migrates between the hosts.  Matching is statistically sampled.
    Returns ``(telemetry, migration_report_or_None)``.
    """
    from .cluster import CloudProvider, HostSpec
    from .pubsub import HubConfig, Publication, StreamHub, Subscription
    from .sim import Environment
    from .telemetry import Telemetry

    env = Environment()
    telemetry = Telemetry(env)
    cloud = CloudProvider(env, spec=HostSpec(cores=8), max_hosts=4)
    hosts = [cloud.provision_now() for _ in range(3)]
    config = HubConfig.sampled(
        matching_rate=0.05,
        encrypted=False,
        ap_slices=2,
        m_slices=4,
        ep_slices=2,
        sink_slices=1,
        telemetry=telemetry,
        net=net,
    )
    hub = StreamHub(env, cloud.network, config)
    hub.deploy_all_on(hosts[:2], hosts[2:])
    for sub_id in range(50):
        hub.subscribe(Subscription(sub_id, 1000 + sub_id))
    env.run()

    report_box = []
    if migrate:
        def migration():
            yield env.timeout(0.05)
            report = yield hub.runtime.migrate("M:0", hosts[1])
            report_box.append(report)

        env.process(migration())
    for pub_id in range(publications):
        hub.publish(Publication(pub_id, published_at=env.now))
    env.run()
    return telemetry, (report_box[0] if report_box else None)


def _cmd_trace(args) -> None:
    tel, report = _telemetry_demo(
        args.publications,
        migrate=not args.no_migration,
        net=_flags_over_defaults(args, TransportConfig, "net_"),
    )
    tel.tracer.write_jsonl(args.out)
    print(f"trace: {len(tel.tracer.spans)} spans -> {args.out}")
    print(format_table(
        ["span", "count", "total s", "mean s", "max s"],
        [
            [name, count, f"{total:.6f}", f"{mean:.6f}", f"{peak:.6f}"]
            for name, count, total, mean, peak in tel.tracer.breakdown()
        ],
    ))
    phases = [s for s in tel.tracer.spans if s.name.startswith("migration.")]
    if report is not None and phases:
        phase_sum = sum(s.duration_s for s in phases)
        print(
            f"migration {report.slice_id}: "
            + ", ".join(
                f"{s.name.split('.', 1)[1]} {s.duration_s * 1000:.1f} ms"
                for s in phases
            )
        )
        print(
            f"phase sum {phase_sum * 1000:.1f} ms == "
            f"measured delay {report.duration_s * 1000:.1f} ms "
            f"(interruption {report.interruption_s * 1000:.1f} ms)"
        )


def _cmd_metrics(args) -> None:
    from .telemetry import to_json, to_prometheus, write_atomic

    tel, _ = _telemetry_demo(
        args.publications, net=_flags_over_defaults(args, TransportConfig, "net_"),
    )
    registry = tel.metrics
    if args.fmt == "table":
        text, what = registry.render(), "table"
    elif args.fmt == "prom":
        text, what = to_prometheus(registry), "prometheus scrape"
    else:
        text, what = to_json(registry.snapshot()), "JSON snapshot"
    if args.out is None:
        print(text)
        return
    # A table file ends in a newline; the scrape and the JSON end as rendered.
    write_atomic(args.out, [text, "\n"] if args.fmt == "table" else [text])
    print(f"metrics: {what} -> {args.out}")


def _cmd_policy(args) -> None:
    _flags_over_defaults(args, ElasticityPolicy)  # a rejected value exits here
    print("Elasticity policy — resolved configuration")
    rows = provenance(ElasticityPolicy, **flag_overrides(args, ElasticityPolicy))
    print(format_table(["knob", "value", "source"], rows))


def _cmd_chaos(args) -> None:
    from .experiments import run_manager_crash, run_partition_heal, run_rack_loss

    def trace_path(scenario):
        if args.trace is None:
            return None
        stem, ext = os.path.splitext(args.trace)
        return f"{stem}_{scenario}{ext or '.jsonl'}"

    outcomes = []
    if args.scenario in ("rack-loss", "all"):
        outcomes.append(run_rack_loss(
            rack_size=args.rack_size, trace_out=trace_path("rack_loss")
        ))
    if args.scenario in ("manager-crash", "all"):
        outcomes.append(run_manager_crash(
            phase=args.phase, trace_out=trace_path("manager_crash_migration"),
        ))
    if args.scenario in ("partition", "all"):
        outcomes.append(run_partition_heal(
            trace_out=trace_path("partition_heal")
        ))
        outcomes.append(run_partition_heal(
            migrate=True, trace_out=trace_path("partition_heal_migrate")
        ))
    if args.trace is not None:
        print(f"span traces written next to {args.trace}")
    print("Chaos scenarios — delivered multiset vs fault-free baseline")
    rows = [
        [
            o.scenario,
            o.published,
            o.lost,
            o.duplicates_suppressed,
            "yes" if o.multiset_identical else "NO",
        ]
        for o in outcomes
    ]
    print(
        format_table(
            ["scenario", "published", "lost", "dups suppressed", "identical"],
            rows,
        )
    )
    for o in outcomes:
        print(f"{o.scenario}: {o.detail}")
    if not all(o.zero_loss and o.multiset_identical for o in outcomes):
        raise SystemExit("chaos: a scenario lost or corrupted notifications")


_COMMANDS = {
    "chaos": _cmd_chaos,
    "cost": _cmd_cost,
    "policy": _cmd_policy,
    "figure1": _cmd_figure1,
    "figure6": _cmd_figure6,
    "table1": _cmd_table1,
    "figure7": _cmd_figure7,
    "figure8": _cmd_figure8,
    "figure9": _cmd_figure9,
    "ablations": _cmd_ablations,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _COMMANDS[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
