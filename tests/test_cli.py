"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_knows_all_commands():
    parser = build_parser()
    for command in ["figure1", "figure6", "table1", "figure7", "figure8",
                    "figure9", "ablations", "trace", "metrics", "policy",
                    "chaos"]:
        args = parser.parse_args([command])
        assert args.command == command


def test_chaos_argument_defaults():
    args = build_parser().parse_args(["chaos"])
    assert args.scenario == "all"
    assert args.rack_size == 2
    assert args.phase == "copy"
    assert args.trace is None


def test_chaos_help_lists_scenarios(capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["chaos", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for token in ("rack-loss", "manager-crash", "partition", "all"):
        assert token in out


def test_chaos_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["chaos", "--scenario", "earthquake"])


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_figure1_command_prints_trace(capsys):
    assert main(["figure1", "--resolution", "3600"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out
    assert "09.0h" in out or "9.0h" in out


def test_figure8_argument_defaults():
    args = build_parser().parse_args(["figure8"])
    assert args.time_scale == 0.25
    assert args.peak == 350.0


def test_table1_small_run_via_main(capsys, monkeypatch):
    # Shrink the experiment through its own knobs for a fast CLI check.
    import repro.cli as cli
    from repro.experiments import run_table1

    def tiny_table1(migrations_per_operator):
        return run_table1(
            migrations_per_operator=2,
            subscriptions_per_m_slice=(500,),
            settle_s=1.0,
        )

    monkeypatch.setattr("repro.experiments.run_table1", tiny_table1)
    assert cli.main(["table1", "--migrations", "2"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    assert "AP" in out and "EP" in out


def test_ablations_choice_validation():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["ablations", "--which", "bogus"])


def test_trace_command_writes_jsonl(capsys, tmp_path):
    from repro.telemetry import read_jsonl

    out = tmp_path / "trace.jsonl"
    assert main(["trace", "--out", str(out), "--publications", "20"]) == 0
    printed = capsys.readouterr().out
    assert "phase sum" in printed
    records = read_jsonl(str(out))
    names = {r["name"] for r in records}
    assert {"hop.AP", "hop.M", "hop.EP", "hop.SINK", "migration"} <= names
    assert all(r["end"] is not None for r in records)


def test_trace_command_without_migration(capsys, tmp_path):
    out = tmp_path / "trace.jsonl"
    assert main(["trace", "--out", str(out), "--publications", "10",
                 "--no-migration"]) == 0
    printed = capsys.readouterr().out
    assert "phase sum" not in printed
    assert out.exists()


def _policy_from(argv):
    from repro.config import flag_overrides, from_flags
    from repro.elastic import ElasticityPolicy

    args = build_parser().parse_args(argv)
    return from_flags(ElasticityPolicy, **flag_overrides(args, ElasticityPolicy))


def test_figure8_policy_flags_resolve_to_a_policy():
    policy = _policy_from(
        ["figure8", "--slo-veto", "--slo-p99-s", "0.5",
         "--no-backlog-aware-scaling"]
    )
    assert policy.slo_veto is True
    assert policy.slo_p99_s == 0.5
    assert policy.backlog_aware_scaling is False
    # Unset flags fall through to defaults.
    assert policy.grace_period_s == 30.0


def test_policy_command_rejects_a_bad_slo_target(capsys):
    with pytest.raises(SystemExit, match="slo_p99_s"):
        main(["policy", "--slo-p99-s", "0"])


def test_metrics_command_renders_table(capsys):
    assert main(["metrics", "--publications", "20"]) == 0
    out = capsys.readouterr().out
    assert "engine_events_processed_total" in out
    assert "migrations_total" in out


def test_metrics_command_prometheus_output(capsys, tmp_path):
    out = tmp_path / "metrics.prom"
    assert main(["metrics", "--publications", "20", "--format", "prom",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert "# TYPE engine_events_processed_total counter" in text
    assert 'engine_events_processed_total{operator="M"}' in text
    assert "notification_delay_seconds_bucket" in text


def test_metrics_command_json_output(tmp_path):
    import json

    out = tmp_path / "metrics.json"
    assert main(["metrics", "--publications", "20", "--format", "json",
                 "--out", str(out)]) == 0
    snapshot = json.loads(out.read_text())
    assert snapshot["migrations_total"]["kind"] == "counter"
