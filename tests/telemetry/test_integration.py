"""End-to-end telemetry: traces and metrics from real simulation runs.

Covers the PR's acceptance criteria: a Fig. 7-style migration run whose
per-phase span durations sum to the measured migration delay, heartbeat
sampling into the registry gauges, enforcer decision records, trace
determinism, and telemetry being a pure observer (identical notifications
with it on or off).
"""

import pytest

from repro.elastic import (
    ElasticityEnforcer,
    ElasticityPolicy,
    HostProbe,
    ProbeCollector,
    ProbeSet,
    SliceProbe,
    Violation,
    ViolationKind,
)
from repro.elastic.signals import CpuBandEvidence
from repro.experiments import Deployment, ExperimentSetup
from repro.telemetry import Telemetry, read_jsonl

MIGRATED_SLICES = ("AP:0", "M:1", "EP:0")
PHASE_NAMES = [
    "migration.pre",
    "migration.sync",
    "migration.pause",
    "migration.copy",
    "migration.post",
]


def small_setup(telemetry):
    return ExperimentSetup(
        subscriptions=400,
        matching_rate=0.05,
        ap_slices=2,
        m_slices=4,
        ep_slices=2,
        sink_slices=1,
        parallelism=4,
        max_hosts=8,
        telemetry=telemetry,
    )


def run_traced_migrations(telemetry):
    """A small Figure 7-style run: constant flow + three live migrations."""
    deployment = Deployment(small_setup(telemetry))
    deployment.deploy_groups(1, 2, 1)
    deployment.preload_subscriptions()
    env = deployment.env
    runtime = deployment.hub.runtime
    reports = []

    def plan():
        yield env.timeout(1.0)
        for slice_id in MIGRATED_SLICES:
            current = runtime.host_of(slice_id)
            destination = next(
                h for h in deployment.engine_hosts if h is not current
            )
            report = yield runtime.migrate(slice_id, destination)
            reports.append(report)
            yield env.timeout(0.5)

    deployment.source.publish_constant(50.0, duration_s=4.0)
    env.process(plan())
    env.run()
    return deployment, reports


@pytest.fixture(scope="module")
def traced_run():
    telemetry = Telemetry()
    deployment, reports = run_traced_migrations(telemetry)
    return telemetry, deployment, reports


class TestMigrationTrace:
    def test_one_root_span_per_migration(self, traced_run):
        telemetry, _, reports = traced_run
        roots = telemetry.tracer.find("migration")
        assert len(roots) == len(reports) == len(MIGRATED_SLICES)
        assert [r.attrs["slice"] for r in roots] == list(MIGRATED_SLICES)

    def test_phases_tile_the_migration(self, traced_run):
        """Per-phase durations sum to the measured migration delay."""
        telemetry, _, reports = traced_run
        for root, report in zip(telemetry.tracer.find("migration"), reports):
            phases = [
                s for s in telemetry.tracer.spans
                if s.parent_id == root.span_id
            ]
            assert [p.name for p in phases] == PHASE_NAMES
            assert sum(p.duration_s for p in phases) == pytest.approx(
                report.duration_s
            )
            # Contiguous tiling: each phase starts where the previous ended.
            assert phases[0].start == report.started_at
            for before, after in zip(phases, phases[1:]):
                assert before.end == after.start
            assert phases[-1].end == report.completed_at

    def test_pause_plus_copy_equals_interruption(self, traced_run):
        telemetry, _, reports = traced_run
        for root, report in zip(telemetry.tracer.find("migration"), reports):
            by_name = {
                s.name: s for s in telemetry.tracer.spans
                if s.parent_id == root.span_id
            }
            interruption = (
                by_name["migration.pause"].duration_s
                + by_name["migration.copy"].duration_s
            )
            assert interruption == pytest.approx(report.interruption_s)

    def test_root_attrs_match_report(self, traced_run):
        telemetry, _, reports = traced_run
        for root, report in zip(telemetry.tracer.find("migration"), reports):
            assert root.attrs["from_host"] == report.source_host
            assert root.attrs["to_host"] == report.destination_host
            assert root.attrs["state_bytes"] == report.state_bytes
            assert root.attrs["duration_s"] == pytest.approx(report.duration_s)

    def test_phase_sum_survives_jsonl_roundtrip(self, traced_run, tmp_path):
        telemetry, _, reports = traced_run
        path = tmp_path / "trace.jsonl"
        telemetry.tracer.write_jsonl(str(path))
        records = read_jsonl(str(path))
        roots = [r for r in records if r["name"] == "migration"]
        assert len(roots) == len(reports)
        for root, report in zip(roots, reports):
            phase_sum = sum(
                r["duration_s"] for r in records
                if r["parent_id"] == root["span_id"]
            )
            assert phase_sum == pytest.approx(report.duration_s)

    def test_migration_metrics_recorded(self, traced_run):
        telemetry, _, reports = traced_run
        assert telemetry.migrations.value == len(reports)
        assert telemetry.migration_duration.count == len(reports)
        assert telemetry.migration_duration.sum == pytest.approx(
            sum(r.duration_s for r in reports)
        )
        # The M slice carries stored subscriptions, so state moved.
        assert telemetry.migration_state_bytes.value > 0


class TestEventPlaneTrace:
    def test_hop_spans_cover_the_pipeline(self, traced_run):
        telemetry, _, _ = traced_run
        for operator in ("AP", "M", "EP", "SINK"):
            hops = telemetry.tracer.find(f"hop.{operator}")
            assert hops, f"no hop spans for {operator}"
            assert all(h.end is not None for h in hops)

    def test_hops_correlated_by_pub_id(self, traced_run):
        telemetry, _, _ = traced_run
        ap_pubs = {
            s.attrs.get("pub_id") for s in telemetry.tracer.find("hop.AP")
        }
        m_pubs = {
            s.attrs.get("pub_id") for s in telemetry.tracer.find("hop.M")
        }
        assert ap_pubs - {None}  # publications are identified
        assert (m_pubs - {None}) <= (ap_pubs - {None})

    def test_event_plane_metrics_recorded(self, traced_run):
        telemetry, deployment, _ = traced_run
        processed = telemetry.events_processed
        assert processed.labels(operator="M").value > 0
        assert telemetry.matcher_publications.value > 0
        assert telemetry.matcher_matches.value > 0
        assert telemetry.net_messages.value > 0
        delivered = len(deployment.hub.delay_tracker.samples)
        assert telemetry.notification_delay.count == delivered > 0


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self, tmp_path):
        paths = []
        for i in range(2):
            telemetry = Telemetry()
            run_traced_migrations(telemetry)
            path = tmp_path / f"trace{i}.jsonl"
            telemetry.tracer.write_jsonl(str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_telemetry_is_a_pure_observer(self, traced_run):
        """A bound bundle and no bundle deliver identically."""
        _, traced, traced_reports = traced_run
        bare, bare_reports = run_traced_migrations(None)

        def observed(deployment):
            hub = deployment.hub
            return (
                sorted(
                    (n.pub_id, n.count, tuple(sorted(n.subscriber_ids or ())))
                    for n in hub.notification_log
                ),
                {
                    slice_id: hub.runtime.slice_stats(slice_id)["processed"]
                    for slice_id in hub.engine_slice_ids()
                },
                [(s.delivered_at, s.delay) for s in hub.delay_tracker.samples],
            )

        baseline = observed(traced)
        assert baseline[0] and baseline[2]
        assert observed(bare) == baseline
        assert [r.duration_s for r in bare_reports] == [
            r.duration_s for r in traced_reports
        ]


class TestHeartbeatSampling:
    def test_probe_rounds_fill_the_gauges(self):
        telemetry = Telemetry()
        deployment = Deployment(small_setup(telemetry))
        deployment.deploy_groups(1, 2, 1)
        deployment.preload_subscriptions()
        runtime = deployment.hub.runtime
        managed = [f"M:{i}" for i in range(4)]
        collector = ProbeCollector(
            runtime,
            managed_slices=managed,
            hosts_fn=lambda: deployment.engine_hosts,
            interval_s=1.0,
            telemetry=telemetry,
        )
        collector.start()
        deployment.source.publish_constant(50.0, duration_s=3.0)
        deployment.env.run(until=3.5)

        assert telemetry.heartbeats.value >= 3
        for slice_id in managed:
            child = telemetry.slice_state_bytes.labels(slice=slice_id)
            assert child.value > 0  # preloaded subscriptions have weight
        host_ids = {h.host_id for h in deployment.engine_hosts}
        sampled_hosts = {
            labels["host"]
            for labels, _ in telemetry.host_cpu_utilization.samples()
        }
        assert sampled_hosts == host_ids


def _probe_set(now=100.0, window_s=5.0):
    """A hand-built heartbeat round with one clearly overloaded host."""
    hosts = {
        "host-0": HostProbe(host_id="host-0", cores=8, cpu_utilization=0.9),
        "host-1": HostProbe(host_id="host-1", cores=8, cpu_utilization=0.2),
    }
    slices = {
        "M:0": SliceProbe("M:0", "host-0", cpu_cores=3.0,
                          memory_bytes=1 << 20, queue_length=0),
        "M:1": SliceProbe("M:1", "host-0", cpu_cores=2.5,
                          memory_bytes=1 << 20, queue_length=0),
        "M:2": SliceProbe("M:2", "host-0", cpu_cores=1.7,
                          memory_bytes=1 << 20, queue_length=0),
        "M:3": SliceProbe("M:3", "host-1", cpu_cores=1.6,
                          memory_bytes=1 << 20, queue_length=0),
    }
    return ProbeSet(time=now, window_s=window_s, hosts=hosts, slices=slices)


class TestEnforcerDecisionRecord:
    def test_decision_event_carries_full_context(self):
        telemetry = Telemetry()
        enforcer = ElasticityEnforcer(
            ElasticityPolicy(), host_cores=8, telemetry=telemetry
        )
        probes = _probe_set()
        violation = Violation(
            ViolationKind.GLOBAL_OVERLOAD, CpuBandEvidence(0.9, 0.70, 2)
        )
        decision = enforcer.resolve(probes, violation)
        assert decision is not None and decision.migrations

        events = telemetry.tracer.find("enforcer.decision")
        assert len(events) == 1
        attrs = events[0].attrs
        assert attrs["rule"] == "global_overload"
        assert attrs["measured"] == 0.9
        assert attrs["window_time"] == probes.time
        assert attrs["window_s"] == probes.window_s
        assert attrs["avg_utilization"] == pytest.approx(0.55)
        assert attrs["hosts"] == 2
        assert attrs["actionable"] is True
        assert "host_id" not in attrs  # global rule: no single host
        assert attrs["selected_slices"] == [
            m.slice_id for m in decision.migrations
        ]
        assert attrs["placement"] == {
            m.slice_id: m.to_host for m in decision.migrations
        }
        assert attrs["new_hosts"] == decision.new_hosts
        # The CPU rule's evidence is flattened beside the decision.
        assert attrs["cpu_utilization"] == 0.9

        rule = telemetry.rule_firings.labels(rule="global_overload")
        assert rule.value == 1
        kind = telemetry.scaling_decisions.labels(kind="global_overload")
        assert kind.value == 1

    def test_local_rule_records_host_id(self):
        telemetry = Telemetry()
        enforcer = ElasticityEnforcer(
            ElasticityPolicy(), host_cores=8, telemetry=telemetry
        )
        violation = Violation(
            ViolationKind.LOCAL_OVERLOAD, CpuBandEvidence(0.95, 0.85, 2),
            "host-0",
        )
        enforcer.resolve(_probe_set(), violation)
        (event,) = telemetry.tracer.find("enforcer.decision")
        assert event.attrs["host_id"] == "host-0"

    def test_unactionable_decision_still_fires_rule_counter(self):
        telemetry = Telemetry()
        enforcer = ElasticityEnforcer(
            ElasticityPolicy(), host_cores=8, telemetry=telemetry
        )
        # The round's 8.8 cores need three hosts at the 50% target; two
        # are running, so there is nothing to release.
        violation = Violation(
            ViolationKind.GLOBAL_UNDERLOAD, CpuBandEvidence(0.1, 0.30, 2)
        )
        decision = enforcer.resolve(_probe_set(), violation)
        assert decision is None
        (event,) = telemetry.tracer.find("enforcer.decision")
        assert event.attrs["actionable"] is False
        assert telemetry.rule_firings.labels(rule="global_underload").value == 1
        assert (
            telemetry.scaling_decisions.labels(kind="global_underload").value
            == 0
        )

