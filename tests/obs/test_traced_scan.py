"""End-to-end observability tests: traced scans, shards, and resume.

Covers the acceptance contract of the ``repro.obs`` subsystem against
the real scan stack:

* a traced fork-sharded campaign exports one schema-valid trace whose
  worker ``shard`` spans parent under the ``scan`` span;
* every fault-injected probe loss in the flight ring is attributed to
  the fault rule that ate it;
* a campaign killed at a checkpoint boundary and resumed with tracing
  on produces byte-identical scan results, and the resumed process
  adopts the interrupted run's trace id;
* the ``repro trace`` CLI validates and renders an exported trace.
"""

from repro.checkpoint import CheckpointedRun
from repro.faults import FaultPlan, FaultProfile, InjectedCrash
from repro.obs import FAULT_CAUSE_PREFIX, Observability, read_trace, \
    validate_trace
from repro.perf import PerfRegistry
from tests.checkpoint.test_resume_equivalence import (
    build_campaign_world,
    campaign_fingerprint,
    make_campaign,
)

WEEKS = 2


def traced_week(shards, faults=None, seed=7):
    world = build_campaign_world()
    if faults is not None:
        world.network.install_faults(FaultPlan(faults, seed=seed))
    perf = PerfRegistry()
    obs = Observability(clock=world.clock, seed=seed).install(
        world.network)
    campaign = make_campaign(world, shards=shards, perf=perf)
    campaign.run_week()
    return world, campaign, perf, obs


class TestTracedShardedScan:
    def test_shard_spans_parent_under_scan_span(self, tmp_path):
        __, __, perf, obs = traced_week(shards=4)
        path = str(tmp_path / "trace.jsonl")
        obs.export(path, perf=perf, meta={"command": "test"})
        records = read_trace(path)
        validate_trace(records)
        spans = [r for r in records if r["type"] == "span"]
        by_stage = {}
        for span in spans:
            by_stage.setdefault(span["stage"], []).append(span)
        assert len(by_stage["scan"]) == 1
        scan_id = by_stage["scan"][0]["span_id"]
        assert len(by_stage["shard"]) == 4
        assert all(s["parent_id"] == scan_id for s in by_stage["shard"])
        assert by_stage["scan"][0]["parent_id"] == \
            by_stage["week"][0]["span_id"]
        # Worker spans are namespaced per (origin, attempt, start).
        assert len({s["span_id"] for s in spans}) == len(spans)

    def test_trace_is_deterministic_for_a_fixed_seed(self):
        __, __, __, first = traced_week(shards=2)
        __, __, __, second = traced_week(shards=2)

        def shape(obs):
            return [(s["span_id"], s["parent_id"], s["stage"],
                     sorted(s["attrs"].items())) for s in obs.tracer.spans]

        assert shape(first) == shape(second)
        assert first.tracer.trace_id == second.tracer.trace_id

    def test_probe_rtt_histogram_lands_in_perf(self):
        __, __, perf, __ = traced_week(shards=1)
        histogram = perf.histograms["probe_rtt_seconds"]
        assert histogram.count > 0
        assert "probe_rtt_seconds" in perf.format_report("x")


class TestLossAttribution:
    def test_every_injected_loss_names_its_fault_rule(self):
        world, __, __, obs = traced_week(
            shards=2, faults=FaultProfile(loss_rate=0.2))
        injected = world.network.fault_counters.get("injected_loss", 0)
        assert injected > 0
        breakdown = obs.recorder.drop_breakdown()
        assert breakdown.get(FAULT_CAUSE_PREFIX + "injected_loss") \
            == injected
        # No unattributed losses: every lost/response_lost event in the
        # ring carries a cause.
        for event in obs.recorder.export_events():
            if event[1] in ("lost", "response_lost"):
                assert event[4], event

    def test_untraced_run_is_unaffected_by_faulted_tracing(self):
        # Same seed, tracing on vs off: identical scan results.
        faults = FaultProfile(loss_rate=0.2)
        __, traced, __, __ = traced_week(shards=2, faults=faults)
        world = build_campaign_world()
        world.network.install_faults(FaultPlan(faults, seed=7))
        plain = make_campaign(world, shards=2, perf=PerfRegistry())
        plain.run_week()
        assert campaign_fingerprint(plain) == campaign_fingerprint(traced)


class TestTracedResume:
    def run_traced(self, directory, plan, trace_seed):
        """One checkpointed incarnation; returns on crash or success."""
        world = build_campaign_world()
        perf = PerfRegistry()
        obs = Observability(clock=world.clock, seed=trace_seed).install(
            world.network)
        campaign = make_campaign(world, shards=2, perf=perf)
        checkpoint = CheckpointedRun(directory, meta={},
                                     resume=plan is None,
                                     fault_plan=plan)
        try:
            campaign.run(WEEKS, checkpoint=checkpoint)
        except InjectedCrash:
            checkpoint.close()
            return campaign, obs, False
        checkpoint.close()
        return campaign, obs, True

    def test_resume_adopts_trace_id_and_results_match(self, tmp_path):
        clean_world = build_campaign_world()
        clean = make_campaign(clean_world, shards=2, perf=PerfRegistry())
        clean.run(WEEKS)

        directory = str(tmp_path / "ckpt")
        plan = FaultPlan(FaultProfile(crash_points=("week:0",)), seed=3)
        __, first_obs, finished = self.run_traced(directory, plan,
                                                  trace_seed=7)
        assert not finished
        # The resumed incarnation starts with a *different* trace id
        # (different seed) and must adopt the interrupted run's.
        resumed, resumed_obs, finished = self.run_traced(directory, None,
                                                         trace_seed=99)
        assert finished
        assert resumed_obs.tracer.trace_id == first_obs.tracer.trace_id
        assert campaign_fingerprint(resumed) == campaign_fingerprint(clean)
        # The fast-forwarded week is visible as a restored marker span.
        restored = [s for s in resumed_obs.tracer.spans
                    if s["attrs"].get("restored")]
        assert any(s["stage"] == "week" for s in restored)


class TestTraceCli:
    def test_trace_subcommand_validates_and_renders(self, tmp_path,
                                                    capsys):
        from repro.cli import main
        path = str(tmp_path / "trace.jsonl")
        assert main(["scan", "--scale", "120000", "--seed", "3",
                     "--retries", "1", "--trace-out", path]) == 0
        capsys.readouterr()
        # The header names the run by the same dict checkpoint meta does.
        from repro.obs import read_trace
        from repro.scanner import ScanOptions
        assert read_trace(path)[0]["options"] == \
            ScanOptions(retries=1).as_meta()
        assert main(["trace", path, "--validate-only"]) == 0
        assert "valid trace" in capsys.readouterr().out
        assert main(["trace", path]) == 0
        out = capsys.readouterr().out
        assert "timeline" in out
        assert "critical path" in out

    def test_trace_subcommand_rejects_garbage(self, tmp_path, capsys):
        from repro.cli import main
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as handle:
            handle.write('{"type": "span"}\n')
        assert main(["trace", path]) == 2
        assert "invalid trace" in capsys.readouterr().err
