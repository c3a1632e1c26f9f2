"""Tests for the performance instrumentation registry."""

from repro.perf import PerfRegistry


class TestCounters:
    def test_count_and_read(self):
        perf = PerfRegistry()
        perf.count("probes_sent")
        perf.count("probes_sent", 41)
        assert perf.counter("probes_sent") == 42
        assert perf.counter("missing") == 0


class TestGauges:
    def test_set_and_read(self):
        perf = PerfRegistry()
        perf.gauge("qps", 125.0)
        assert perf.gauge_value("qps") == 125.0
        assert perf.gauge_value("missing") == 0.0
        assert perf.gauge_value("missing", default=-1.0) == -1.0

    def test_last_value_wins(self):
        perf = PerfRegistry()
        perf.gauge("hit_rate", 0.2)
        perf.gauge("hit_rate", 0.9)
        assert perf.gauge_value("hit_rate") == 0.9

    def test_merge_overwrites(self):
        parent, shard = PerfRegistry(), PerfRegistry()
        parent.gauge("hit_rate", 0.1)
        shard.gauge("hit_rate", 0.5)
        shard.gauge("qps", 10.0)
        parent.merge(shard, rank=0)
        assert parent.gauge_value("hit_rate") == 0.5
        assert parent.gauge_value("qps") == 10.0

    def test_snapshot_and_report(self):
        import json

        perf = PerfRegistry()
        perf.gauge("hit_rate", 0.25)
        snapshot = perf.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["gauges"]["hit_rate"] == 0.25
        report = perf.format_report("perf x")
        assert "hit_rate" in report
        assert "0.25" in report


class TestGaugePolicies:
    def shard(self, name, value, policy):
        registry = PerfRegistry()
        registry.declare_gauge(name, policy)
        registry.gauge(name, value)
        return registry

    def test_unknown_policy_rejected(self):
        import pytest
        with pytest.raises(ValueError, match="unknown gauge policy"):
            PerfRegistry().declare_gauge("x", "median")

    def test_declared_merges_are_order_independent(self):
        import itertools

        values = [0.2, 0.9, 0.5]
        for policy, expected in (("last", 0.5), ("max", 0.9)):
            for order in itertools.permutations(range(len(values))):
                parent = PerfRegistry()
                parent.declare_gauge("g", policy)
                for rank in order:
                    parent.merge(self.shard("g", values[rank], policy),
                                 rank=rank)
                assert abs(parent.gauge_value("g") - expected) < 1e-12, \
                    (policy, order)

    def test_last_policy_keeps_highest_shard_rank(self):
        # Shard 2 finishing before shard 0 must not lose its value to
        # the later-arriving lower-ranked shard.
        parent = PerfRegistry()
        parent.declare_gauge("qps", "last")
        parent.merge(self.shard("qps", 30.0, "last"), rank=2)
        parent.merge(self.shard("qps", 10.0, "last"), rank=0)
        assert parent.gauge_value("qps") == 30.0

    def test_policy_travels_with_the_shard_registry(self):
        # Only the shard declared the policy; the parent learns it from
        # the merge instead of falling back to overwrite.
        parent = PerfRegistry()
        parent.merge(self.shard("g", 5.0, "max"), rank=1)
        parent.merge(self.shard("g", 3.0, "max"), rank=0)
        assert parent.gauge_value("g") == 5.0
        assert parent.gauge_policies["g"] == "max"

    def test_permuted_shard_merges_yield_identical_snapshots(self):
        import itertools

        def shard(rank):
            registry = PerfRegistry()
            registry.declare_gauge("hit_rate", "last")
            registry.declare_gauge("peak_qps", "max")
            registry.gauge("hit_rate", 0.1 * (rank + 1))
            registry.gauge("peak_qps", 100.0 * (3 - rank))
            registry.count("probes_sent", rank + 1)
            registry.record_seconds("shard_wall", 0.5)
            registry.observe_many("probe_rtt_seconds",
                                  [0.01 * (rank + 1)] * 3)
            return registry

        snapshots = []
        for order in itertools.permutations(range(3)):
            parent = PerfRegistry()
            for rank in order:
                parent.merge(shard(rank), rank=rank)
            snapshots.append(parent.snapshot())
        assert all(snapshot == snapshots[0] for snapshot in snapshots)


class TestTimers:
    def test_record_accumulates(self):
        perf = PerfRegistry()
        perf.record_seconds("scan_wall", 1.5)
        perf.record_seconds("scan_wall", 0.5)
        assert perf.seconds("scan_wall") == 2.0
        assert perf.timers["scan_wall"] == [2.0, 2]
        assert perf.seconds("missing") == 0.0

    def test_stage_context_manager(self):
        perf = PerfRegistry()
        with perf.stage("pipeline_clustering"):
            pass
        assert perf.seconds("pipeline_clustering") >= 0.0
        assert perf.timers["pipeline_clustering"][1] == 1

    def test_stage_records_on_exception(self):
        perf = PerfRegistry()
        try:
            with perf.stage("broken"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert perf.timers["broken"][1] == 1

    def test_rate(self):
        perf = PerfRegistry()
        perf.count("probes_sent", 100)
        perf.record_seconds("scan_wall", 4.0)
        assert perf.rate("probes_sent", "scan_wall") == 25.0
        assert perf.rate("probes_sent", "missing") == 0.0


class TestAggregation:
    def test_merge_folds_shard_registry(self):
        parent, shard = PerfRegistry(), PerfRegistry()
        parent.count("probes_sent", 10)
        parent.record_seconds("shard_wall", 1.0)
        shard.count("probes_sent", 5)
        shard.count("responses_seen", 2)
        shard.record_seconds("shard_wall", 2.0)
        parent.merge(shard, rank=0)
        assert parent.counter("probes_sent") == 15
        assert parent.counter("responses_seen") == 2
        assert parent.timers["shard_wall"] == [3.0, 2]

    def test_snapshot_is_plain_data(self):
        import json

        perf = PerfRegistry()
        perf.count("probes_sent", 3)
        perf.record_seconds("scan_wall", 0.25)
        snapshot = perf.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["counters"]["probes_sent"] == 3
        assert snapshot["timers"]["scan_wall"]["entries"] == 1

    def test_snapshot_restore_merge_round_trip(self):
        import json

        shard = PerfRegistry()
        shard.declare_gauge("peak_qps", "max")
        shard.gauge("peak_qps", 120.0)
        shard.count("probes_sent", 7)
        shard.record_seconds("shard_wall", 1.25)
        shard.observe_many("probe_rtt_seconds", [0.01, 0.04, 0.4])
        snapshot = shard.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot

        restored = PerfRegistry().restore(
            json.loads(json.dumps(snapshot)))
        assert restored.snapshot() == snapshot

        direct, via_restore = PerfRegistry(), PerfRegistry()
        direct.merge(shard, rank=0)
        via_restore.merge(restored, rank=0)
        assert via_restore.snapshot() == direct.snapshot()
        assert via_restore.histograms["probe_rtt_seconds"].count == 3

    def test_restore_replaces_previous_contents(self):
        registry = PerfRegistry()
        registry.count("stale", 99)
        registry.observe("stale_hist", 1.0)
        fresh = PerfRegistry()
        fresh.count("fresh", 1)
        registry.restore(fresh.snapshot())
        assert registry.counter("stale") == 0
        assert registry.counter("fresh") == 1
        assert registry.histograms == {}


class TestHistograms:
    def test_observe_and_report(self):
        perf = PerfRegistry()
        perf.observe("probe_rtt_seconds", 0.02)
        perf.observe_many("probe_rtt_seconds", [0.03, 0.05])
        assert perf.histograms["probe_rtt_seconds"].count == 3
        report = perf.format_report("perf")
        assert "probe_rtt_seconds" in report
        assert "p99=" in report

    def test_observe_many_empty_creates_nothing(self):
        perf = PerfRegistry()
        perf.observe_many("probe_rtt_seconds", [])
        assert perf.histograms == {}

    def test_histograms_merge_exactly_across_shards(self):
        direct = PerfRegistry()
        direct.observe_many("rtt", [0.01, 0.02, 0.03, 0.5])
        left, right = PerfRegistry(), PerfRegistry()
        left.observe_many("rtt", [0.01, 0.02])
        right.observe_many("rtt", [0.03, 0.5])
        merged = PerfRegistry()
        merged.merge(left, rank=0)
        merged.merge(right, rank=1)
        assert merged.histograms["rtt"].snapshot() == \
            direct.histograms["rtt"].snapshot()


class TestDerivedRates:
    def test_declared_rate_appears_in_report(self):
        perf = PerfRegistry()
        perf.declare_rate("pipeline_domain_qps", "pipeline_domain_queries",
                          "pipeline_domain_scan")
        perf.count("pipeline_domain_queries", 500)
        perf.record_seconds("pipeline_domain_scan", 2.0)
        report = perf.format_report("perf")
        assert "pipeline_domain_qps" in report
        assert "250" in report

    def test_undriven_rate_stays_silent(self):
        perf = PerfRegistry()
        perf.declare_rate("idle_qps", "never_counted", "never_timed")
        assert "idle_qps" not in perf.format_report("perf")

    def test_rates_survive_snapshot_restore(self):
        perf = PerfRegistry()
        perf.declare_rate("qps", "queries", "wall")
        restored = PerfRegistry().restore(perf.snapshot())
        assert restored.rates["qps"] == ["queries", "wall"]

    def test_format_report_includes_throughput(self):
        perf = PerfRegistry()
        perf.count("probes_sent", 200)
        perf.record_seconds("scan_wall", 2.0)
        report = perf.format_report("perf scan")
        assert "[perf scan]" in report
        assert "probes_sent" in report
        assert "probes_per_sec" in report
        assert "100" in report
