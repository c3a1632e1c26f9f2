"""The benchmark's catalogue: workloads, metrics, bounds, predictions.

Everything the runner, ``compare``, the contract adapter, the README
glossary and ``test_harness.py`` need to agree on lives here once.  The
code under ``workloads/`` measures; this module only names.
"""

from collections import namedtuple

SWEEP = "sweep"
HOSTILE = "sweep-hostile"
STUDY = "study"
OBSERVE = "observe"

Workload = namedtuple("Workload", "name why params tiny")

# ``params`` are the measured sizes; ``tiny`` overrides them for
# ``test_harness.py`` (a world ~1:60000 builds and sweeps in well under
# a second, so the whole harness is exercised in CI time).
WORKLOADS = (
    Workload(
        SWEEP,
        "clean eager world, 1 shard: the batched columnar sweep, netsim "
        "bulk settlement and churn do ~all the work; pipeline, "
        "checkpoint and observatory do none",
        {"scale": 1000, "timed_weeks": 5, "small_world_scale": 20000},
        {"scale": 60000, "timed_weeks": 2, "small_world_scale": 100000}),
    Workload(
        HOSTILE,
        "same scanner layer used differently: lazy world, 5% injected "
        "loss, defenses, 2 forked shards, retries=2, adaptive pacing, "
        "streamed results - everything sweep bypasses",
        {"scale": 4000, "timed_weeks": 3, "shards": 2, "retries": 2,
         "loss_rate": 0.05, "chunk_rows": 1024},
        {"scale": 60000, "timed_weeks": 2, "shards": 2, "retries": 2,
         "loss_rate": 0.05, "chunk_rows": 64}),
    Workload(
        STUDY,
        "the paper's whole methodology in one cold process: campaign, "
        "fingerprinting, snooping, 13-category pipeline, report; the "
        "wire-level path and core.* dominate, the IPv4 sweep is ~3%",
        {"scale": 30000, "weeks": 8, "snoop_sample": 200},
        {"scale": 60000, "weeks": 2, "snoop_sample": 20}),
    Workload(
        OBSERVE,
        "writes beside reads on one store: checkpointed delta campaign, "
        "journal ingest, re-ingest, cold open, point lookups, "
        "analytics, then a closed loop of 1 keep-alive HTTP connection",
        {"scale": 2000, "weeks": 4, "lookups": 100000,
         "analytics_rounds": 7, "timelines": 40, "http_share": 0.3},
        {"scale": 60000, "weeks": 2, "lookups": 5000,
         "analytics_rounds": 3, "timelines": 5, "http_share": 0.1}),
)
WORKLOAD_NAMES = tuple(workload.name for workload in WORKLOADS)
ALL = WORKLOAD_NAMES
SWEEPS = (SWEEP, HOSTILE)


def workload(name):
    for entry in WORKLOADS:
        if entry.name == name:
            return entry
    raise KeyError("unknown workload %r (want one of %s)"
                   % (name, ", ".join(WORKLOAD_NAMES)))


# -- end-to-end metrics ------------------------------------------------
#
# ``bound`` is how far the run-set median may worsen before ``compare``
# calls it a regression: a share of the base median (``rel``), with an
# absolute floor (``floor``) for metrics that sit near zero.
# ``failed_share`` regresses on any rise.  Every timing carries the
# widest share ``BENCHMARK.json`` may state: ten runs on ten seeds
# spread 5-20 % on the shared 2-vCPU host this was sized on, so a
# tighter bound would fail ``aa`` on noise (README, "Noise").

Metric = namedtuple("Metric",
                    "name unit better workloads definition rel floor")

END_TO_END = (
    Metric("setup_s", "s", "lower", ALL,
           "world build + input generation + warm-up, before the timed "
           "region", 0.25, 0.25),
    Metric("wall_s", "s", "lower", ALL,
           "timed region: sum of timed weeks (sweep*); build-to-"
           "rendered-report (study); campaign + ingest + fixed-count "
           "reads (observe, HTTP window excluded)", 0.25, 0.25),
    Metric("peak_rss_mib", "MiB", "lower", ALL,
           "max of the child's ru_maxrss and its reaped workers'",
           0.10, 0.0),
    Metric("failed_share", "ratio", "lower", ALL,
           "failed / attempted operations: correctness checks, "
           "unexplained degraded shards or stages, non-200 HTTP, "
           "lookups returning None", 0.0, 0.0),
    Metric("probes_per_s", "1/s", "higher", SWEEPS,
           "median over timed weeks of probes_sent / that week's wall",
           0.25, 0.0),
    Metric("probes_per_target", "ratio", "lower", SWEEPS + (OBSERVE,),
           "sum(probes_sent) / (targets x weeks); seed-deterministic",
           0.01, 0.0),
    Metric("coverage_share", "ratio", "higher", SWEEPS,
           "online, not opted-out resolvers found / such resolvers in "
           "the world that week; seed-deterministic", 0.0, 0.005),
    Metric("pairs_per_s", "1/s", "higher", (STUDY,),
           "resolver x domain pairs taken from scan to label / wall_s",
           0.25, 0.0),
    Metric("campaign_s", "s", "lower", (OBSERVE,),
           "checkpointed delta campaign including every commit",
           0.25, 0.25),
    Metric("ingest_s", "s", "lower", (OBSERVE,),
           "first ingest_checkpoint into the empty store incl. save()",
           0.25, 0.25),
    Metric("lookup_per_s", "1/s", "higher", (OBSERVE,),
           "in-process point lookups / wall", 0.25, 0.0),
    Metric("analytics_ms", "ms", "lower", (OBSERVE,),
           "median wall of one rankings + survival round", 0.25, 0.0),
    Metric("http_req_per_s", "1/s", "higher", (OBSERVE,),
           "completed 200s / closed-loop window, 1 keep-alive "
           "connection", 0.25, 0.0),
    Metric("http_p50_ms", "ms", "lower", (OBSERVE,),
           "median request latency in that window (the highest "
           "supported percentile is reported beside it)", 0.25, 0.0),
)


def end_to_end_for(workload_name):
    return [metric for metric in END_TO_END
            if workload_name in metric.workloads]


# -- the driver contract -----------------------------------------------
#
# ``BENCHMARK.json`` names metrics every workload emits, so the two
# workload-specific headline numbers travel under generic names.  The
# mapping is the only place the generic names are given meaning.

CONTRACT_SOURCES = {
    "setup_s": {name: "setup_s" for name in ALL},
    "wall_s": {name: "wall_s" for name in ALL},
    "peak_rss_mib": {name: "peak_rss_mib" for name in ALL},
    # The workload's headline rate.
    "ops_per_s": {SWEEP: "probes_per_s", HOSTILE: "probes_per_s",
                  STUDY: "pairs_per_s", OBSERVE: "http_req_per_s"},
    # Median latency of the workload's unit of work (reported beside the
    # 13 named metrics as ``unit_p50_ms``): one weekly sweep, one
    # domain-set pipeline, one HTTP request.
    "op_p50_ms": {SWEEP: "unit_p50_ms", HOSTILE: "unit_p50_ms",
                  STUDY: "unit_p50_ms", OBSERVE: "http_p50_ms"},
}

# -- per-layer metrics (traced run only) -------------------------------
#
# ``moves`` is the prediction written down before measuring: which
# end-to-end metric the layer metric should move, on which workload.  A
# layer metric reads 0 on a workload that does not exercise the layer.

Layer = namedtuple("Layer", "name unit better moves")

_SETUP_ALL = "setup_s on all"
_PPS_SWEEP = "probes_per_s on sweep; no change predicted on study"
_HOSTILE = ("probes_per_s / coverage_share / probes_per_target on "
            "sweep-hostile")
_STUDY = "wall_s on study; no change predicted on sweep*"
_CAMPAIGN = "campaign_s on observe"
_INGEST = "ingest_s on observe"
_READS = "lookup_per_s / analytics_ms on observe"
_HTTP = "http_req_per_s / http_p50_ms on observe"
_INSTRUMENT = "instrument cost; moves no end-to-end metric"

PER_LAYER = (
    # World
    Layer("scenario.build_s", "s", "lower", _SETUP_ALL),
    Layer("population.members_per_s", "1/s", "higher", _SETUP_ALL),
    Layer("population.node_materialize_us", "us", "lower",
          "probes_per_s on sweep-hostile"),
    Layer("churn.step_s", "s", "lower",
          "wall_s on sweep; campaign_s on observe"),
    # Sweep
    Layer("lfsr.targets_per_s", "1/s", "higher", _PPS_SWEEP),
    Layer("encoding.qnames_per_s", "1/s", "higher", _PPS_SWEEP),
    Layer("ipv4scan.prewarm_s", "s", "lower", "setup_s on sweep"),
    Layer("ipv4scan.week_s_p50", "s", "lower", _PPS_SWEEP),
    Layer("ipv4scan.week_s_max", "s", "lower", _PPS_SWEEP),
    Layer("ipv4scan.probes_per_s", "1/s", "higher", _PPS_SWEEP),
    Layer("netsim.fast_path_share", "ratio", "higher", _PPS_SWEEP),
    Layer("ipv4scan.small_world_probes_per_s", "1/s", "higher",
          "probes_per_s on sweep (its ratio to ipv4scan.probes_per_s "
          "is the working-set cost)"),
    # Robust / sharded
    Layer("ipv4scan.robust_probes_per_s", "1/s", "higher", _HOSTILE),
    Layer("ipv4scan.retransmissions", "count", "lower", _HOSTILE),
    Layer("netsim.send_probe_per_s", "1/s", "higher", _HOSTILE),
    Layer("faults.loss_drops", "count", "lower", _HOSTILE),
    Layer("defense.drops", "count", "lower", _HOSTILE),
    Layer("pacing.signals", "count", "lower", _HOSTILE),
    Layer("pacing.suppressed_targets", "count", "lower", _HOSTILE),
    Layer("engine.shard_speedup", "x", "higher", _HOSTILE),
    Layer("engine.chunk_frames", "count", "lower", _HOSTILE),
    Layer("ipv4scan.result_pickle_s", "s", "lower", _HOSTILE),
    Layer("ipv4scan.result_bytes", "bytes", "lower", _HOSTILE),
    Layer("ipv4scan.merge_s", "s", "lower", _HOSTILE),
    # Study
    Layer("campaign.run_s", "s", "lower", _STUDY),
    Layer("fingerprint.chaos_queries_per_s", "1/s", "higher", _STUDY),
    Layer("fingerprint.banner_grabs_per_s", "1/s", "higher", _STUDY),
    Layer("snooping.run_s", "s", "lower", _STUDY),
    Layer("domainscan.busy_s", "s", "lower", _STUDY),
    Layer("domainscan.queries_per_s", "1/s", "higher", _STUDY),
    Layer("netsim.send_udp_per_s", "1/s", "higher", _STUDY),
    Layer("dnswire.build_per_s", "1/s", "higher", _STUDY),
    Layer("dnswire.parse_per_s", "1/s", "higher", _STUDY),
    Layer("prefilter.observations_per_s", "1/s", "higher", _STUDY),
    Layer("acquisition.captures_per_s", "1/s", "higher", _STUDY),
    Layer("features.extractions_per_s", "1/s", "higher", _STUDY),
    Layer("features.cache_hit_share", "ratio", "higher", _STUDY),
    Layer("distance.evals_per_s", "1/s", "higher", _STUDY),
    Layer("distance.memo_hit_share", "ratio", "higher", _STUDY),
    Layer("clustering.busy_s", "s", "lower", _STUDY),
    Layer("clustering.items_max", "count", "lower", _STUDY),
    Layer("labeling.busy_s", "s", "lower", _STUDY),
    Layer("labeling.captures_per_s", "1/s", "higher", _STUDY),
    Layer("pipeline.category_s_max", "s", "lower", _STUDY),
    Layer("analysis.tables_s", "s", "lower", _STUDY),
    Layer("reporting.render_s", "s", "lower", _STUDY),
    # Observe
    Layer("checkpoint.commit_ms", "ms", "lower", _CAMPAIGN),
    Layer("checkpoint.bytes_per_unit", "bytes", "lower", _CAMPAIGN),
    Layer("delta.week_s", "s", "lower", _CAMPAIGN),
    Layer("delta.probes_saved_share", "ratio", "higher", _CAMPAIGN),
    Layer("feed.commits_per_s", "1/s", "higher", _INGEST),
    Layer("ingest.fold_s", "s", "lower", _INGEST),
    Layer("ingest.rows_per_s", "1/s", "higher", _INGEST),
    Layer("ingest.noop_s", "s", "lower", _INGEST),
    Layer("store.save_s", "s", "lower", _INGEST),
    Layer("store.disk_bytes", "bytes", "lower", _INGEST),
    Layer("store.open_s", "s", "lower", _READS),
    Layer("store.week_cold_load_ms", "ms", "lower", _READS),
    Layer("query.lookup_us_p50", "us", "lower", _READS),
    Layer("query.lookup_us_p99", "us", "lower", _READS),
    Layer("query.rankings_ms", "ms", "lower", _READS),
    Layer("query.survival_ms", "ms", "lower", _READS),
    Layer("query.timeline_ms", "ms", "lower", _READS),
    Layer("service.http_overhead_ms", "ms", "lower", _HTTP),
    Layer("service.close_per_request_ms", "ms", "lower", _HTTP),
    # Instruments
    Layer("obs.traced_week_overhead_x", "x", "lower", _INSTRUMENT),
    Layer("perf.registry_overhead_share", "ratio", "lower", _INSTRUMENT),
    Layer("bench.trace_overhead_share", "ratio", "lower", _INSTRUMENT),
)
