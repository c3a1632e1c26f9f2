"""``study``: the paper's whole methodology, one sample, cold process.

``run_full_study`` over all 13 domain sets plus ``render_markdown`` —
what a ``repro fullstudy`` user pays.  Stage boundaries come from the
existing ``progress=`` callback; the campaign and every per-set
pipeline are additionally seen through shadowed ``scenario.new_campaign``
/ ``scenario.new_pipeline`` (the pipelines' reports are needed anyway:
``run_full_study`` does not return them, and "no degraded stage" is a
correctness check of this workload).
"""

import random
import time

from repro.core.distance import PageDistance
from repro.core.features import extract_features
from repro.datasets import ALL_CATEGORIES, DOMAIN_SETS
from repro.dnswire.message import Message
from repro.netsim.network import UdpPacket
from repro.reporting import render_markdown, run_full_study
from repro.scanner import BannerGrabber, ChaosScanner
from repro.scanner.encoding import ResolverIdCodec
from repro.scenario import ScenarioConfig

from benchmarks.e2e.harness import median
from benchmarks.e2e.recorder import self_times
from benchmarks.e2e.workloads import (build_world, digest_of, rate, timed,
                                      world_layers)

SETUP_BUILDS = 15    # this world builds in ~0.1 s: take a median

# progress= message prefix -> the span it opens (closing the previous).
_PHASES = (("fingerprinting", "fingerprint.scan"),
           ("snooping", "snooping.run"),
           ("pipeline:", None))


class _Shadow:
    """Sees the campaign and pipelines ``run_full_study`` creates."""

    def __init__(self, ctx, scenario):
        self.rec = ctx.rec
        self.campaign = None
        self.pipeline_walls = []
        self.reports = []
        self._phase_open = False
        new_campaign = scenario.new_campaign
        new_pipeline = scenario.new_pipeline

        def shadow_campaign(*args, **kwargs):
            self.campaign = new_campaign(*args, **kwargs)
            self.rec.wrap(self.campaign, "run", "campaign.run")
            return self.campaign

        def shadow_pipeline(*args, **kwargs):
            pipeline = new_pipeline(*args, **kwargs)
            run = pipeline.run

            def spanned_run(*run_args, **run_kwargs):
                self.rec.begin("pipeline.run")
                start = time.perf_counter()
                try:
                    report = run(*run_args, **run_kwargs)
                finally:
                    self.pipeline_walls.append(
                        time.perf_counter() - start)
                    self.rec.end()
                self.reports.append(report)
                return report

            pipeline.run = spanned_run
            return pipeline

        scenario.new_campaign = shadow_campaign
        scenario.new_pipeline = shadow_pipeline
        self.rec.wrap(scenario.churn, "step", "churn.step")

    def progress(self, message):
        for prefix, span in _PHASES:
            if message.startswith(prefix):
                if self._phase_open:
                    self.rec.end()
                    self._phase_open = False
                if span is not None:
                    self.rec.begin(span)
                    self._phase_open = True


def run(ctx):
    rec = ctx.rec
    params = ctx.params
    config = ScenarioConfig(scale=params["scale"], seed=ctx.seed)

    # -- set-up: the world (nothing to warm: users run this cold) --------
    rec.begin("setup")
    builds = []
    for __ in range(SETUP_BUILDS):
        scenario, seconds, members = build_world(ctx, config)
        builds.append(seconds)
    rec.end()
    setup_seconds = median(builds)
    shadow = _Shadow(ctx, scenario)

    # -- timed: campaign to rendered report ------------------------------
    rec.begin("study")
    start = time.perf_counter()
    # Everything not inside a narrower span below is table-building.
    rec.begin("analysis.tables")
    results = run_full_study(scenario, weeks=params["weeks"],
                             snoop_sample=params["snoop_sample"],
                             progress=shadow.progress, perf=ctx.perf)
    rec.end()
    with rec.span("reporting.render"):
        report = render_markdown(results, scenario)
    wall = time.perf_counter() - start
    rec.end()

    # -- checks -----------------------------------------------------------
    checks = ctx.checks
    reported = [category for category in ALL_CATEGORIES
                if category in results.prefilter
                and category in (results.table5 or {})]
    checks.tally(len(ALL_CATEGORIES),
                 len(ALL_CATEGORIES) - len(reported),
                 "all %d domain sets reported" % len(ALL_CATEGORIES))
    degraded = [entry for pipeline_report in shadow.reports
                for entry in pipeline_report.degraded]
    checks.tally(max(1, len(shadow.reports)), len(degraded),
                 "no degraded pipeline stage (%r)" % degraded[:2])
    checks.check(len(report) > 0 and results.resolver_count > 0,
                 "report rendered over a non-empty resolver set")

    pairs = results.resolver_count * sum(
        len(DOMAIN_SETS[category]) for category in ALL_CATEGORIES)
    metrics = {
        "setup_s": setup_seconds,
        "wall_s": wall,
        "pairs_per_s": rate(pairs, wall),
        "unit_p50_ms": median(shadow.pipeline_walls) * 1e3,
    }
    extras = {"resolvers": results.resolver_count, "pairs": pairs,
              "report_bytes": len(report), "members": members,
              "category_wall_s": dict(zip(ALL_CATEGORIES,
                                          shadow.pipeline_walls))}
    if ctx.traced:
        _layers(ctx, scenario, shadow, setup_seconds, members)
    return {"metrics": metrics, "extras": extras,
            "digest": digest_of([report]), "root": "study"}


def _layers(ctx, scenario, shadow, build_seconds, members):
    """Per-layer numbers: the run's own timers and counters, then
    direct timed calls into single layers on the run's own data."""
    rec = ctx.rec
    perf = ctx.perf
    layers = ctx.layers
    world_layers(ctx, build_seconds, members)

    def busy_rate(name, counter, timer):
        ctx.layer_rate(name, perf.counter(counter), perf.seconds(timer))

    layers["campaign.run_s"] = rec.total("campaign.run")
    layers["snooping.run_s"] = rec.total("snooping.run")
    layers["domainscan.busy_s"] = perf.seconds("pipeline_domain_scan")
    busy_rate("domainscan.queries_per_s", "pipeline_domain_queries",
              "pipeline_domain_scan")
    busy_rate("prefilter.observations_per_s", "pipeline_observations",
              "pipeline_prefilter")
    busy_rate("acquisition.captures_per_s", "pipeline_captures",
              "pipeline_acquisition")
    busy_rate("labeling.captures_per_s", "pipeline_captures",
              "pipeline_labeling")
    layers["clustering.busy_s"] = perf.seconds("pipeline_clustering")
    layers["labeling.busy_s"] = perf.seconds("pipeline_labeling")
    hits = perf.counter("feature_cache_hits")
    layers["features.cache_hit_share"] = rate(
        hits, hits + perf.counter("feature_extractions"))
    hits = perf.counter("distance_cache_hits")
    layers["distance.memo_hit_share"] = rate(
        hits, hits + perf.counter("distance_evals"))
    ctx.layer_detail["distance.memo_hit_share"] = {
        "hits": hits, "evals": perf.counter("distance_evals"),
        "avoided_by_dedup": perf.counter(
            "pipeline_distance_evals_avoided"),
        "gauge_pipeline_distance_cache_hit_rate": perf.gauge_value(
            "pipeline_distance_cache_hit_rate")}
    layers["clustering.items_max"] = max(
        len({capture.body for capture in pipeline_report.http_captures})
        for pipeline_report in shadow.reports)
    layers["pipeline.category_s_max"] = max(shadow.pipeline_walls)
    __, rows, __ = self_times(rec.records(), "study")
    layers["analysis.tables_s"] = rows["analysis.tables"][0]
    layers["reporting.render_s"] = rec.total("reporting.render")

    network = scenario.network
    resolvers = sorted(shadow.campaign.last().result.noerror)
    sampler = random.Random(ctx.seed)
    seconds, __ = timed(
        ChaosScanner(network, scenario.scanner_ip).scan, resolvers)
    ctx.layer_rate("fingerprint.chaos_queries_per_s",
                   len(ChaosScanner.QUERY_NAMES) * len(resolvers), seconds)
    seconds, __ = timed(
        BannerGrabber(network, scenario.scanner_ip).grab_all, resolvers)
    ctx.layer_rate("fingerprint.banner_grabs_per_s", len(resolvers),
                   seconds)

    # The domain scan's wire path, one layer at a time: build the
    # queries, send them, parse what came back.
    codec = ResolverIdCodec()
    names = [domain.name for category in ALL_CATEGORIES
             for domain in DOMAIN_SETS[category]]
    picks = [(sampler.randrange(len(resolvers)), sampler.choice(names))
             for __ in range(5000)]
    start = time.perf_counter()
    packets = []
    for resolver_id, name in picks:
        txid, port, cased = codec.encode(resolver_id, name)
        packets.append(UdpPacket(
            scenario.pipeline_source_ip, port, resolvers[resolver_id],
            53, Message.query(cased, txid=txid).to_wire()))
    ctx.layer_rate("dnswire.build_per_s", len(packets),
                   time.perf_counter() - start)
    send_udp = network.send_udp
    start = time.perf_counter()
    answers = [send_udp(packet) for packet in packets]
    ctx.layer_rate("netsim.send_udp_per_s", len(packets),
                   time.perf_counter() - start)
    payloads = [response.packet.payload for responses in answers
                for response in responses]
    start = time.perf_counter()
    for payload in payloads:
        Message.from_wire(payload)
    ctx.layer_rate("dnswire.parse_per_s", len(payloads),
                   time.perf_counter() - start)

    # Feature extraction and the page distance over the captured bodies.
    bodies = sorted({capture.body for pipeline_report in shadow.reports
                     for capture in pipeline_report.http_captures
                     if capture.body})[:2000]
    start = time.perf_counter()
    profiles = [extract_features(body) for body in bodies]
    ctx.layer_rate("features.extractions_per_s", len(bodies),
                   time.perf_counter() - start)
    if len(profiles) >= 2:
        distance = PageDistance()
        pairs = [sampler.sample(profiles, 2) for __ in range(3000)]
        start = time.perf_counter()
        for left, right in pairs:
            distance(left, right)
        ctx.layer_rate("distance.evals_per_s", len(pairs),
                       time.perf_counter() - start)
