"""``observe``: writes beside reads on one store.

A checkpointed default-mode delta campaign, its journal ingested into a
fresh ``ResolverStore``, re-ingested (must be a no-op), reopened cold,
then read: point lookups, the Table 1/2 + Figure 2 analytics, prefix
timelines — all timed as ``wall_s`` — and finally a closed loop of one
keep-alive HTTP/1.1 connection against ``ObservatoryServer`` (closed,
because each caller waits for its reply before asking again).
"""

import http.client
import itertools
import os
import random
import time

from repro.analysis.churn import churn_survival, format_survival
from repro.analysis.geography import (country_fluctuation,
                                      format_fluctuation, rir_fluctuation)
from repro.checkpoint import CheckpointedRun
from repro.checkpoint.feed import CheckpointFeed
from repro.netsim.address import int_to_ip, ip_to_int
from repro.observatory import (Observatory, ObservatoryServer,
                               ResolverStore, ingest_checkpoint,
                               scenario_geo)
from repro.scanner.delta import normalize_delta
from repro.scenario import ScenarioConfig

from benchmarks.e2e.harness import latency_summary, median
from benchmarks.e2e.workloads import (build_world, digest_of, rate, timed,
                                      world_layers)

ANALYTICS_EVERY = 10       # 90 % of HTTP requests are /resolver/<ip>
CLOSE_REQUESTS = 200       # connection-per-request sample (traced)


def _request_paths(sampler, ips):
    """The endless request mix: every tenth request is analytics
    (rankings by country, by RIR, survival, a prefix timeline, in
    rotation), the other nine are point lookups of seeded resolvers.
    The mix is fixed by position so that two runs serve the same work
    per request."""
    analytics = ("/rankings/countries?top=10", "/rankings/rirs",
                 "/survival", None)
    for index in itertools.count():
        path = None
        if index % ANALYTICS_EVERY == ANALYTICS_EVERY - 1:
            path = analytics[index // ANALYTICS_EVERY % len(analytics)]
            if path is None:
                path = "/timeline/%s/24" % int_to_ip(
                    ip_to_int(sampler.choice(ips)) & 0xFFFFFF00)
        yield path or "/resolver/" + sampler.choice(ips)


def _closed_loop(address, paths, window=None, keep_alive=True):
    """One caller, one request in flight.  Returns ``(latencies_ms,
    non-200 count, elapsed seconds)``; stops at ``window`` seconds or
    when ``paths`` run out."""
    host, port = address
    latencies = []
    bad = 0
    connection = None
    begin = time.perf_counter()
    try:
        for path in paths:
            start = time.perf_counter()
            if window is not None and start - begin >= window:
                break
            if connection is None:
                connection = http.client.HTTPConnection(host, port,
                                                        timeout=30)
            headers = {} if keep_alive else {"Connection": "close"}
            connection.request("GET", path, headers=headers)
            response = connection.getresponse()
            response.read()
            latencies.append((time.perf_counter() - start) * 1e3)
            bad += response.status != 200
            if not keep_alive:
                connection.close()
                connection = None
    finally:
        if connection is not None:
            connection.close()
    return latencies, bad, time.perf_counter() - begin


def run(ctx):
    rec = ctx.rec
    params = ctx.params
    perf = ctx.perf
    weeks = params["weeks"]
    sampler = random.Random(ctx.seed)
    ckpt_dir = os.path.join(ctx.scratch, "ckpt")
    store_dir = os.path.join(ctx.scratch, "store")

    # -- set-up: the world ------------------------------------------------
    rec.begin("setup")
    scenario, setup_seconds, members = build_world(ctx, ScenarioConfig(
        scale=params["scale"], seed=ctx.seed))
    rec.end()
    rec.wrap(scenario.churn, "step", "churn.step")
    geo = scenario_geo(scenario)

    rec.begin("timed")
    timed_start = time.perf_counter()

    # -- write side: campaign with every week committed ------------------
    rec.begin("campaign.run")
    start = time.perf_counter()
    campaign = scenario.new_campaign(verify=False,
                                     delta=normalize_delta(True),
                                     perf=perf)
    checkpoint = CheckpointedRun(
        ckpt_dir, perf=perf,
        meta={"command": "campaign", "scale": params["scale"],
              "seed": ctx.seed, "weeks": weeks})
    rec.wrap(checkpoint, "commit", "checkpoint.commit")
    rec.wrap(campaign, "run_week", "campaign.week")
    rec.wrap(campaign.scanner, "scan_addresses",
             "ipv4scan.scan_addresses")
    try:
        campaign.run(weeks, checkpoint=checkpoint)
    finally:
        checkpoint.close()
    campaign_seconds = time.perf_counter() - start
    rec.end()

    # -- fold: ingest, re-ingest, cold open -------------------------------
    store = ResolverStore(store_dir)
    rec.wrap(store, "save", "store.save")
    with rec.span("ingest.first"):
        ingest_seconds, first_pass = timed(
            ingest_checkpoint, store, ckpt_dir, geo=geo, perf=perf)
    digest = store.digest()
    with rec.span("ingest.noop"):
        noop_seconds, second_pass = timed(
            ingest_checkpoint, store, ckpt_dir, geo=geo, perf=perf)
    with rec.span("store.open"):
        open_seconds, opened = timed(ResolverStore.open, store_dir)

    # -- read side, in process --------------------------------------------
    observatory = Observatory(opened, perf=perf)
    ips = opened.rows_where()
    wanted = [sampler.choice(ips) for __ in range(params["lookups"])]
    lookup = observatory.lookup
    missing = 0
    with rec.span("query.lookup"):
        start = time.perf_counter()
        for ip in wanted:
            missing += lookup(ip) is None
        lookup_seconds = time.perf_counter() - start
    lookup_p50 = lookup_p99 = 0.0
    if perf is not None:
        # Read now: the HTTP window below feeds the same histogram.
        histogram = perf.histogram("observatory_lookup_seconds")
        lookup_p50 = histogram.percentile(50)
        lookup_p99 = histogram.percentile(99)

    rounds, rankings_ms, survival_ms = [], [], []
    for __ in range(params["analytics_rounds"]):
        with rec.span("query.rankings"):
            seconds_a, table1 = timed(observatory.country_rankings)
            seconds_b, table2 = timed(observatory.rir_rankings)
        with rec.span("query.survival"):
            seconds_c, curve = timed(observatory.survival)
        rankings_ms.append((seconds_a + seconds_b) * 1e3)
        survival_ms.append(seconds_c * 1e3)
        rounds.append((seconds_a + seconds_b + seconds_c) * 1e3)
    timeline_ms = []
    with rec.span("query.timeline"):
        for __ in range(params["timelines"]):
            prefix = "%s/24" % int_to_ip(
                ip_to_int(sampler.choice(ips)) & 0xFFFFFF00)
            seconds, __rows = timed(observatory.timeline, prefix)
            timeline_ms.append(seconds * 1e3)
    wall = time.perf_counter() - timed_start
    rec.end()

    # -- checks: store answers == batch analysis; ingest idempotent -------
    checks = ctx.checks
    first = campaign.snapshots[0].result
    last = campaign.snapshots[-1].result
    batch_rows, batch_share = country_fluctuation(first, last,
                                                  scenario.geoip)
    table1_text = format_fluctuation(table1[0], "Country")
    checks.check(table1_text == format_fluctuation(batch_rows, "Country")
                 and table1[1] == batch_share,
                 "Table 1 byte-identical to batch analysis")
    table2_text = format_fluctuation(table2, "RIR")
    checks.check(table2_text == format_fluctuation(
        rir_fluctuation(first, last, scenario.geoip), "RIR"),
        "Table 2 byte-identical to batch analysis")
    survival_text = format_survival(curve)
    checks.check(survival_text == format_survival(
        churn_survival(campaign.snapshots)),
        "Figure 2 byte-identical to batch analysis")
    checks.check(first_pass.units_folded >= weeks and len(store) > 0,
                 "first ingest folded every week")
    checks.check(not second_pass.changed() and store.digest() == digest
                 and opened.digest() == digest,
                 "re-ingest is a no-op with equal digest()")
    checks.tally(len(wanted), missing, "every sampled lookup non-None")

    # -- read side, over HTTP: one keep-alive caller -----------------------
    paths = _request_paths(sampler, ips)
    with ObservatoryServer(observatory) as server:
        latencies, bad, elapsed = _closed_loop(
            server.address, paths,
            window=ctx.seconds * params["http_share"])
        checks.tally(len(latencies), bad, "HTTP requests answered 200")
        http = latency_summary(latencies)
        closing = None
        if ctx.traced:
            closing, __, __ = _closed_loop(
                server.address, itertools.islice(paths, CLOSE_REQUESTS),
                keep_alive=False)

    probes = sum(snapshot.result.probes_sent
                 for snapshot in campaign.snapshots)
    targets = len(campaign.target_space)
    metrics = {
        "setup_s": setup_seconds,
        "wall_s": wall,
        "probes_per_target": probes / (targets * weeks),
        "campaign_s": campaign_seconds,
        "ingest_s": ingest_seconds,
        "lookup_per_s": rate(len(wanted), lookup_seconds),
        "analytics_ms": median(rounds),
        "http_req_per_s": rate(len(latencies) - bad, elapsed),
        "http_p50_ms": http["p50_ms"],
    }
    extras = {"http": http, "resolvers": len(store), "weeks": weeks,
              "targets": targets, "probes_sent": probes,
              "lookups": len(wanted), "members": members,
              "analytics_rounds": len(rounds)}
    if ctx.traced:
        world_layers(ctx, setup_seconds, members)
        layers = ctx.layers
        layers["checkpoint.commit_ms"] = median(
            rec.durations("checkpoint.commit")) * 1e3
        layers["checkpoint.bytes_per_unit"] = rate(
            perf.counter("checkpoint_snapshot_bytes"),
            perf.counter("checkpoint_snapshots_written"))
        delta_walls = [seconds for seconds, snapshot
                       in zip(rec.durations("campaign.week"),
                              campaign.snapshots)
                       if snapshot.result.carried_targets]
        layers["delta.week_s"] = median(delta_walls) if delta_walls \
            else 0.0
        layers["delta.probes_saved_share"] = (
            1.0 - metrics["probes_per_target"])
        feed = CheckpointFeed(ckpt_dir)
        seconds, commits = timed(lambda: (len(list(feed.commits())),
                                          feed.record_count())[0])
        ctx.layer_rate("feed.commits_per_s", commits, seconds)
        save_seconds = rec.total("store.save")
        layers["ingest.fold_s"] = ingest_seconds - save_seconds
        ctx.layer_rate("ingest.rows_per_s",
                       sum(snapshot.result.row_count()
                           for snapshot in campaign.snapshots),
                       ingest_seconds)
        layers["ingest.noop_s"] = noop_seconds
        layers["store.save_s"] = save_seconds
        layers["store.disk_bytes"] = store.disk_bytes()
        layers["store.open_s"] = open_seconds
        cold = ResolverStore.open(store_dir)
        layers["store.week_cold_load_ms"] = median(
            [timed(cold.week, week)[0] * 1e3 for week in cold.weeks()])
        layers["query.lookup_us_p50"] = lookup_p50 * 1e6
        layers["query.lookup_us_p99"] = lookup_p99 * 1e6
        layers["query.rankings_ms"] = median(rankings_ms)
        layers["query.survival_ms"] = median(survival_ms)
        layers["query.timeline_ms"] = median(timeline_ms)
        layers["service.http_overhead_ms"] = (http["p50_ms"]
                                              - lookup_p50 * 1e3)
        layers["service.close_per_request_ms"] = median(closing)
        ctx.layer_detail["service.close_per_request_ms"] = {
            "count": len(closing), "busy_s": sum(closing) / 1e3}
    return {"metrics": metrics, "extras": extras, "root": "timed",
            "digest": digest_of([digest, table1_text, table2_text,
                                 survival_text])}
