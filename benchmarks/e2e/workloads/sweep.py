"""``sweep`` and ``sweep-hostile``: the weekly IPv4 sweep, two ways.

``sweep`` drives the batched columnar path on a clean eager world with
one shard.  ``sweep-hostile`` drives the *same scanner layer* through
everything that path bypasses: a lazy population behind the node LRU,
5 % injected loss, the canonical hostile defenses, two forked shards,
``retries=2``, adaptive pacing and streamed result chunks.

Both opt a seeded handful of networks and addresses out of the scan
(the paper's blacklist, §2.2) so "blacklisted space got zero probes" is
a check with teeth.
"""

import gc
import pickle
import random
import time

from repro.datasets import MEASUREMENT_DOMAIN
from repro.faults import FaultPlan, FaultProfile
from repro.netsim.address import int_to_ip, ip_to_int
from repro.netsim.defense import install_hostile_population
from repro.obs import Observability
from repro.perf import PerfRegistry
from repro.scanner.encoding import ProbeBatchEncoder
from repro.scanner.ipv4scan import TargetFilter, merge_scan_results
from repro.scanner.lfsr import LFSR, TargetBatchIterator, permutation
from repro.scenario import ScenarioConfig

from benchmarks.e2e import spec
from benchmarks.e2e.harness import median
from benchmarks.e2e.workloads import (build_world, digest_of, rate, timed,
                                      world_layers)

SAMPLE_SHARE = 0.01          # of targets re-probed per week (sweep)
_ALLOWED_CAUSES = ("defense:", "fault:")


def _config(ctx, scale=None):
    hostile = ctx.name == spec.HOSTILE
    return ScenarioConfig(scale=scale or ctx.params["scale"],
                          seed=ctx.seed, loss_rate=0.0,
                          lazy_population=hostile)


def _opt_out(scenario, seed):
    """Blacklist three seeded /24s and three addresses that currently
    hold online resolvers — generated input, like the world itself."""
    online = sorted(scenario.online_resolver_ips(), key=ip_to_int)
    picks = random.Random(seed).sample(online, min(6, len(online)))
    for ip in picks[:3]:
        scenario.blacklist.add_network(
            "%s/24" % int_to_ip(ip_to_int(ip) & 0xFFFFFF00))
    for ip in picks[3:]:
        scenario.blacklist.add_address(ip)


def _new_campaign(ctx, scenario, shards=None):
    params = ctx.params
    if ctx.name == spec.SWEEP:
        return scenario.new_campaign(verify=False, perf=ctx.perf)
    return scenario.new_campaign(
        verify=False, shards=shards or params["shards"], perf=ctx.perf,
        retries=params["retries"], pacing="adaptive",
        stream_results=True, chunk_rows=params["chunk_rows"])


def _allowed_targets(space, blacklist):
    """Addresses of ``space`` the scanner may probe."""
    target_filter = TargetFilter(space, blacklist)
    allowed = 0
    for slot, prefix in enumerate(space.prefixes):
        if target_filter.clean[slot]:
            allowed += prefix.num_addresses - sum(
                1 for value in target_filter.blacklist_addresses
                if prefix.contains_int(value))
        else:
            allowed += sum(
                1 for value in range(prefix.base,
                                     prefix.base + prefix.num_addresses)
                if target_filter.allows_slot(slot, value))
    return allowed


def _check_clean_week(ctx, scenario, campaign, space, week, result,
                      allowed):
    """Batched result vs the per-probe path, probe and opt-out counts."""
    checks = ctx.checks
    rows = {}
    for value, rcode, flags in result.iter_rows():
        rows.setdefault(value, []).append((rcode, flags & 1))
    sampler = random.Random(ctx.seed * 1000 + week)
    sample = sampler.sample(range(len(space)),
                            max(1, int(len(space) * SAMPLE_SHARE)))
    blacklist = scenario.blacklist
    probe = campaign.scanner.probe
    mismatched = 0
    for index in sample:
        value = space.int_at(index)
        expected = sorted(rows.get(value, ()))
        if value in blacklist:
            mismatched += bool(expected)
            continue
        ip = int_to_ip(value)
        observed = sorted((rcode, int(source != ip))
                          for rcode, source in probe(ip))
        mismatched += observed != expected
    checks.tally(len(sample), mismatched,
                 "week %d: per-probe re-probe agrees with batched rows"
                 % week)
    checks.check(result.probes_sent == allowed,
                 "week %d: probes_sent %d == allowed targets %d"
                 % (week, result.probes_sent, allowed))
    checks.check(not any(ip in blacklist for ip in result.responders),
                 "week %d: no responder inside opted-out space" % week)


def _check_hostile_week(ctx, space, week, result):
    checks = ctx.checks
    ceiling = (1 + ctx.params["retries"]) * len(space)
    checks.check(result.probes_sent <= ceiling,
                 "week %d: probes_sent %d <= (1+retries) x targets %d"
                 % (week, result.probes_sent, ceiling))
    uncaused = [cause for (__, cause) in result.suppressed
                if not cause.startswith(_ALLOWED_CAUSES)]
    checks.tally(max(1, len(result.suppressed)), len(uncaused),
                 "week %d: every suppressed window has a defense:/fault: "
                 "cause" % week)
    unexplained = [entry for entry in result.degraded_shards
                   if entry.get("status") != "suppressed"]
    checks.check(not unexplained,
                 "week %d: no shard degraded outside the injected plan "
                 "(%r)" % (week, unexplained[:2]))


def _coverage(scenario, result):
    blacklist = scenario.blacklist
    online = {ip for ip in scenario.online_resolver_ips()
              if ip not in blacklist}
    return len(result.responders & online), len(online)


def _result_digest(results):
    parts = []
    for result in results:
        parts.extend(result.canonical_columns())
        parts.append(result.probes_sent)
        parts.append(sorted(result.suppressed.items()))
    return digest_of(parts)


def run(ctx):
    rec = ctx.rec
    params = ctx.params
    hostile = ctx.name == spec.HOSTILE
    perf = ctx.perf

    # -- set-up: world, inputs, warm-up week (untimed) ------------------
    setup_start = time.perf_counter()
    rec.begin("setup")
    scenario, build_seconds, members = build_world(ctx, _config(ctx))
    network = scenario.network
    if hostile:
        network.install_faults(FaultPlan(
            FaultProfile(loss_rate=params["loss_rate"]), seed=ctx.seed))
        install_hostile_population(network,
                                   scenario.target_space().prefixes,
                                   seed=ctx.seed)
    _opt_out(scenario, ctx.seed)
    campaign = _new_campaign(ctx, scenario)
    space = campaign.target_space
    rec.wrap(scenario.churn, "step", "churn.step")
    prewarm_seconds = 0.0
    if ctx.traced:
        # Cold: the warm-up week below would otherwise build this state.
        with rec.span("ipv4scan.prewarm"):
            prewarm_seconds, __ = timed(campaign.scanner.prewarm, space)
    with rec.span("warmup.week"):
        campaign.run_week()
    rec.end()
    setup_seconds = time.perf_counter() - setup_start

    # -- timed weeks -----------------------------------------------------
    allowed = _allowed_targets(space, scenario.blacklist)
    # Where the traced run's count deltas start (warm-up excluded).
    marks = None
    if ctx.traced:
        marks = (dict(perf.counters), perf.seconds("shard_wall"),
                 dict(network.fault_counters))
    week_walls, results = [], []
    found = online = 0
    for __ in range(params["timed_weeks"]):
        rec.begin("week")
        start = time.perf_counter()
        snapshot = campaign.run_week()
        week_walls.append(time.perf_counter() - start)
        rec.end()
        result = snapshot.result
        results.append(result)
        week_found, week_online = _coverage(scenario, result)
        found += week_found
        online += week_online
        if hostile:
            _check_hostile_week(ctx, space, snapshot.week, result)
        else:
            _check_clean_week(ctx, scenario, campaign, space,
                              snapshot.week, result, allowed)

    probes = [result.probes_sent for result in results]
    metrics = {
        "setup_s": setup_seconds,
        "wall_s": sum(week_walls),
        "probes_per_s": median([sent / wall for sent, wall
                                in zip(probes, week_walls)]),
        "probes_per_target": sum(probes) / (len(space) * len(results)),
        "coverage_share": found / online if online else 0.0,
        "unit_p50_ms": median(week_walls) * 1e3,
    }
    extras = {"targets": len(space), "allowed_targets": allowed,
              "timed_weeks": len(results), "probes_sent": sum(probes),
              "responders_last_week": len(results[-1].responders),
              "week_wall_s": week_walls}
    if ctx.traced:
        world_layers(ctx, build_seconds, members)
        week_scans = rec.durations("ipv4scan.scan", under="week")
        ctx.layers["ipv4scan.prewarm_s"] = prewarm_seconds
        ctx.layers["ipv4scan.week_s_p50"] = median(week_scans)
        ctx.layers["ipv4scan.week_s_max"] = max(week_scans)
        if hostile:
            _hostile_layers(ctx, scenario, campaign, results, week_walls,
                            marks)
        else:
            ctx.layer_rate("ipv4scan.probes_per_s", sum(probes),
                           sum(week_scans))
            counters_before = marks[0]
            ctx.layers["netsim.fast_path_share"] = rate(
                perf.counter("probes_bulk_settled")
                - counters_before.get("probes_bulk_settled", 0),
                perf.counter("probes_sent")
                - counters_before.get("probes_sent", 0))
            _clean_layers(ctx, campaign)
    return {"metrics": metrics, "extras": extras,
            "digest": _result_digest(results), "root": "week"}


# -- direct timed calls into single layers (traced run only) ------------

def _probe_key(value):
    """A stand-in 40-bit probe identity for encoder inputs."""
    return (value * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFF


def _clean_layers(ctx, campaign):
    scanner = campaign.scanner
    space = campaign.target_space
    total = len(space)

    # The LFSR walk alone: every in-range state, batched, nothing else.
    order = LFSR.order_for(total)
    period = (1 << order) - 1
    walk = permutation(order, seed=(scanner.lfsr_seed % period) or 1)
    selector = bytearray(period + 1)
    selector[1:total + 1] = b"\x01" * total
    batches = TargetBatchIterator(walk, selector,
                                  batch_size=scanner.probe_batch)
    seconds, walked = timed(lambda: sum(len(batch) for batch in batches))
    ctx.layer_rate("lfsr.targets_per_s", walked, seconds)

    # Probe encoding alone, over real target values.
    encoder = ProbeBatchEncoder(MEASUREMENT_DOMAIN)
    values = [space.int_at(index)
              for index in range(0, total, max(1, total // 200000))]
    keys = [_probe_key(value) for value in values]
    size = scanner.probe_batch
    start = time.perf_counter()
    for offset in range(0, len(values), size):
        encoder.encode_batch(keys[offset:offset + size],
                             values[offset:offset + size])
    ctx.layer_rate("encoding.qnames_per_s", len(values),
                   time.perf_counter() - start)

    # The same sweep call on a small world: the ratio to the big one is
    # what the larger working set costs per probe.  This process still
    # holds the big world: freeze it out of the collector's sight, or
    # every full collection during the small sweep would walk it again.
    gc.freeze()
    small, __, __ = build_world(ctx, _config(
        ctx, scale=ctx.params["small_world_scale"]))
    small_campaign = small.new_campaign(verify=False,
                                        perf=PerfRegistry())
    small_campaign.run_week()                    # warm-up

    def median_week():
        """``(probes, seconds)`` of the median-cost week of three."""
        weeks = []
        for __ in range(3):
            seconds, snapshot = timed(small_campaign.run_week)
            weeks.append((seconds / snapshot.result.probes_sent,
                          snapshot.result.probes_sent, seconds))
        return sorted(weeks)[1][1:]

    sent, seconds = median_week()
    ctx.layer_rate("ipv4scan.small_world_probes_per_s", sent, seconds)
    # ... and again with the flight recorder and tracer installed.
    Observability(clock=small.network.clock,
                  seed=ctx.seed).install(small.network)
    traced_sent, traced_seconds = median_week()
    ctx.layers["obs.traced_week_overhead_x"] = (
        (traced_seconds / traced_sent) / (seconds / sent))


def _hostile_layers(ctx, scenario, campaign, results, week_walls, marks):
    layers = ctx.layers
    perf = ctx.perf
    network = scenario.network
    space = campaign.target_space
    counters_before, shard_wall_before, faults_before = marks
    probes = sum(result.probes_sent for result in results)
    # Per core: probes over the workers' own busy seconds.
    ctx.layer_rate("ipv4scan.robust_probes_per_s", probes,
                   perf.seconds("shard_wall") - shard_wall_before)
    faults = {name: value - faults_before.get(name, 0)
              for name, value in network.fault_counters.items()}
    layers["ipv4scan.retransmissions"] = sum(
        result.retransmissions for result in results)
    layers["faults.loss_drops"] = faults.get("injected_loss", 0)
    layers["defense.drops"] = sum(
        value for name, value in faults.items()
        if name.startswith("defense:"))
    layers["pacing.suppressed_targets"] = sum(
        result.suppressed_targets for result in results)
    layers["engine.chunk_frames"] = (
        perf.counter("checkpoint_snapshots_written")
        - counters_before.get("checkpoint_snapshots_written", 0))

    # Result shipping: what a shard pays to send its rows home, and the
    # supervisor to fold two shards' rows together.
    seconds, blob = timed(pickle.dumps, results[-1],
                          pickle.HIGHEST_PROTOCOL)
    layers["ipv4scan.result_pickle_s"] = seconds
    layers["ipv4scan.result_bytes"] = len(blob)
    halves = [pickle.loads(blob), pickle.loads(blob)]
    layers["ipv4scan.merge_s"], __ = timed(
        merge_scan_results, results[-1].timestamp, halves)

    # Lazy node materialization alone, over a seeded sample of members.
    pools = [pool for pool in scenario.population.lazy_pools
             if len(pool.seeds)]
    sampler = random.Random(ctx.seed)
    picks = [(pool, sampler.randrange(len(pool.seeds)))
             for pool in (sampler.choice(pools) for __ in range(2000))]
    start = time.perf_counter()
    for pool, index in picks:
        pool.synthesize(index)
    seconds = time.perf_counter() - start
    layers["population.node_materialize_us"] = seconds / len(picks) * 1e6
    ctx.layer_detail["population.node_materialize_us"] = {
        "count": len(picks), "busy_s": seconds}

    # One more week on one shard: the same robust loop without the
    # supervisor, pipes and second process.
    solo = _new_campaign(ctx, scenario, shards=1)
    signals_before = perf.counter("pacing_defense_signals")
    seconds, snapshot = timed(solo.run_week)
    # Only a full-space scan tallies the (global) pacing plan's signals,
    # so the sharded weeks above never do; this week does.
    layers["pacing.signals"] = (
        perf.counter("pacing_defense_signals") - signals_before)
    sharded = median([result.probes_sent / wall for result, wall
                      in zip(results, week_walls)])
    one_shard = rate(snapshot.result.probes_sent, seconds)
    layers["engine.shard_speedup"] = sharded / one_shard
    ctx.layer_detail["engine.shard_speedup"] = {
        "sharded_probes_per_s": sharded,
        "one_shard_probes_per_s": one_shard}

    # The per-probe wire path alone (faults and defenses in place).
    scanner = campaign.scanner
    encoder = ProbeBatchEncoder(MEASUREMENT_DOMAIN)
    sends = []
    for index in sampler.sample(range(len(space)),
                                min(20000, len(space))):
        value = space.int_at(index)
        sends.append((int_to_ip(value), value,
                      encoder.encode(_probe_key(value), value)[1]))
    send_probe = network.send_probe
    source_ip, source_port = scanner.source_ip, scanner.source_port
    start = time.perf_counter()
    for ip, value, payload in sends:
        send_probe(source_ip, source_port, ip, 53, value, payload)
    ctx.layer_rate("netsim.send_probe_per_s", len(sends),
                   time.perf_counter() - start)
