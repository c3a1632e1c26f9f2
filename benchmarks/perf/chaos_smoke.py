"""Chaos smoke run: scan + pipeline under aggressive injected faults.

The CI gate for the fault-injection plane and the supervision/recovery
machinery.  It runs a small sharded scan under the ``aggressive``
profile with a forced worker kill and retries enabled, then a
classification pipeline with bounded fetches and a tight error budget,
and asserts:

1. faults actually fired (nonzero ``fault_*`` counters);
2. the killed worker was recovered without a full-space rescan and the
   degradation is visible in the result's provenance;
3. the degraded run is bit-identical across two same-seed executions;
4. the pipeline completes and reports instead of raising;
5. its Banking domain scan reads the same on a fresh world with a
   flight recorder installed, which keeps every datagram on the wire,
   as without one, where questions settle by answer class -- with the
   fault plan and without it.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.chaos_smoke
"""

import sys

from repro.faults import FaultPlan, parse_fault_spec
from repro.perf import PerfRegistry
from repro.scenario import ScenarioConfig, build_scenario

SCALE = 60000
SEED = 7
SHARDS = 3
SPEC = "aggressive,kill=0"


def chaos_scan():
    """One sharded scan of a fresh world under the chaos plan."""
    scenario = build_scenario(ScenarioConfig(scale=SCALE, seed=SEED))
    scenario.network.install_faults(
        FaultPlan(parse_fault_spec(SPEC), seed=SEED))
    perf = PerfRegistry()
    campaign = scenario.new_campaign(verify=False, shards=SHARDS,
                                     perf=perf, retries=1)
    result = campaign.run_week().result
    return scenario, result, perf


def fingerprint(result):
    return (result.counts(), sorted(result.responders),
            sorted(result.divergent_sources), result.probes_sent,
            result.retransmissions,
            [tuple(sorted(e.items())) for e in result.provenance])


def check(condition, message):
    if not condition:
        print("FAIL: %s" % message, file=sys.stderr)
        return 1
    print("ok: %s" % message, file=sys.stderr)
    return 0


def banking_scan(resolvers, faults, recorder):
    """The Banking pipeline's domain scan of ``resolvers`` on a freshly
    built world, under the chaos plan or none, with a flight recorder
    (every datagram on the wire) or without (questions settle by class):
    the observations and the network's counters after it."""
    from repro.datasets import DOMAIN_SETS
    from repro.obs.flight import FlightRecorder
    scenario = build_scenario(ScenarioConfig(scale=SCALE, seed=SEED))
    network = scenario.network
    if faults:
        network.install_faults(FaultPlan(parse_fault_spec(SPEC), seed=SEED))
    if recorder:
        network.recorder = FlightRecorder()
    observations = scenario.new_pipeline().domain_engine.scan(
        resolvers, [domain.name for domain in DOMAIN_SETS["Banking"]])
    return ([(o.domain, o.resolver_ip, o.rcode, o.addresses, o.source_ip,
              o.all_responses, o.injected_suspect, o.ns_record_count)
             for o in observations],
            network.udp_queries_sent, network.udp_queries_lost,
            network.udp_responses_corrupted, dict(network.fault_counters),
            network.flow_state())


def hostile_scan():
    """A sharded adaptive scan of a fresh world behind the default
    hostile defensive population (no injected faults: the defenses are
    the chaos)."""
    from repro.netsim.defense import install_hostile_population
    scenario = build_scenario(ScenarioConfig(scale=SCALE, seed=SEED))
    install_hostile_population(scenario.network,
                               scenario.target_space().prefixes,
                               seed=SEED)
    campaign = scenario.new_campaign(verify=False, shards=SHARDS,
                                     pacing="adaptive")
    result = campaign.run_week().result
    return scenario, result


def hostile_fingerprint(result):
    return fingerprint(result) + (sorted(result.suppressed.items()),)


def delta_chaos_campaign():
    """A differential campaign under injected faults.

    The aggressive profile's loss/bursts fail enough audit probes to
    blow a tight drift budget: the campaign must fall back to a full
    sweep *and say so* — escalation provenance, not silent staleness.
    """
    from repro.scanner import DeltaConfig
    scenario = build_scenario(ScenarioConfig(scale=SCALE, seed=SEED))
    scenario.network.install_faults(
        FaultPlan(parse_fault_spec("aggressive"), seed=SEED))
    campaign = scenario.new_campaign(
        verify=False, shards=SHARDS,
        delta=DeltaConfig(audit_fraction=0.5, drift_budget=0.05,
                          full_sweep_every=4))
    campaign.run(3)
    return scenario, campaign


def delta_fingerprint(campaign):
    return [fingerprint(snapshot.result)
            + (sorted(snapshot.result.carried.items()),)
            for snapshot in campaign.snapshots]


def main():
    failures = 0
    print("chaos scan 1/2 (scale 1:%d, seed %d, %d shards, %r)..."
          % (SCALE, SEED, SHARDS, SPEC), file=sys.stderr)
    scenario, first, perf = chaos_scan()
    counters = scenario.network.fault_counters

    failures += check(counters.get("injected_loss", 0) > 0,
                      "injected loss fired (%d)"
                      % counters.get("injected_loss", 0))
    failures += check(sum(counters.values()) > 0,
                      "fault counters nonzero: %s"
                      % sorted(counters.items()))
    failures += check(perf.counter("worker_deaths") >= 1,
                      "forced worker death observed (%d)"
                      % perf.counter("worker_deaths"))
    failures += check(first.degraded_shards,
                      "degraded shards recorded in provenance: %s"
                      % [e["status"] for e in first.degraded_shards])
    failures += check(len(first.provenance) >= SHARDS,
                      "every work item has a provenance entry (%d)"
                      % len(first.provenance))
    failures += check(first.responders,
                      "scan still found %d responders"
                      % len(first.responders))
    failures += check(first.retransmissions > 0,
                      "retries active (%d retransmissions)"
                      % first.retransmissions)
    # Recovery stayed narrow: total probes = one per allowed target per
    # attempt; a full-space fallback rescan would double the volume.
    space = len(scenario.target_space())
    failures += check(first.probes_sent <= 2 * space,
                      "no full-space rescan (%d probes over %d targets)"
                      % (first.probes_sent, space))

    print("chaos scan 2/2 (rerun, same seed)...", file=sys.stderr)
    __, second, __unused = chaos_scan()
    failures += check(fingerprint(first) == fingerprint(second),
                      "degraded run bit-identical across reruns")

    print("hostile population (defenses up, adaptive pacing)...",
          file=sys.stderr)
    hostile_scenario, hostile = hostile_scan()
    defense_counters = {key: count for key, count
                        in hostile_scenario.network.fault_counters.items()
                        if key.startswith("defense:")}
    failures += check(sum(defense_counters.values()) > 0,
                      "defensive middleboxes fired: %s"
                      % sorted(defense_counters.items()))
    failures += check(hostile.suppressed_targets > 0,
                      "pacing suppressions recorded (%d targets)"
                      % hostile.suppressed_targets)
    failures += check(
        all(entry["cause"].startswith("defense:")
            for entry in hostile.degraded_shards
            if entry["status"] == "suppressed"),
        "suppressed provenance carries defense:* causes")
    failures += check(hostile.responders,
                      "adaptive scan still found %d responders"
                      % len(hostile.responders))
    __, hostile_again = hostile_scan()
    failures += check(
        hostile_fingerprint(hostile) == hostile_fingerprint(hostile_again),
        "hostile-population run bit-identical across reruns")

    print("delta campaign under faults...", file=sys.stderr)
    __, delta_campaign = delta_chaos_campaign()
    statuses = [entry.get("status")
                for snapshot in delta_campaign.snapshots
                for entry in snapshot.result.degraded_shards]
    failures += check(
        "delta_full_sweep" in statuses or "delta_escalated" in statuses,
        "fault-driven drift escalated and was reported: %s"
        % sorted(set(statuses)))
    causes = {entry.get("cause")
              for snapshot in delta_campaign.snapshots
              for entry in snapshot.result.provenance
              if entry.get("kind") == "delta"
              or str(entry.get("status", "")).startswith("delta")}
    failures += check(
        all(cause is None or cause.startswith("delta:")
            for cause in causes),
        "escalation provenance carries delta:* causes: %s"
        % sorted(cause for cause in causes if cause))
    failures += check(
        delta_campaign.last().result.responders,
        "delta campaign under faults still found %d responders"
        % len(delta_campaign.last().result.responders))
    __, delta_again = delta_chaos_campaign()
    failures += check(
        delta_fingerprint(delta_campaign) == delta_fingerprint(delta_again),
        "faulted delta campaign bit-identical across reruns")

    print("pipeline under faults...", file=sys.stderr)
    from repro.datasets import DOMAIN_SETS
    pipeline = scenario.new_pipeline(fetch_timeout=5.0, error_budget=25)
    resolvers = sorted(first.noerror)[:40]
    report = pipeline.run(resolvers, list(DOMAIN_SETS["Banking"]))
    failures += check(len(report.observations) > 0,
                      "pipeline produced %d observations"
                      % len(report.observations))
    failures += check(isinstance(report.degraded, list),
                      "degradation provenance present (%d entries)"
                      % len(report.degraded))

    print("Banking domain scan, settled against the wire...",
          file=sys.stderr)
    for faults in (True, False):
        settled = banking_scan(resolvers, faults, recorder=False)
        wired = banking_scan(resolvers, faults, recorder=True)
        failures += check(
            settled == wired and settled[0],
            "%d observations and the network counters equal with and "
            "without a flight recorder (%s)"
            % (len(settled[0]), "fault plan" if faults else "no faults"))

    if failures:
        print("%d chaos smoke check(s) failed" % failures,
              file=sys.stderr)
        return 1
    print("chaos smoke passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
