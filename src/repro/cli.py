"""Command-line interface: run the study's experiments from a shell.

Usage::

    python -m repro.cli scan                 # one Internet-wide scan
    python -m repro.cli campaign --weeks 20  # Fig. 1/2 longitudinal study
    python -m repro.cli fingerprint          # Tables 3 and 4
    python -m repro.cli snoop --sample 300   # §2.6 utilization
    python -m repro.cli classify --set Adult # §4 pipeline for one set
    python -m repro.cli audit 1.2.3.4        # audit one resolver
    python -m repro.cli fullstudy            # all of the above, one report

Each of these seven is a body run inside one `_session`, which owns the
lifecycle (world, options, checkpoint, instruments, crash handling) and
reads the flag groups the command declares: world flags (``--scale``,
1:N of the paper's Internet, default 20000; ``--seed``) and instrument
flags on all seven, sweep, pipeline and campaign flags where they are
read.  All output is plain text on stdout.
"""

import argparse
import gc
import math
import os
import sys
import threading
from contextlib import contextmanager
from types import SimpleNamespace

from repro.datasets import DOMAIN_SETS
from repro.faults import (CRASH_EXIT_CODE, FaultPlan, InjectedCrash,
                          parse_fault_spec)
from repro.perf import PerfRegistry
from repro.scanner import ScanOptions, normalize_delta
from repro.scanner.options import BACKOFF, PROBE_BATCH
from repro.scenario import ScenarioConfig, build_scenario


def _positive_int(text):
    """Argparse type for knobs that must be strictly positive.

    Rejecting at parse time turns ``--probe-batch 0`` into a one-line
    usage error instead of a deep traceback out of the scan core.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not an integer" % text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            "must be a positive integer (got %d)" % value)
    return value


def _non_negative_int(text):
    """Argparse type for count knobs where zero is meaningful
    (``--retries 0`` is the single-probe fast path) but negatives are
    nonsense."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not an integer" % text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            "must be a non-negative integer (got %d)" % value)
    return value


def _positive_float(text):
    """Argparse type for strictly positive real-valued knobs.

    Rejects zero, negatives, NaN and infinity: a ``--probe-timeout 0``
    would otherwise time out every probe instantly and report an empty
    Internet with a straight face, and an ``inf`` (or ``1e400``) would
    overflow the first integer or timer it reached.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not a number" % text)
    if not 0 < value < math.inf:  # NaN fails every comparison
        raise argparse.ArgumentTypeError(
            "must be a finite positive number (got %r)" % text)
    return value


def _backoff_factor(text):
    """Argparse type for ``--backoff``: below 1 every retransmission
    would time out *sooner* than the attempt before it."""
    value = _positive_float(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            "must be a number >= 1 (got %r)" % text)
    return value


def _fraction(text):
    """Argparse type for (0, 1) shares (audit fraction, drift budget)."""
    value = _positive_float(text)
    if value >= 1:
        raise argparse.ArgumentTypeError(
            "must be a positive fraction below 1 (got %r)" % text)
    return value


def _poll_interval(text):
    """Argparse type for ``--ingest-poll``.  ``time.sleep`` waits until
    the monotonic clock plus the interval, a deadline that must stay
    below ``threading.TIMEOUT_MAX`` (beyond it the sleep raises
    ``OverflowError``, and just under it ``OSError``), so an interval is
    at most half of that: room for any clock reading under ~146 years."""
    value = _positive_float(text)
    if value > threading.TIMEOUT_MAX / 2:
        raise argparse.ArgumentTypeError(
            "must be at most %d seconds (got %r)"
            % (threading.TIMEOUT_MAX / 2, text))
    return value


def _store_dir(text):
    """Argparse type for the observatory store directory.

    The directory need not exist yet (ingest creates it), but a path to
    an existing *file* is rejected here rather than as an OSError out of
    the generation writer.
    """
    if not text or not text.strip():
        raise argparse.ArgumentTypeError("store directory must be "
                                         "a non-empty path")
    if os.path.exists(text) and not os.path.isdir(text):
        raise argparse.ArgumentTypeError(
            "%r exists and is not a directory" % text)
    return text


def _endpoint(text):
    """Argparse type for ``host:port`` listen addresses.

    Returns ``(host, port)``; port 0 is allowed (the OS picks a free
    port — useful under test), anything outside 0-65535 is not.
    """
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(
            "%r is not host:port (e.g. 127.0.0.1:8053)" % text)
    try:
        port = int(port_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "%r has a non-integer port" % text)
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(
            "port must be 0-65535 (got %d)" % port)
    return (host, port)


def _add_world(parser):
    """World flags: what `_build` and `_run_meta` read.  Every study
    command takes them."""
    parser.add_argument("--scale", type=_positive_int, default=20000,
                        help="1:N scale of the simulated Internet")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="deterministic fault plan: a profile name "
                             "(none/mild/aggressive) plus overrides, "
                             "e.g. 'aggressive,loss_rate=0.2,kill=0'")
    parser.add_argument("--lazy-population", action="store_true",
                        help="materialize resolver nodes on first probe "
                             "from compact per-pool specs instead of "
                             "building every node up front (memory "
                             "bounded by --node-cache)")
    parser.add_argument("--node-cache", type=_positive_int, default=8192,
                        metavar="N",
                        help="live materialized nodes kept per worker "
                             "under --lazy-population (LRU-evicted "
                             "beyond this)")


def _add_sweep(parser):
    """Sweep flags: the `ScanOptions` fields `_scan_options` reads.
    Every study command that runs an IPv4 sweep takes them."""
    parser.add_argument("--shards", type=_positive_int, default=1,
                        help="scan worker processes (fork-based)")
    parser.add_argument("--retries", type=_non_negative_int, default=0,
                        help="probe retransmissions per unanswered "
                             "target (exponential backoff)")
    parser.add_argument("--probe-timeout", type=_positive_float,
                        default=None,
                        metavar="SEC",
                        help="base per-probe response timeout; grows "
                             "with backoff, floored at the target's "
                             "round-trip estimate")
    parser.add_argument("--probe-batch", type=_positive_int,
                        default=PROBE_BATCH, metavar="N",
                        help="targets per columnar scan batch (bulk "
                             "triage granularity; results are "
                             "batch-size independent)")
    parser.add_argument("--stream-results", action="store_true",
                        help="scan workers ship their results to the "
                             "parent as fixed-size chunks while they "
                             "scan instead of as one whole-shard frame "
                             "(worker memory bounded by chunk size; "
                             "results are bit-identical)")
    parser.add_argument("--backoff", type=_backoff_factor,
                        default=BACKOFF, metavar="FACTOR",
                        help="retransmission timeout growth factor "
                             "(each retry waits FACTOR times longer)")
    parser.add_argument("--pacing", choices=("off", "adaptive"),
                        default="off",
                        help="probe-rate controller: 'adaptive' runs an "
                             "AIMD rate per /16 window with a circuit "
                             "breaker against defensive middleboxes")
    parser.add_argument("--max-pps", type=_positive_float, default=None,
                        metavar="PPS",
                        help="declared probe-rate ceiling; also the "
                             "adaptive controller's upper bound")


def _add_pipeline(parser):
    parser.add_argument("--pipeline-shards", type=_positive_int,
                        default=1, metavar="N",
                        help="worker processes for the classification "
                             "pipeline's domain scan")


def _add_campaign(parser):
    """Campaign flags, for the two commands whose work is a multi-week
    campaign cut into durable units: ``--checkpoint-dir/--resume``
    (`_open_checkpoint`) and the ``--delta`` family (`_scan_options`)."""
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="directory for the crash-safe write-ahead "
                             "journal and per-unit snapshots; completed "
                             "weeks/stages/shards are committed durably "
                             "as they finish")
    parser.add_argument("--resume", action="store_true",
                        help="resume an interrupted run from "
                             "--checkpoint-dir, re-entering at the "
                             "first incomplete unit of work")
    parser.add_argument("--delta", action="store_true",
                        help="differential campaign: carry the prior "
                             "week's verdicts in stable prefixes, "
                             "re-probe only churn-forecast prefixes, "
                             "audit a seeded sample of carried data, "
                             "and escalate to full sweeps on drift")
    parser.add_argument("--audit-fraction", type=_fraction, default=None,
                        metavar="SHARE",
                        help="share of carried-forward responders "
                             "re-verified by audit probes each delta "
                             "week (default 0.05)")
    parser.add_argument("--drift-budget", type=_fraction, default=None,
                        metavar="SHARE",
                        help="audited failure share beyond which a "
                             "window (or, in aggregate, the whole "
                             "campaign) escalates to a full sweep "
                             "(default 0.1)")
    parser.add_argument("--full-sweep-every", type=_positive_int,
                        default=None, metavar="WEEKS",
                        help="scheduled full-sweep re-baselining "
                             "interval under --delta (default 4)")


def _add_instruments(parser, perf=True):
    """Instrument flags: ``--perf`` (`_report_perf`) and
    ``--trace/--trace-out`` (`_tracing`, `_export_trace`)."""
    if perf:
        parser.add_argument("--perf", action="store_true",
                            help="print a throughput report to stderr")
    parser.add_argument("--trace", action="store_true",
                        help="record spans and wire-level flight events "
                             "(see 'repro trace' for rendering)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="trace export path (JSONL; implies --trace; "
                             "default trace.jsonl)")


def _scan_options(args):
    """Every scan knob of this invocation, read and validated once."""
    if not args.sweep_flags:
        return ScanOptions()
    delta = None
    if args.campaign_flags and args.delta:
        delta = normalize_delta(True, audit_fraction=args.audit_fraction,
                                drift_budget=args.drift_budget,
                                full_sweep_every=args.full_sweep_every)
    try:
        return ScanOptions(
            shards=args.shards, retries=args.retries,
            probe_timeout=args.probe_timeout, backoff=args.backoff,
            probe_batch=args.probe_batch, pacing=args.pacing,
            max_pps=args.max_pps, stream_results=args.stream_results,
            delta=delta)
    except ValueError as error:     # a refused combination of flags
        print("error: %s" % error, file=sys.stderr)
        raise SystemExit(2)


def _run_meta(args, options):
    """What must match for two runs to be the same run: checkpoint meta
    (a --resume under other knobs is a meta mismatch) and trace header."""
    return {"command": args.command, "scale": args.scale,
            "seed": args.seed, "faults": args.faults or None,
            "lazy_population": args.lazy_population,
            "options": options.as_meta()}


def _tracing(args, clock=None, seed=None):
    """The observability bundle ``--trace/--trace-out`` ask for, for
    study and observe commands alike.  Without either flag the bundle is
    disabled: its tracer is ``None`` and installing it attaches nothing."""
    from repro.obs import Observability
    return Observability(clock=clock, seed=seed,
                         enabled=args.trace or bool(args.trace_out))


def _export_trace(args, obs, perf, meta):
    """Write the recorded trace (also on the injected-crash path, so a
    crashed run's partial trace survives for inspection)."""
    if not obs.enabled:
        return
    path = args.trace_out or "trace.jsonl"
    spans, events = obs.export(path, perf=perf, meta=meta)
    print("trace: %d spans, %d flight events written to %s"
          % (spans, events, path), file=sys.stderr)


def _open_checkpoint(args, scenario, perf, meta):
    """Build the CheckpointedRun ``--checkpoint-dir`` asks for, or
    ``None``."""
    if not args.checkpoint_dir:
        if args.resume:
            raise SystemExit("--resume requires --checkpoint-dir")
        return None
    from repro.checkpoint import CheckpointedRun
    checkpoint = CheckpointedRun(
        args.checkpoint_dir, meta=meta, resume=args.resume,
        fault_plan=scenario.network.faults, perf=perf)
    if checkpoint.provenance["journal_records_replayed"] or \
            checkpoint.provenance["journal_records_quarantined"]:
        print("checkpoint: replayed %d journal records "
              "(%d quarantined) from %s"
              % (checkpoint.provenance["journal_records_replayed"],
                 checkpoint.provenance["journal_records_quarantined"],
                 args.checkpoint_dir), file=sys.stderr)
    return checkpoint


def _finish_checkpoint(checkpoint, crashed):
    """Write provenance and report the run's durability outcome."""
    if checkpoint is None:
        return 0
    from repro.reporting import format_resume_provenance
    path = checkpoint.write_provenance()
    if crashed is not None:
        print("injected crash: %s (checkpoint preserved in %s; "
              "rerun with --resume)" % (crashed, checkpoint.directory),
              file=sys.stderr)
    print(format_resume_provenance(checkpoint.provenance),
          file=sys.stderr)
    print("checkpoint provenance written to %s" % path, file=sys.stderr)
    checkpoint.close()
    return 0 if crashed is None else CRASH_EXIT_CODE


def _build(args):
    print("building 1:%d world (seed %d)..." % (args.scale, args.seed),
          file=sys.stderr)
    scenario = build_scenario(ScenarioConfig(
        scale=args.scale, seed=args.seed,
        lazy_population=args.lazy_population,
        node_cache=args.node_cache))
    if args.faults:
        plan = FaultPlan(parse_fault_spec(args.faults), seed=args.seed)
        scenario.network.install_faults(plan)
        print("fault plan: %r" % plan, file=sys.stderr)
    return scenario


def _report_perf(args, perf):
    if perf is not None:
        print(perf.format_report("perf %s" % args.command),
              file=sys.stderr)


def _check_shards(scenario, shards):
    """Reject shard counts the target space cannot cover.

    A shard with zero targets would fork a worker for nothing; worse,
    the error would surface as a confusing range assertion deep in the
    engine instead of at the flag that caused it.
    """
    targets = len(scenario.target_space())
    if shards > targets:
        raise SystemExit(
            "error: --shards %d exceeds the %d scan targets at this "
            "scale; use at most one shard per target" % (shards, targets))


@contextmanager
def _session(args, extra_meta=None):
    """The run lifecycle of every study command, in its one order.

    World and fault plan first: everything below hangs off them.  The
    options are validated against the world *before* the checkpoint
    opens, so a rejected invocation leaves nothing durable behind.  The
    checkpoint (its meta: `_run_meta` plus the command's ``extra_meta``)
    opens before the instruments go on, so the trace holds the
    command's work and none of the setup.  An injected crash skips the
    perf report but still exports the trace and closes the checkpoint;
    ``run.status`` is the command's exit code either way.
    """
    scenario = _build(args)
    # The world lives as long as the command: take it out of the
    # collector's full passes, and hand it back when the session ends
    # so in-process callers can free it.
    gc.freeze()
    try:
        perf = PerfRegistry() if args.perf else None
        options = _scan_options(args)
        _check_shards(scenario, options.shards)
        meta = _run_meta(args, options)
        checkpoint = None
        if args.campaign_flags:
            checkpoint = _open_checkpoint(args, scenario, perf,
                                          dict(meta, **extra_meta))
        obs = _tracing(args, scenario.network.clock, args.seed)
        obs.install(scenario.network)
        run = SimpleNamespace(scenario=scenario, perf=perf, options=options,
                              checkpoint=checkpoint, status=0)
        crashed = None
        try:
            yield run
        except InjectedCrash as crash:
            crashed = crash
        else:
            _report_perf(args, perf)
        _export_trace(args, obs, perf, meta)
        run.status = _finish_checkpoint(checkpoint, crashed)
    finally:
        gc.unfreeze()


def _sweep(run):
    """One Internet-wide scan under the session's options."""
    campaign = run.scenario.new_campaign(verify=False, perf=run.perf,
                                         options=run.options)
    return campaign.run_week().result


def cmd_scan(args):
    with _session(args) as run:
        result = _sweep(run)
        counts = result.counts()
        print("probes sent:      %d" % result.probes_sent)
        print("responders:       %d" % counts["all"])
        print("  NOERROR:        %d" % counts["noerror"])
        print("  REFUSED:        %d" % counts["refused"])
        print("  SERVFAIL:       %d" % counts["servfail"])
        print("divergent source: %d" % len(result.divergent_sources))
        if result.retransmissions:
            print("retransmissions:  %d" % result.retransmissions)
        if result.degraded_shards:
            print("degraded shards:  %d" % len(result.degraded_shards))
        if result.suppressed:
            print("suppressed:       %d targets (pacing gave windows up)"
                  % result.suppressed_targets)
    return run.status


def cmd_campaign(args):
    from repro.analysis.churn import churn_survival, format_survival
    from repro.analysis.magnitude import (
        decline_ratio,
        format_series,
        magnitude_series,
    )
    with _session(args, {"weeks": args.weeks}) as run:
        campaign = run.scenario.new_campaign(verify=False, perf=run.perf,
                                             options=run.options)
        campaign.run(args.weeks, checkpoint=run.checkpoint)
        series = magnitude_series(campaign.snapshots)
        print(format_series(series))
        print("decline ratio: %.2f" % decline_ratio(series))
        print()
        print(format_survival(churn_survival(campaign.snapshots)))
        if campaign.delta is not None:
            from repro.scanner.delta import delta_summary
            totals = delta_summary(campaign.snapshots)
            print()
            print("delta: %d delta weeks / %d full sweeps, %d verdicts "
                  "carried, %d audited (%d failed), %d refreshed, "
                  "%d window escalations, %d global escalations"
                  % (totals["delta_weeks"], totals["full_weeks"],
                     totals["carried"], totals["audited"],
                     totals["audit_failures"], totals["refreshed"],
                     totals["escalated_windows"],
                     totals["global_escalations"]))
    return run.status


def cmd_fingerprint(args):
    from repro.analysis.devices import device_table, format_device_table
    from repro.analysis.software import (
        format_software_table,
        software_table,
    )
    from repro.reporting import fingerprint_phase
    with _session(args) as run:
        resolvers = sorted(_sweep(run).noerror)
        fingerprint = fingerprint_phase(run.scenario, resolvers)
        print(format_software_table(
            software_table(fingerprint["software"])))
        print()
        print(format_device_table(device_table(
            fingerprint["classifications"],
            total_scanned=len(resolvers))))
    return run.status


def cmd_snoop(args):
    from repro.analysis.utilization import (
        format_utilization,
        utilization_summary,
    )
    from repro.reporting import snoop_phase
    with _session(args) as run:
        resolvers = sorted(_sweep(run).noerror)[:args.sample]
        snoop = snoop_phase(run.scenario, resolvers, hours=args.hours)
        print(format_utilization(utilization_summary(snoop["traces"])))
    return run.status


def cmd_classify(args):
    from collections import Counter
    with _session(args) as run:
        resolvers = sorted(_sweep(run).noerror)
        pipeline = run.scenario.new_pipeline(
            perf=run.perf,
            options=run.options.replace(shards=args.pipeline_shards))
        report = pipeline.run(resolvers, list(DOMAIN_SETS[args.set]))
        stats = report.prefilter.stats()
        print("domain set:    %s" % args.set)
        print("observations:  %d" % stats["observations"])
        print("legitimate:    %.1f%%" % (100 * stats["legitimate_share"]))
        print("empty answers: %.1f%%" % (100 * stats["empty_share"]))
        print("unexpected:    %.1f%%" % (100 * stats["unknown_share"]))
        print("clusters:      %d" % len(report.clusters))
        for (label, sublabel), count in Counter(
                (l.label, l.sublabel)
                for l in report.labeled).most_common():
            name = label if not sublabel else "%s (%s)" % (label, sublabel)
            print("  %-36s %d" % (name, count))
        print("classified:    %.1f%%" % (100 * report.classified_share()))
    return run.status


def cmd_audit(args):
    from collections import Counter
    with _session(args) as run:
        resolver_ip = args.resolver
        if run.scenario.network.node_at(resolver_ip) is None:
            # Pick an actual resolver when the requested address is
            # empty (addresses differ per seed/scale).
            resolver_ip = run.scenario.online_resolver_ips()[0]
            print("no host at %s; auditing %s instead"
                  % (args.resolver, resolver_ip), file=sys.stderr)
        domains = (list(DOMAIN_SETS["Banking"]) + list(DOMAIN_SETS["Alexa"])
                   + list(DOMAIN_SETS["Adult"])
                   + list(DOMAIN_SETS["Gambling"])
                   + list(DOMAIN_SETS["NX"]))
        pipeline = run.scenario.new_pipeline(
            perf=run.perf,
            options=run.options.replace(shards=args.pipeline_shards))
        report = pipeline.run([resolver_ip], domains)
        labels = Counter((l.label, l.sublabel) for l in report.labeled)
        print("resolver:   %s" % resolver_ip)
        print("responses:  %d" % len(report.observations))
        print("suspicious: %d tuples" % len(report.prefilter.unknown))
        if not labels:
            print("verdict:    CLEAN")
        else:
            print("verdict:    MANIPULATING")
            for (label, sublabel), count in labels.most_common():
                name = label if not sublabel else "%s/%s" % (label,
                                                             sublabel)
                print("  %-30s x%d" % (name, count))
    return run.status


def cmd_fullstudy(args):
    from repro.reporting import render_markdown, run_full_study
    with _session(args, {"weeks": args.weeks,
                         "snoop_sample": args.snoop_sample,
                         "pipeline_shards": args.pipeline_shards}) as run:
        results = run_full_study(
            run.scenario, weeks=args.weeks,
            snoop_sample=args.snoop_sample,
            pipeline_shards=args.pipeline_shards,
            checkpoint=run.checkpoint, perf=run.perf, options=run.options,
            progress=lambda message: print(message, file=sys.stderr))
        report = render_markdown(results, scenario=run.scenario)
        if args.out:
            # Atomic replace: a crash mid-write must never leave a torn
            # report where a complete one (from a previous run) stood.
            from repro.checkpoint import atomic_write_text
            atomic_write_text(args.out, report + "\n")
            print("report written to %s" % args.out, file=sys.stderr)
        else:
            print(report)
    return run.status


def cmd_trace(args):
    from repro.obs import (TraceSchemaError, read_trace,
                           render_trace_report, validate_trace)
    try:
        records = read_trace(args.file)
        summary = validate_trace(records)
    except (OSError, TraceSchemaError) as error:
        print("invalid trace: %s: %s" % (args.file, error),
              file=sys.stderr)
        return 2
    if args.validate_only:
        print("valid trace: %d spans, %d flight events, "
              "%d losses (%d attributed)"
              % (summary["spans"], summary["flight_events"],
                 summary["losses"], summary["losses_attributed"]))
        return 0
    print(render_trace_report(records))
    return 0


def _open_store(args, create=False):
    from repro.observatory import ResolverStore
    if create:
        return ResolverStore.open_or_create(args.store_dir)
    return ResolverStore.open(args.store_dir)


def _observe_geo(args):
    """Geography enrichment for ingest, rebuilt from the checkpoint's
    own recorded scale/seed — the scenario's prefix->country/AS mapping
    is deterministic, so this is the world the campaign scanned."""
    if args.no_geo:
        return None
    from repro.checkpoint import CheckpointFeed
    from repro.observatory import scenario_geo
    meta = CheckpointFeed(args.source).meta
    scale, seed = meta.get("scale"), meta.get("seed")
    if not scale or seed is None:
        print("observe: checkpoint meta lacks scale/seed; "
              "skipping geography", file=sys.stderr)
        return None
    print("building 1:%d world (seed %d) for geography..."
          % (scale, seed), file=sys.stderr)
    scenario = build_scenario(ScenarioConfig(scale=scale, seed=seed))
    return scenario_geo(scenario)


def _observe_meta(args):
    return {"command": "observe-%s" % args.observe_command}


def _ingest_once(store, args, geo, perf, tracer):
    from repro.observatory import ingest_checkpoint
    report = ingest_checkpoint(store, args.source, geo=geo, perf=perf,
                               tracer=tracer)
    if report.changed():
        print("ingest: folded %d units (%d weeks, %d fingerprints, "
              "%d verdicts) -> generation %s"
              % (report.units_folded, len(report.weeks_folded),
                 report.fingerprints, report.verdicts,
                 report.generation), file=sys.stderr)
    else:
        print("ingest: nothing new (%d units already folded)"
              % report.units_skipped, file=sys.stderr)
    return report


def cmd_observe_ingest(args):
    import time
    if not os.path.isdir(args.source):
        raise SystemExit("error: no checkpoint directory at %s"
                         % args.source)
    store = _open_store(args, create=True)
    geo = _observe_geo(args)
    perf = PerfRegistry() if args.perf else None
    obs = _tracing(args)
    try:
        _ingest_once(store, args, geo, perf, obs.tracer)
        while args.watch:
            time.sleep(args.ingest_poll)
            _ingest_once(store, args, geo, perf, obs.tracer)
    except KeyboardInterrupt:
        pass
    print("store: %d resolvers, %d weeks, generation %d in %s"
          % (len(store), len(store.weeks()), store.generation,
             args.store_dir))
    _report_perf(args, perf)
    _export_trace(args, obs, perf, _observe_meta(args))
    return 0


def cmd_observe_lookup(args):
    import json
    from repro.observatory import Observatory
    store = _open_store(args)
    try:
        record = Observatory(store).lookup(args.resolver)
    except ValueError as error:
        raise SystemExit("error: %s" % error)
    if record is None:
        print("unknown resolver %s" % args.resolver, file=sys.stderr)
        return 1
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def cmd_observe_rankings(args):
    from repro.analysis.geography import format_fluctuation
    from repro.observatory import Observatory
    observatory = Observatory(_open_store(args))
    try:
        rows, top_share = observatory.country_rankings(top=args.top)
    except LookupError as error:
        raise SystemExit("error: %s" % error)
    print(format_fluctuation(rows, "Country"))
    print("top %d countries: %.1f%% of first-scan resolvers"
          % (len(rows), top_share))
    print()
    print(format_fluctuation(observatory.rir_rankings(), "RIR"))
    return 0


def cmd_observe_survival(args):
    from repro.analysis.churn import format_survival
    from repro.observatory import Observatory
    observatory = Observatory(_open_store(args))
    print(format_survival(observatory.survival()))
    return 0


def cmd_observe_timeline(args):
    from repro.observatory import Observatory
    observatory = Observatory(_open_store(args))
    try:
        rows = observatory.timeline(args.prefix)
    except ValueError as error:
        raise SystemExit("error: %s" % error)
    print("week  responders      new     gone  mode   carried")
    for row in rows:
        print("%4d  %10d %8d %8d  %-5s %8d"
              % (row["week"], row["responders"], row["new"],
                 row["gone"], row["mode"], row["carried"]))
    return 0


def cmd_observe_stats(args):
    import json
    from repro.observatory import Observatory
    print(json.dumps(Observatory(_open_store(args)).stats(),
                     indent=2, sort_keys=True))
    return 0


def cmd_observe_serve(args):
    import time
    from repro.observatory import Observatory, ObservatoryServer
    if args.source and not os.path.isdir(args.source):
        raise SystemExit("error: no checkpoint directory at %s"
                         % args.source)
    store = _open_store(args, create=bool(args.source))
    perf = PerfRegistry()
    obs = _tracing(args)
    geo = _observe_geo(args) if args.source else None
    observatory = Observatory(store, perf=perf, tracer=obs.tracer)
    if args.source:
        _ingest_once(store, args, geo, perf, obs.tracer)
    host, port = args.listen
    server = ObservatoryServer(observatory, host=host, port=port)
    server.start()
    print("observatory: %d resolvers, %d weeks; listening on %s"
          % (len(store), len(store.weeks()), server.url),
          file=sys.stderr)
    try:
        while True:
            time.sleep(args.ingest_poll)
            if args.source:
                with server.lock:
                    _ingest_once(store, args, geo, perf, obs.tracer)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    _export_trace(args, obs, perf, _observe_meta(args))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Going Wild: Large-Scale "
                    "Classification of Open DNS Resolvers' (IMC 2015)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def study(name, body, text, *groups):
        """One study command: world and instrument flags, plus the flag
        ``groups`` its body (or `_session` on its behalf) reads."""
        sub = subparsers.add_parser(name, help=text)
        for add_group in (_add_world, _add_instruments) + groups:
            add_group(sub)
        sub.set_defaults(func=body, sweep_flags=_add_sweep in groups,
                         campaign_flags=_add_campaign in groups)
        return sub

    study("scan", cmd_scan, "one Internet-wide scan", _add_sweep)

    campaign = study("campaign", cmd_campaign, "weekly scan campaign",
                     _add_sweep, _add_campaign)
    campaign.add_argument("--weeks", type=_positive_int, default=12)

    study("fingerprint", cmd_fingerprint,
          "software + device fingerprinting", _add_sweep)

    snoop = study("snoop", cmd_snoop, "cache-snooping survey", _add_sweep)
    snoop.add_argument("--sample", type=_positive_int, default=250)
    snoop.add_argument("--hours", type=_positive_int, default=36)

    classify = study("classify", cmd_classify,
                     "manipulation pipeline for one domain set",
                     _add_sweep, _add_pipeline)
    classify.add_argument("--set", default="Banking",
                          choices=sorted(DOMAIN_SETS))

    fullstudy = study("fullstudy", cmd_fullstudy,
                      "run every experiment, emit one report",
                      _add_sweep, _add_pipeline, _add_campaign)
    fullstudy.add_argument("--weeks", type=_positive_int, default=20)
    fullstudy.add_argument("--snoop-sample", type=_positive_int,
                           default=200)
    fullstudy.add_argument("--out", default=None)

    audit = study("audit", cmd_audit, "audit one resolver", _add_pipeline)
    audit.add_argument("resolver")

    trace = subparsers.add_parser(
        "trace", help="validate and render an exported trace")
    trace.add_argument("file", help="JSONL trace from --trace-out")
    trace.add_argument("--validate-only", action="store_true",
                       help="schema-check the trace and print a summary "
                            "instead of the full report")
    trace.set_defaults(func=cmd_trace)

    observe = subparsers.add_parser(
        "observe", help="resident query plane over campaign results")
    observe_sub = observe.add_subparsers(dest="observe_command",
                                         required=True)

    def _observe_store_arg(sub):
        sub.add_argument("--store-dir", type=_store_dir, required=True,
                         metavar="DIR",
                         help="observatory store directory "
                              "(MANIFEST.json + generations)")

    def _observe_source_args(sub, required):
        sub.add_argument("--from", dest="source", required=required,
                         default=None, metavar="DIR",
                         help="campaign/fullstudy --checkpoint-dir "
                              "whose journal to tail")
        sub.add_argument("--ingest-poll", type=_poll_interval,
                         default=2.0, metavar="SEC",
                         help="seconds between journal polls "
                              "(--watch / serve)")
        sub.add_argument("--no-geo", action="store_true",
                         help="skip geography enrichment (no world "
                              "rebuild; records show ??/???)")

    ingest = observe_sub.add_parser(
        "ingest", help="fold a checkpoint journal into the store")
    _observe_store_arg(ingest)
    _observe_source_args(ingest, required=True)
    ingest.add_argument("--watch", action="store_true",
                        help="keep polling the journal for new commits "
                             "until interrupted")
    _add_instruments(ingest)
    ingest.set_defaults(func=cmd_observe_ingest)

    lookup = observe_sub.add_parser(
        "lookup", help="one resolver's record as JSON")
    _observe_store_arg(lookup)
    lookup.add_argument("resolver", help="dotted-quad resolver address")
    lookup.set_defaults(func=cmd_observe_lookup)

    rankings = observe_sub.add_parser(
        "rankings", help="Table 1/2 fluctuation rankings from the store")
    _observe_store_arg(rankings)
    rankings.add_argument("--top", type=_positive_int, default=10,
                          help="countries to rank (Table 1 rows)")
    rankings.set_defaults(func=cmd_observe_rankings)

    survival = observe_sub.add_parser(
        "survival", help="Figure 2 cohort survival from the store")
    _observe_store_arg(survival)
    survival.set_defaults(func=cmd_observe_survival)

    timeline = observe_sub.add_parser(
        "timeline", help="week-by-week churn inside one CIDR prefix")
    _observe_store_arg(timeline)
    timeline.add_argument("prefix", help="CIDR prefix, e.g. 10.8.0.0/16")
    timeline.set_defaults(func=cmd_observe_timeline)

    stats = observe_sub.add_parser(
        "stats", help="store facts as JSON")
    _observe_store_arg(stats)
    stats.set_defaults(func=cmd_observe_stats)

    serve = observe_sub.add_parser(
        "serve", help="embedded HTTP/JSON API over the store")
    _observe_store_arg(serve)
    _observe_source_args(serve, required=False)
    serve.add_argument("--listen", type=_endpoint,
                       default=("127.0.0.1", 8053), metavar="HOST:PORT",
                       help="listen address (port 0: OS-assigned)")
    _add_instruments(serve, perf=False)
    serve.set_defaults(func=cmd_observe_serve)

    return parser


def main(argv=None):
    from repro.checkpoint import CheckpointError
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CheckpointError as error:
        # A reused directory, a --resume under other knobs, a file in a
        # format this program does not read (an ObservatoryError is one
        # too): the user's to fix.
        print("error: %s" % error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
