"""One-command study driver: run every experiment, emit one report.

:func:`run_full_study` executes the paper's complete methodology against
a freshly built world — the weekly campaign, the fingerprinting scans,
the cache-snooping survey, and the manipulation pipeline over all 13
domain sets — and renders a markdown report with every table and figure
this reproduction regenerates.  It is the programmatic equivalent of
running the whole benchmark suite, packaged for downstream users:

    python -m repro.cli fullstudy --weeks 20 --out study.md
"""

from repro.analysis import (
    case_study_summary,
    censorship_coverage,
    churn_survival,
    classification_table,
    country_fluctuation,
    magnitude_series,
    rir_fluctuation,
    social_geography,
    software_table,
    utilization_summary,
)
from repro.analysis.churn import format_survival
from repro.analysis.devices import device_table, format_device_table
from repro.analysis.fluctuation import (
    as_fluctuation,
    broadband_share_of_top_networks,
)
from repro.analysis.magnitude import decline_ratio, format_series
from repro.analysis.geography import format_fluctuation
from repro.analysis.manipulation import (
    gfw_double_responses,
    legit_addresses_from_report,
    prefilter_summary,
)
from repro.analysis.software import format_software_table
from repro.analysis.utilization import format_utilization
from repro.checkpoint import NULL_SCOPE
from repro.core.labeling import CATEGORY_LABELS
from repro.datasets import ALL_CATEGORIES, DOMAIN_SETS, SNOOPING_TLDS
from repro.obs.trace import span
from repro.scanner import (
    BannerGrabber,
    CacheSnoopingProber,
    ChaosScanner,
    FingerprintMatcher,
    ScanOptions,
)

SOCIAL = ("facebook.com", "twitter.com", "youtube.com")


def _study_unit(checkpoint, network, perf, name, compute, read):
    """One checkpointable top-level study phase (fingerprint, snoop...),
    returning ``read(payload)``.

    The derived analyses are recomputed whether the payload was
    restored or computed — they are cheap, pure functions of it.
    """
    def phase():
        with span(network, "study", phase=name):
            return compute()

    return checkpoint.unit("study", (name,), phase, network, perf,
                           read=read, phase=name)


def fingerprint_phase(scenario, resolvers):
    """§2.4: the CHAOS software scan and the banner-grab device
    classification of ``resolvers`` (Tables 3 and 4's raw rows)."""
    chaos = ChaosScanner(scenario.network, scenario.scanner_ip)
    software_rows = chaos.scan(resolvers)
    grabber = BannerGrabber(scenario.network, scenario.scanner_ip)
    classifications = FingerprintMatcher().classify_all(
        grabber.grab_all(resolvers))
    return {"software": software_rows,
            "classifications": classifications}


def snoop_phase(scenario, resolvers, hours=36):
    """§2.6: ``hours`` of cache snooping at ``resolvers``."""
    prober = CacheSnoopingProber(scenario.network, scenario.scanner_ip,
                                 SNOOPING_TLDS, duration_hours=hours)
    return {"traces": prober.run(resolvers)}


def format_resume_provenance(provenance):
    """Render a checkpoint run's resume provenance for stderr/logs."""
    lines = ["[resume provenance]"]
    for name in sorted(provenance):
        lines.append("  %-32s %s" % (name, provenance[name]))
    return "\n".join(lines)


class StudyResults:
    """Everything one full study run produced."""

    def __init__(self):
        self.series = None
        self.survival = None
        self.countries = None
        self.top10_share = None
        self.rirs = None
        self.as_drops = None
        self.broadband_share = None
        self.software = None
        self.devices = None
        self.utilization = None
        self.prefilter = {}
        self.table5 = None
        self.fig4 = None
        self.cn_coverage = None
        self.gfw_doubles = None
        self.case_studies = None
        self.resolver_count = 0


def run_full_study(scenario, weeks=20, snoop_sample=200,
                   pipeline_categories=None, progress=None,
                   pipeline_shards=1, checkpoint=None, perf=None,
                   options=None):
    """Run the complete methodology; returns a :class:`StudyResults`.

    ``weeks`` bounds the longitudinal part (the paper ran 55);
    ``pipeline_categories`` restricts the §4 pipeline (default: all 13).
    ``options`` (a :class:`~repro.scanner.options.ScanOptions`) drives
    the campaign's scans as given and the per-category domain scans
    at ``pipeline_shards`` shards.
    ``progress`` is an optional callable for status lines.
    ``checkpoint`` (a :class:`repro.checkpoint.CheckpointedRun`) makes
    every phase durable: campaign weeks, the fingerprint and snooping
    sweeps, and each per-category pipeline stage commit as they
    complete, and a resumed study re-enters at the first incomplete one.
    """
    say = progress or (lambda message: None)
    results = StudyResults()
    network = scenario.network
    options = options or ScanOptions()
    checkpoint = checkpoint or NULL_SCOPE

    say("running %d weekly scans..." % weeks)
    campaign = scenario.new_campaign(verify=False, perf=perf,
                                     options=options)
    campaign.run(weeks, checkpoint=checkpoint.scope("campaign"))
    results.series = magnitude_series(campaign.snapshots)
    results.survival = churn_survival(campaign.snapshots)
    first, last = campaign.first().result, campaign.last().result
    results.countries, results.top10_share = country_fluctuation(
        first, last, scenario.geoip)
    results.rirs = rir_fluctuation(first, last, scenario.geoip)
    results.as_drops = as_fluctuation(first, last, scenario.as_registry,
                                      top=5)
    results.broadband_share, __ = broadband_share_of_top_networks(
        last, scenario.as_registry)
    resolvers = sorted(last.noerror)
    results.resolver_count = len(resolvers)

    say("fingerprinting %d resolvers..." % len(resolvers))

    results.software, results.devices = _study_unit(
        checkpoint, network, perf, "fingerprint",
        lambda: fingerprint_phase(scenario, resolvers),
        lambda payload: (software_table(payload["software"]),
                         device_table(payload["classifications"],
                                      total_scanned=len(resolvers))))

    say("snooping %d resolver caches..." % min(snoop_sample,
                                               len(resolvers)))

    results.utilization = _study_unit(
        checkpoint, network, perf, "snoop",
        lambda: snoop_phase(scenario, resolvers[:snoop_sample]),
        lambda payload: utilization_summary(payload["traces"]))

    categories = list(pipeline_categories or ALL_CATEGORIES)
    pipeline_options = options.replace(shards=pipeline_shards)
    reports = {}
    for category in categories:
        say("pipeline: %s..." % category)
        pipeline = scenario.new_pipeline(perf=perf,
                                         options=pipeline_options)
        reports[category] = pipeline.run(
            resolvers, list(DOMAIN_SETS[category]),
            checkpoint=checkpoint.scope("pipeline", category))
        results.prefilter[category] = prefilter_summary(
            reports[category])
    results.table5 = classification_table(reports)
    if "Alexa" in reports:
        alexa = reports["Alexa"]
        results.fig4 = social_geography(alexa, scenario.geoip, SOCIAL)
        results.cn_coverage = censorship_coverage(alexa, scenario.geoip,
                                                  SOCIAL, "CN")
        results.gfw_doubles = gfw_double_responses(
            alexa, scenario.geoip, legit_addresses_from_report(alexa))
    merged = next(iter(reports.values())).__class__()
    for report in reports.values():
        merged.labeled.extend(report.labeled)
        merged.mail_captures.extend(report.mail_captures)
        merged.ground_truth_bodies.update(report.ground_truth_bodies)
    results.case_studies = case_study_summary(merged,
                                              network=scenario.network)
    return results


def render_markdown(results, scenario=None):
    """Render a :class:`StudyResults` as a markdown report."""
    lines = ["# Open DNS resolver study — full run", ""]
    if scenario is not None:
        lines += ["Scale 1:%d, seed %d, %d resolvers at the final scan."
                  % (scenario.config.scale, scenario.config.seed,
                     results.resolver_count), ""]

    def code_block(text):
        return ["```", text, "```", ""]

    lines += ["## Figure 1 — weekly resolver magnitude", ""]
    lines += code_block(format_series(results.series))
    lines += ["NOERROR decline ratio: %.2f"
              % decline_ratio(results.series), ""]

    lines += ["## Figure 2 — cohort IP churn", ""]
    lines += code_block(format_survival(results.survival))

    lines += ["## Table 1 — fluctuation per country "
              "(top-10 share %.1f%%)" % results.top10_share, ""]
    lines += code_block(format_fluctuation(results.countries, "Country"))

    lines += ["## Table 2 — fluctuation per RIR", ""]
    lines += code_block(format_fluctuation(results.rirs, "RIR"))

    lines += ["## Largest per-AS drops", ""]
    drops = "\n".join("AS%-6d %-26s %-3s %6d -> %6d (%+.1f%%)" % (
        row["asn"], row["name"], row["country"], row["first"],
        row["last"], row["delta_pct"]) for row in results.as_drops)
    lines += code_block(drops)
    lines += ["Broadband share of Top-25 networks: %.1f%%"
              % results.broadband_share, ""]

    lines += ["## Table 3 — DNS software (CHAOS)", ""]
    lines += code_block(format_software_table(results.software))

    lines += ["## Table 4 — devices", ""]
    lines += code_block(format_device_table(results.devices))

    lines += ["## Section 2.6 — utilization", ""]
    lines += code_block(format_utilization(results.utilization))

    lines += ["## Section 4.1 — prefiltering per domain set", ""]
    rows = ["%-12s %10s %8s %8s %8s" % ("set", "responses", "legit",
                                        "empty", "unknown")]
    for category, summary in results.prefilter.items():
        rows.append("%-12s %10d %7.1f%% %7.1f%% %7.1f%%" % (
            category, summary["observations"],
            100 * summary["legitimate_share"],
            100 * summary["empty_share"],
            100 * summary["unknown_share"]))
    lines += code_block("\n".join(rows))

    lines += ["## Table 5 — classification of unexpected responses "
              "(avg % of suspicious resolvers)", ""]
    header = "%-12s" % "set" + "".join("%-12s" % label[:11]
                                       for label in CATEGORY_LABELS)
    rows = [header]
    for category, table_rows in results.table5.items():
        rows.append("%-12s" % category + "".join(
            "%-12s" % ("%.1f%%" % table_rows[label]["avg_pct"])
            for label in CATEGORY_LABELS))
    lines += code_block("\n".join(rows))

    if results.fig4 is not None:
        lines += ["## Figure 4 — censorship geography "
                  "(Facebook/Twitter/YouTube)", ""]
        unexpected = results.fig4.unexpected_shares()[:6]
        geo = "\n".join("%-3s %5.1f%%" % (country, share)
                        for country, share in unexpected)
        lines += code_block(geo)
        lines += ["CN coverage: %.1f%%; GFW double responses: %.1f%% of "
                  "Chinese resolvers"
                  % (results.cn_coverage["coverage_pct"],
                     results.gfw_doubles["share_pct"]), ""]

    lines += ["## Section 4.3 — case studies", ""]
    from repro.analysis.casestudies import format_case_studies
    lines += code_block(format_case_studies(results.case_studies))
    return "\n".join(lines)
