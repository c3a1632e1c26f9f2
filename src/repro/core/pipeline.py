"""End-to-end orchestration of the Figure 3 processing chain."""

from contextlib import nullcontext

from repro.checkpoint import NULL_SCOPE
from repro.core.acquisition import DataAcquirer
from repro.core.clustering import cluster_deduplicated
from repro.core.diffcluster import (
    DiffProfile,
    build_diff_profile,
    diff_cluster,
)
from repro.core.distance import FeatureCache, PageDistance
from repro.core.labeling import (
    ClusterLabeler,
    LABEL_MISC,
    SUBLABEL_UNCLASSIFIED,
)
from repro.core.prefilter import Prefilterer, PrefilterResult, ResponseTuple
from repro.dnswire.name import normalize_name
from repro.obs.trace import span
from repro.scanner.domainengine import DomainScanEngine
from repro.scanner.domainscan import DomainScanner
from repro.scanner.options import ScanOptions
from repro.websim.mail import banners_for_provider, provider_for_hostname

# Merge thresholds of the coarse clustering (§3.6) and of the
# fine-grained diff clustering, and the page distance of the former.
CLUSTER_THRESHOLD = 0.30
DIFF_THRESHOLD = 0.5
PAGE_DISTANCE = PageDistance()


class PipelineReport:
    """Everything the pipeline produced, for the analysis layer.

    A fresh report is also every stage's fallback: what a field holds
    here is what it holds after its stage failed.
    """

    def __init__(self):
        self.observations = []
        self.prefilter = PrefilterResult()
        self.http_captures = []
        self.mail_captures = []
        self.failed_captures = []
        self.clusters = []
        self.dendrogram = None
        self.labeled = []
        self.diff_clusters = []
        self.ground_truth_bodies = {}
        # Degradation provenance: one entry per stage that failed or ran
        # partially; an empty list means a clean, complete run.
        self.degraded = []

    def mark_degraded(self, stage, reason):
        self.degraded.append({"stage": stage, "reason": reason})

    def install(self, field, value):
        """Set one stage payload field, computed or restored from a
        commit."""
        if value is None:
            # The stage failed: the field keeps what a fresh report
            # holds, so no fallback is written per stage.
            value = getattr(PipelineReport(), field)
        if field == "http_captures":
            # The payload carries every capture attempted; the ones
            # that never fetched are filed apart.
            self.failed_captures = [c for c in value if not c.fetched]
            value = [c for c in value if c.fetched]
        setattr(self, field, value)

    @property
    def is_degraded(self):
        return bool(self.degraded)

    @property
    def suspicious_resolvers(self):
        return {capture.capture.resolver_ip for capture in self.labeled}

    def labels_by_tuple(self):
        return {(normalize_name(l.capture.domain), l.capture.ip,
                 l.capture.resolver_ip): (l.label, l.sublabel)
                for l in self.labeled}

    def classified_share(self):
        """Share of fetched responses the labeler could classify."""
        if not self.labeled:
            return 1.0
        unclassified = sum(
            1 for l in self.labeled
            if l.label == LABEL_MISC and l.sublabel == SUBLABEL_UNCLASSIFIED)
        return 1.0 - unclassified / len(self.labeled)

    def __repr__(self):
        return ("PipelineReport(%d observations, %d captures, %d clusters)"
                % (len(self.observations), len(self.http_captures),
                   len(self.clusters)))


class ManipulationPipeline:
    """Wires scanning, prefiltering, acquisition, clustering, labeling.

    ``options`` (a :class:`~repro.scanner.options.ScanOptions`) drives
    the domain scan: ``shards`` forks it.  Its observations are always
    resident — Figure 4 and Table 5 read them off the report, and the
    prefilter result retains them anyway.
    """

    def __init__(self, network, resolution_service, as_registry, rdns, ca,
                 known_cdn_common_names, source_ip, domain_catalog,
                 perf=None, fetch_timeout=None, error_budget=None,
                 options=None):
        self.network = network
        self.perf = perf
        self.options = options or ScanOptions()
        self.service = resolution_service
        self.as_registry = as_registry
        self.rdns = rdns
        self.ca = ca
        self.known_cdn_common_names = tuple(known_cdn_common_names)
        self.source_ip = source_ip
        self.domain_catalog = {normalize_name(d.name): d
                               for d in domain_catalog}
        if perf is not None:
            # Shard-merge reduction policy for the pipeline gauge (set
            # once per run; any shard's copy is equally current, so the
            # highest shard index deterministically wins) and the
            # derived QPS rate surfaced by ``format_report``.
            perf.declare_gauge("pipeline_feature_cache_hit_rate", "last")
            perf.declare_rate("pipeline_domain_qps",
                              "pipeline_domain_queries",
                              "pipeline_domain_scan")
        # One profile per distinct body for the life of the pipeline.
        self.features = FeatureCache(perf=perf)
        self.distance = PAGE_DISTANCE
        self.domain_engine = DomainScanEngine(
            DomainScanner(network, source_ip), options=self.options,
            perf=perf)
        self.acquirer = DataAcquirer(network, source_ip,
                                     fetch_timeout=fetch_timeout,
                                     error_budget=error_budget)
        self.prefilterer = Prefilterer(
            network, resolution_service, as_registry, rdns, ca=ca,
            known_cdn_common_names=known_cdn_common_names,
            probe_source_ip=source_ip)

    @property
    def scanner(self):
        """The domain scanner, reachable (and replaceable, for tests)
        through the shard engine that drives it."""
        return self.domain_engine.scanner

    @scanner.setter
    def scanner(self, scanner):
        self.domain_engine.scanner = scanner

    # -- ground truth ---------------------------------------------------------

    def collect_ground_truth(self, domains):
        """Fetch the legitimate representation(s) of each web domain
        (each a :class:`ScanDomain`) via our own trusted resolution path
        (§3.5, last paragraph)."""
        bodies = {}
        for domain in domains:
            meta = self.domain_catalog.get(normalize_name(domain.name))
            name = domain.name if meta is None else meta.name
            if meta is not None and (not meta.exists or meta.kind != "web"):
                continue
            result = self.service.resolve_trusted(self.network, name)
            seen = []
            for address in result.addresses[:3]:
                capture = self.acquirer.fetch_http(
                    ResponseTuple(name, address, self.source_ip))
                if capture.fetched and capture.status == 200:
                    if capture.body not in seen:
                        seen.append(capture.body)
            if seen:
                bodies[normalize_name(name)] = seen
        return bodies

    # -- the chain ------------------------------------------------------------
    #
    # One function per Figure 3 step.  Each takes the report so far and
    # the run's inputs, and returns its payload: the report fields it
    # owns (``STAGES`` below).  Timing, tracing, failure and
    # checkpointing are ``_unit``'s, not theirs.

    def _scan_domains(self, report, resolver_ips, domains, checkpoint):
        """Step 2: the domain scan (sharded when ``options.shards`` > 1)."""
        queries_before = self.scanner.queries_sent
        try:
            observations = self.domain_engine.scan(
                resolver_ips, [d.name for d in domains],
                checkpoint=checkpoint.scope("stage", "domain_scan"))
        finally:
            if self.perf is not None:
                self.perf.count("pipeline_domain_queries",
                                self.scanner.queries_sent
                                - queries_before)
        return {"observations": observations}

    def _prefilter(self, report, resolver_ips, domains, checkpoint):
        """Step 3: DNS-based prefiltering."""
        return {"prefilter": self.prefilterer.process(
            report.observations, self.domain_catalog)}

    def _ground_truth(self, report, resolver_ips, domains, checkpoint):
        """Ground truth content, used by labeling and diff clustering."""
        return {"ground_truth_bodies": self.collect_ground_truth(domains)}

    def _acquire(self, report, resolver_ips, domains, checkpoint):
        """Step 4: data acquisition for unknown tuples."""
        http_captures, mail_captures = self.acquirer.acquire(
            report.prefilter.unknown, self.domain_catalog)
        if self.acquirer.budget_exhausted:
            report.mark_degraded(
                "acquisition",
                "error budget exhausted after %d unreachable fetches"
                % self.acquirer.failed_fetches)
        return {"http_captures": http_captures,
                "mail_captures": mail_captures}

    def _cluster(self, report, resolver_ips, domains, checkpoint):
        """Step 5: coarse clustering (deduplicating identical bodies)."""
        perf = self.perf
        profile_of = self.features.profile_of
        keyed = [(capture.body, capture)
                 for capture in report.http_captures]
        if perf is not None:
            # Pair evaluations the body dedup spares the distance
            # matrix: all-pairs over captures minus all-pairs over
            # distinct bodies.
            total = len(keyed)
            unique = len({key for key, __ in keyed})
            perf.count("pipeline_distance_evals_avoided",
                       (total * (total - 1) - unique * (unique - 1)) // 2)

        def distance(a, b):
            if perf is not None:
                perf.count("distance_evals")
            return self.distance(profile_of(a.body), profile_of(b.body))

        clusters, dendrogram = cluster_deduplicated(
            keyed, distance, CLUSTER_THRESHOLD)
        return {"clusters": clusters, "dendrogram": dendrogram}

    def _label(self, report, resolver_ips, domains, checkpoint):
        """Step 6: labeling, then fine-grained diff clustering of
        near-original modifications."""
        perf = self.perf
        if perf is not None:
            perf.count("pipeline_observations", len(report.observations))
            perf.count("pipeline_captures", len(report.http_captures))
        labeler = ClusterLabeler(report.ground_truth_bodies)
        labeled = labeler.label_clusters(report.clusters)
        # The diff depends on the page and the site's ground truth
        # only, so resolvers that returned the same page for a domain
        # share one.
        diff_clusters = []
        diff_profiles = []
        reused = 0
        built = {}
        truth_counts = {}
        for capture in report.http_captures:
            domain = normalize_name(capture.domain)
            truths = report.ground_truth_bodies.get(domain)
            if not truths or not capture.body:
                continue
            page = (capture.body, domain)
            first = built.get(page)
            if first is None:
                profile = built[page] = build_diff_profile(
                    capture, truths, truth_counts)
            else:
                profile = DiffProfile(capture, first.added, first.removed,
                                      first.similarity_to_truth)
                reused += 1
            if 0 < profile.modification_size <= 40:
                diff_profiles.append(profile)
        if diff_profiles:
            diff_clusters, __ = diff_cluster(diff_profiles,
                                             threshold=DIFF_THRESHOLD)
        if perf is not None:
            # The duplication the diff stage lives off: profiles
            # clustered, distinct modifications among them, and
            # captures that took their diff from an identical page.
            perf.count("pipeline_diff_profiles", len(diff_profiles))
            perf.count("pipeline_diff_signatures",
                       len({profile.signature
                            for profile in diff_profiles}))
            perf.count("pipeline_diff_profile_reuse", reused)
            perf.gauge("pipeline_feature_cache_hit_rate",
                       self.features.hit_rate())
        return {"labeled": labeled, "diff_clusters": diff_clusters}

    # Stage name (its commit key, timer and span), the report fields
    # its payload carries, its function.  A failed stage leaves those
    # fields as a fresh ``PipelineReport`` holds them.
    STAGES = (
        ("domain_scan", ("observations",), _scan_domains),
        ("prefilter", ("prefilter",), _prefilter),
        ("ground_truth", ("ground_truth_bodies",), _ground_truth),
        ("acquisition", ("http_captures", "mail_captures"), _acquire),
        ("clustering", ("clusters", "dendrogram"), _cluster),
        ("labeling", ("labeled", "diff_clusters"), _label),
    )

    def _unit(self, checkpoint, report, name, fields, stage):
        """One checkpointable stage of the Figure 3 chain.

        ``stage()`` runs it, under its perf timer and trace span; if it
        raises, the failure goes to ``report.degraded`` and its payload
        is ``None`` for each of its fields.  The payload — computed or
        restored from a commit — is then installed on the report
        (``None`` as the fresh report's value: the empty fallback).
        The commit carries, beside the payload and the world
        state, the degradation entries the stage recorded and the
        domain scanner's ``queries_sent``; a restored stage replays
        both, and a restored payload that lacks what ``install`` reads
        is a :class:`~repro.checkpoint.FormatError` naming its file.
        """
        def run_stage():
            degraded_before = len(report.degraded)
            timer = (self.perf.stage("pipeline_" + name)
                     if self.perf is not None else nullcontext())
            with timer, span(self.network, name):
                try:
                    payload = stage()
                except Exception as error:
                    report.mark_degraded(name, repr(error))
                    payload = dict.fromkeys(fields)
            # Moved into the payload: install puts them back, computed
            # or restored alike.
            payload["degraded"] = report.degraded[degraded_before:]
            del report.degraded[degraded_before:]
            return payload

        def replay(payload, state):
            self.scanner.queries_sent = state["queries_sent"]

        def scanner_state():
            return {"queries_sent": self.scanner.queries_sent}

        def install(payload):
            # Every read of a restored payload is in here, under the
            # checkpoint's format check (formats.read_payload).
            report.degraded.extend(dict(entry)
                                   for entry in payload["degraded"])
            for field in fields:
                report.install(field, payload[field])

        checkpoint.unit("stage", (name,), run_stage, self.network,
                        self.perf, extra_state=scanner_state,
                        on_restore=replay, read=install, stage=name)

    def run(self, resolver_ips, domains, checkpoint=None):
        """Execute steps 2–6 of Figure 3 for one domain set.

        ``resolver_ips`` come from a fresh Internet-wide scan (step 1);
        ``domains`` is a list of :class:`ScanDomain`.  Returns a
        :class:`PipelineReport`.

        A failing stage never aborts the chain: its fallback output is
        empty, the failure is recorded in ``report.degraded``, and the
        remaining stages run on whatever survived — the partial report
        the ROADMAP's graceful-degradation goal calls for.

        ``checkpoint``, when given, is a :class:`repro.checkpoint`
        scope: every stage's result is committed as it completes, and a
        resumed pipeline re-enters at the first incomplete stage with
        the earlier stages' outputs (and world state) restored.
        """
        report = PipelineReport()
        resolver_ips = list(resolver_ips)
        checkpoint = checkpoint or NULL_SCOPE
        for name, fields, stage in self.STAGES:
            self._unit(checkpoint, report, name, fields,
                       lambda: stage(self, report, resolver_ips, domains,
                                     checkpoint))
        return report

    # -- mail classification --------------------------------------------------

    @staticmethod
    def classify_mail(mail_captures):
        """Split mail captures into listener/banner-match groups (§4.3)."""
        listeners = []
        banner_matches = []
        for capture in mail_captures:
            if not capture.fetched:
                continue
            listeners.append(capture)
            provider = provider_for_hostname(capture.domain)
            if provider is not None:
                legit = banners_for_provider(provider)
                if any(banner == legit.get(service)
                       for service, banner in capture.banners.items()):
                    banner_matches.append(capture)
        return listeners, banner_matches
