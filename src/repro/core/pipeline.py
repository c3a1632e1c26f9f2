"""End-to-end orchestration of the Figure 3 processing chain."""

from contextlib import contextmanager

from repro.checkpoint import NULL_SCOPE
from repro.core.acquisition import DataAcquirer
from repro.core.clustering import cluster_deduplicated
from repro.core.diffcluster import (
    DiffProfile,
    build_diff_profile,
    diff_cluster,
)
from repro.core.distance import FeatureCache, MemoizedDistance, PageDistance
from repro.core.labeling import (
    ClusterLabeler,
    LABEL_MISC,
    SUBLABEL_UNCLASSIFIED,
)
from repro.core.prefilter import Prefilterer, ResponseTuple
from repro.dnswire.name import normalize_name
from repro.obs.trace import span
from repro.scanner.domainengine import DomainScanEngine
from repro.scanner.domainscan import DomainScanner
from repro.scanner.options import ScanOptions
from repro.websim.mail import banners_for_provider, provider_for_hostname


class PipelineReport:
    """Everything the pipeline produced, for the analysis layer."""

    def __init__(self):
        self.observations = []
        # Number of domain-scan observations seen.  Equals
        # ``len(observations)`` on a resident run; on a streamed run
        # (``options.stream_results``) the list stays empty — observations
        # flowed straight into the prefilter — and only this survives.
        self.observation_count = 0
        self.prefilter = None
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
                % (self.observation_count, len(self.http_captures),
                   len(self.clusters)))


@contextmanager
def _nested(outer, inner):
    """Enter two context managers as one (perf timer around span)."""
    with outer, inner:
        yield


class ManipulationPipeline:
    """Wires scanning, prefiltering, acquisition, clustering, labeling.

    ``options`` (a :class:`~repro.scanner.options.ScanOptions`) drives
    the domain scan: ``shards`` forks it, and ``stream_results`` streams
    its observations straight into the prefilter (bounded memory)
    instead of collecting the full list first.  Checkpointed runs fall
    back to resident collection: the domain_scan stage's committed
    payload must carry the full observation list for resume.
    """

    def __init__(self, network, resolution_service, as_registry, rdns, ca,
                 known_cdn_common_names, source_ip, domain_catalog,
                 cluster_threshold=0.30, diff_threshold=0.5,
                 distance=None, perf=None, fetch_timeout=None,
                 error_budget=None, options=None):
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
        self.cluster_threshold = cluster_threshold
        self.diff_threshold = diff_threshold
        if perf is not None:
            # Shard-merge reduction policies for the pipeline gauges
            # (set once per run; any shard's copy is equally current, so
            # the highest shard index deterministically wins) and the
            # derived QPS rate surfaced by ``format_report``.
            perf.declare_gauge("pipeline_domain_scan_qps", "last")
            perf.declare_gauge("pipeline_distance_cache_hit_rate", "last")
            perf.declare_gauge("pipeline_feature_cache_hit_rate", "last")
            perf.declare_rate("pipeline_domain_qps",
                              "pipeline_domain_queries",
                              "pipeline_domain_scan")
        # Distance and feature evaluations are memoized for the life of
        # the pipeline: weekly re-runs over largely unchanged content
        # answer most cluster pairs from the caches.
        self.features = FeatureCache(perf=perf)
        self.distance = MemoizedDistance(distance or PageDistance(),
                                         perf=perf)
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
        """Fetch the legitimate representation(s) of each web domain via
        our own trusted resolution path (§3.5, last paragraph)."""
        bodies = {}
        for domain in domains:
            meta = self.domain_catalog.get(normalize_name(domain.name)
                                           if hasattr(domain, "name")
                                           else normalize_name(domain))
            # Fall back to the domain's name attribute before str():
            # str(ScanDomain(...)) is the repr, which would poison the
            # ground-truth key.
            if meta is not None:
                name = meta.name
            else:
                name = getattr(domain, "name", None) or str(domain)
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

    def _stage(self, name):
        """Perf timer + trace span for one Figure 3 step (no-op when
        neither instrument is active)."""
        trace = span(self.network, name)
        if self.perf is None:
            return trace
        return _nested(self.perf.stage("pipeline_" + name), trace)

    def _unit(self, checkpoint, report, name, compute, apply):
        """One checkpointable stage of the Figure 3 chain.

        ``compute()`` runs the stage, ``apply(payload)`` installs its
        output on the report — from a fresh run or from a committed one.
        The commit carries, beside the payload and the world state, the
        degradation entries the stage recorded and the domain scanner's
        ``queries_sent``; a restored stage replays both.
        """
        def run_stage():
            degraded_before = len(report.degraded)
            payload = dict(compute())
            payload["degraded"] = [
                dict(entry) for entry
                in report.degraded[degraded_before:]]
            return payload

        def replay(payload, state):
            for entry in payload.get("degraded") or ():
                report.degraded.append(dict(entry))
            if "queries_sent" in state and \
                    hasattr(self.scanner, "queries_sent"):
                self.scanner.queries_sent = state["queries_sent"]

        def scanner_state():
            if hasattr(self.scanner, "queries_sent"):
                return {"queries_sent": self.scanner.queries_sent}
            return {}

        apply(checkpoint.unit("stage", (name,), run_stage, self.network,
                              self.perf, extra_state=scanner_state,
                              on_restore=replay, stage=name))

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
        names = [d.name for d in domains]
        resolver_ips = list(resolver_ips)

        # Step 2: domain scan (sharded across workers when shards > 1).
        # A streamed run fuses steps 2+3: observation batches flow into
        # the prefilter as shards complete (in sequential order, so the
        # result is bit-identical) and the full list is never resident.
        # Checkpointed runs stay resident — the committed domain_scan
        # payload must carry the observations a resume re-applies.
        checkpoint = checkpoint or NULL_SCOPE
        streaming = self.options.stream_results and \
            checkpoint is NULL_SCOPE
        streamed_prefilter = [None]

        def compute_domain_scan():
            queries_before = getattr(self.scanner, "queries_sent", 0)
            observations = []
            count = 0
            with self._stage("domain_scan"):
                try:
                    scope = checkpoint.scope("stage", "domain_scan")
                    if streaming:
                        from repro.core.prefilter import PrefilterResult
                        prefilter = PrefilterResult()

                        def consume(batch):
                            self.prefilterer.process_into(
                                prefilter, batch, self.domain_catalog)

                        count = self.domain_engine.scan(
                            resolver_ips, names, checkpoint=scope,
                            consume=consume)
                        streamed_prefilter[0] = prefilter
                    else:
                        observations = self.domain_engine.scan(
                            resolver_ips, names, checkpoint=scope)
                        count = len(observations)
                except Exception as error:
                    report.mark_degraded("domain_scan", repr(error))
            if self.perf is not None:
                self.perf.count("pipeline_domain_queries",
                                getattr(self.scanner, "queries_sent", 0)
                                - queries_before)
                self.perf.gauge(
                    "pipeline_domain_scan_qps",
                    self.perf.rate("pipeline_domain_queries",
                                   "pipeline_domain_scan"))
            return {"observations": observations, "count": count}

        def apply_domain_scan(payload):
            report.observations = payload["observations"]
            report.observation_count = payload.get(
                "count", len(payload["observations"]))

        self._unit(checkpoint, report, "domain_scan",
                   compute_domain_scan, apply_domain_scan)

        # Step 3: DNS-based prefiltering (already folded in when
        # streaming — the stage then just installs the result).
        def compute_prefilter():
            prefilter = None
            with self._stage("prefilter"):
                try:
                    if streaming:
                        prefilter = streamed_prefilter[0]
                    else:
                        prefilter = self.prefilterer.process(
                            report.observations, self.domain_catalog)
                except Exception as error:
                    report.mark_degraded("prefilter", repr(error))
            return {"prefilter": prefilter}

        def apply_prefilter(payload):
            report.prefilter = payload["prefilter"]

        self._unit(checkpoint, report, "prefilter",
                   compute_prefilter, apply_prefilter)

        # Ground truth content, used by labeling and diff clustering.
        def compute_ground_truth():
            bodies = {}
            with self._stage("ground_truth"):
                try:
                    bodies = self.collect_ground_truth(domains)
                except Exception as error:
                    report.mark_degraded("ground_truth", repr(error))
            return {"ground_truth_bodies": bodies}

        def apply_ground_truth(payload):
            report.ground_truth_bodies = payload["ground_truth_bodies"]

        self._unit(checkpoint, report, "ground_truth",
                   compute_ground_truth, apply_ground_truth)

        # Step 4: data acquisition for unknown tuples.
        def compute_acquisition():
            unknown = (report.prefilter.unknown
                       if report.prefilter is not None else [])
            with self._stage("acquisition"):
                try:
                    http_captures, mail_captures = self.acquirer.acquire(
                        unknown, self.domain_catalog)
                except Exception as error:
                    report.mark_degraded("acquisition", repr(error))
                    http_captures, mail_captures = [], []
                if self.acquirer.budget_exhausted:
                    report.mark_degraded(
                        "acquisition",
                        "error budget exhausted after %d unreachable "
                        "fetches" % self.acquirer.failed_fetches)
            return {"http_captures": http_captures,
                    "mail_captures": mail_captures}

        def apply_acquisition(payload):
            http_captures = payload["http_captures"]
            report.mail_captures = payload["mail_captures"]
            report.http_captures = [c for c in http_captures if c.fetched]
            report.failed_captures = [c for c in http_captures
                                      if not c.fetched]

        self._unit(checkpoint, report, "acquisition",
                   compute_acquisition, apply_acquisition)

        # Step 5: coarse clustering (deduplicating identical bodies).
        def compute_clustering():
            profile_of = (
                lambda capture: self.features.profile_of(capture.body))
            keyed = [(capture.body, capture)
                     for capture in report.http_captures]
            with self._stage("clustering"):
                try:
                    clusters, dendrogram = cluster_deduplicated(
                        keyed,
                        lambda a, b: self.distance(profile_of(a),
                                                   profile_of(b)),
                        self.cluster_threshold)
                except Exception as error:
                    report.mark_degraded("clustering", repr(error))
                    clusters, dendrogram = [], None
            if self.perf is not None:
                # Pair evaluations the body dedup spared the distance
                # matrix: all-pairs over captures minus all-pairs over
                # distinct bodies.
                total = len(keyed)
                unique = len({key for key, __ in keyed})
                avoided = (total * (total - 1)
                           - unique * (unique - 1)) // 2
                self.perf.count("pipeline_distance_evals_avoided",
                                avoided)
                # Fold the short-circuited pairs into the memo's stats:
                # hierarchical_cluster asks for each deduplicated pair
                # exactly once, so without this credit the hit-rate
                # gauge reads 0.0 while thousands of pair evaluations
                # were in fact avoided.
                self.distance.credit_avoided(avoided)
            return {"clusters": clusters, "dendrogram": dendrogram}

        def apply_clustering(payload):
            report.clusters = payload["clusters"]
            report.dendrogram = payload["dendrogram"]

        self._unit(checkpoint, report, "clustering",
                   compute_clustering, apply_clustering)

        # Step 6: labeling.
        def compute_labeling():
            labeled = []
            diff_clusters = []
            diff_profiles = []
            reused = 0
            with self._stage("labeling"):
                try:
                    labeler = ClusterLabeler(report.ground_truth_bodies)
                    labeled = labeler.label_clusters(report.clusters)
                    # Fine-grained diff clustering of near-original
                    # modifications.  The diff depends on the page and
                    # the site's ground truth only, so resolvers that
                    # returned the same page for a domain share one.
                    built = {}
                    for capture in report.http_captures:
                        domain = normalize_name(capture.domain)
                        truths = report.ground_truth_bodies.get(domain)
                        if not truths or not capture.body:
                            continue
                        page = (capture.body, domain)
                        first = built.get(page)
                        if first is None:
                            profile = built[page] = build_diff_profile(
                                capture, truths)
                        else:
                            profile = DiffProfile(
                                capture, first.added, first.removed,
                                first.similarity_to_truth)
                            reused += 1
                        if 0 < profile.modification_size <= 40:
                            diff_profiles.append(profile)
                    if diff_profiles:
                        diff_clusters, __ = diff_cluster(
                            diff_profiles, threshold=self.diff_threshold)
                except Exception as error:
                    report.mark_degraded("labeling", repr(error))
                    labeled = []
                    diff_clusters = []
            if self.perf is not None:
                self.perf.count("pipeline_observations",
                                report.observation_count)
                self.perf.count("pipeline_captures",
                                len(report.http_captures))
                # The duplication the diff stage lives off: profiles
                # clustered, distinct modifications among them, and
                # captures that took their diff from an identical page.
                self.perf.count("pipeline_diff_profiles",
                                len(diff_profiles))
                self.perf.count("pipeline_diff_signatures",
                                len({profile.signature
                                     for profile in diff_profiles}))
                self.perf.count("pipeline_diff_profile_reuse", reused)
                self.perf.gauge("pipeline_distance_cache_hit_rate",
                                self.distance.hit_rate())
                self.perf.gauge("pipeline_feature_cache_hit_rate",
                                self.features.hit_rate())
            return {"labeled": labeled, "diff_clusters": diff_clusters}

        def apply_labeling(payload):
            report.labeled = payload["labeled"]
            report.diff_clusters = payload["diff_clusters"]

        self._unit(checkpoint, report, "labeling",
                   compute_labeling, apply_labeling)
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
