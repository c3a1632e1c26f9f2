"""The scan control plane: every scan knob, declared once.

The paper runs one weekly sweep for 55 weeks under one fixed
configuration.  :class:`ScanOptions` is that configuration: the only
place a scan knob's name, default and range check are written.  It is
built once — by ``cli._scan_options`` from the flags, or by
``Scenario.new_campaign`` from keywords — and carried as-is by
:class:`~repro.scanner.campaign.ScanCampaign`,
:class:`~repro.scanner.ipv4scan.Ipv4Scanner`, both shard engines, the
classification pipeline and ``run_full_study``; :meth:`ScanOptions.as_meta`
is written verbatim into checkpoint meta (so a ``--resume`` under
different knobs is a detected mismatch, not a silent divergence) and
into the trace header.  See DESIGN.md, "Scan control plane".
"""

import math

from repro.scanner.pacing import normalize_pacing

BACKOFF = 2.0          # retransmission timeout growth factor
PROBE_BATCH = 4096     # targets per columnar scan batch
CHUNK_ROWS = 65536     # result rows per streamed chunk


def _overflows(timeout, backoff, retries):
    """Whether a retry schedule's longest wait leaves the float range."""
    try:
        return timeout * float(backoff) ** retries == math.inf
    except OverflowError:
        return True


class ScanOptions:
    """How a scan is cut and retried — never what it finds.

    ``shards`` forked workers split the index space; ``retries``
    retransmissions per unanswered target wait ``probe_timeout * backoff
    ** attempt`` each (``None``: no timeout); targets leave the LFSR
    walk ``probe_batch`` at a time; ``pacing`` (``None`` or a
    :class:`~repro.scanner.pacing.PacingConfig`, built from the CLI
    spellings) and ``max_pps`` are the arms-race side; ``stream_results``
    ships worker results to the parent in ``chunk_rows``-row chunks;
    ``delta`` (``None`` or a :class:`~repro.scanner.delta.DeltaConfig`)
    turns a campaign differential.  Results are bit-identical across
    ``shards``, ``probe_batch``, ``stream_results`` and ``chunk_rows``.
    """

    __slots__ = ("shards", "retries", "probe_timeout", "backoff",
                 "probe_batch", "pacing", "max_pps", "stream_results",
                 "chunk_rows", "delta")

    def __init__(self, shards=1, retries=0, probe_timeout=None,
                 backoff=BACKOFF, probe_batch=PROBE_BATCH, pacing=None,
                 max_pps=None, stream_results=False, chunk_rows=CHUNK_ROWS,
                 delta=None):
        # delta imports the scanner, which imports this module.
        from repro.scanner.delta import normalize_delta
        if shards < 1:
            raise ValueError("shard count must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if probe_timeout is not None and not 0 < probe_timeout < math.inf:
            raise ValueError("probe_timeout must be finite and > 0")
        if not 1 <= backoff < math.inf:
            raise ValueError("backoff must be finite and >= 1 (later "
                             "attempts may not time out sooner)")
        if probe_timeout is not None and _overflows(probe_timeout, backoff,
                                                    retries):
            raise ValueError("retry schedule overflows: probe_timeout * "
                             "backoff ** retries is not a finite number")
        if probe_batch < 1:
            raise ValueError("probe batch size must be >= 1")
        if max_pps is not None and not 0 < max_pps < math.inf:
            raise ValueError("max_pps must be finite and > 0 (or None)")
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        self.shards = shards
        self.retries = retries
        self.probe_timeout = probe_timeout
        self.backoff = backoff
        self.probe_batch = probe_batch
        self.pacing = normalize_pacing(pacing, max_pps)
        self.max_pps = max_pps
        self.stream_results = bool(stream_results)
        self.chunk_rows = chunk_rows
        self.delta = normalize_delta(delta)

    def replace(self, **changes):
        """A validated copy with ``changes`` applied (the pipeline's
        domain scan runs the same options at ``--pipeline-shards``)."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(changes)
        return ScanOptions(**fields)

    def as_meta(self):
        """Every field as a JSON-able dict: equal dicts, equal options."""
        meta = {name: getattr(self, name) for name in self.__slots__}
        for name in ("pacing", "delta"):
            config = meta[name]
            if config is not None:
                meta[name] = {field: getattr(config, field)
                              for field in config.__slots__}
        return meta
