"""Differential campaigns: carry last week's verdicts, probe the churn.

"Hidden Treasures" (PAPERS.md) showed that recycling prior scans
recovers most of a fresh scan's signal at a fraction of the probes.
This module is that recycling plane for the weekly campaign, built
around the trust-but-verify posture the rest of the repo applies to
degraded work: carried-forward data is *stale by construction*, so
every unprobed verdict is explicitly attributed, a seeded audit sample
re-measures a slice of it each week, and measured drift beyond an
error budget escalates back to real probing automatically.

A delta week decomposes the target space using the churn model's own
forecast (:meth:`repro.inetmodel.churn.ChurnModel.pending_churn`,
asked *before* the model steps, so the prediction precedes reality):

* **churned prefixes** — pools with a lease expiry, decommission, or
  arrival due this week — get a *refresh*: every prior responder there
  is re-probed (:meth:`Ipv4Scanner.scan_addresses`), so deaths and
  rebinds-away are observed exactly.  Only a scheduled full sweep
  re-acquires hosts that rebound to brand-new addresses.
* **stable prefixes** — no forecast events — have their prior rows
  copied forward unprobed, each row flagged ``FLAG_CARRIED`` and
  tallied in ``ScanResult.carried`` under a ``delta:*`` cause.
* an **audit sample** of the carried responders — a pure hash of
  (scanner identity, scan epoch, address) against ``audit_fraction``,
  so the sampled set is identical at any shard count and in any probe
  order — is probed for real.  Audited verdicts replace their carried
  rows.
* the **drift detector** compares audited reality against the model's
  prediction (a stable prefix's responders should still answer) per
  /``window_bits`` destination window.  A window whose failure share
  exceeds ``drift_budget`` (with at least ``min_audit_failures``
  failures, so one unlucky loss draw cannot trip it) escalates: its
  prefixes are fully swept this week and their carried rows discarded.
  When the *aggregate* audit failure share blows the budget the whole
  campaign escalates to a full sweep — the fallback ladder's last rung.

Every rung is reported, never silent: escalations append
``status: "delta_escalated"``/``"delta_full_sweep"`` provenance
entries (surfaced by ``ScanResult.degraded_shards``), carried windows
and escalations emit ``delta``-kind flight-recorder events carrying
``delta:*`` causes, and the scheduled re-baselining sweeps are marked
too.

Determinism: probe identity is already independent of order, space
slicing, and shard count (``_probe_key`` mixes identity, epoch, and
target), the audit sample is a pure per-address hash, and the drift
decisions are pure functions of audit outcomes — so a delta week is
bit-identical at any ``--shards`` and across kill/resume incarnations
(the campaign's committed world state replays the same audit and
refresh probes before re-entering an interrupted escalation sweep).
"""

from itertools import compress

from repro.netsim.address import int_to_ip
from repro.scanner.ipv4scan import ScanResult, ScanTargetSpace
from repro.util import M64, fate_counts, mix64

# Attribution causes (flight recorder + provenance + carried tallies).
DELTA_CAUSE_PREFIX = "delta:"
CAUSE_CARRIED = "delta:carried"           # verdict copied forward unprobed
CAUSE_AUDIT = "delta:audit"               # carried verdict re-verified
CAUSE_REFRESH = "delta:churn-forecast"    # churned prefix re-probed
CAUSE_DRIFT = "delta:drift"               # window escalated to a sweep
CAUSE_GLOBAL_DRIFT = "delta:global-drift"  # campaign-wide escalation
CAUSE_FULL_SWEEP = "delta:full-sweep"     # scheduled re-baselining sweep

_SALT_AUDIT = 0xA7


class DeltaConfig:
    """Tuning of the delta-scanning plane.

    ``audit_fraction`` of carried-forward responders are re-probed each
    week; a /``window_bits`` window whose audited failure share exceeds
    ``drift_budget`` — with at least ``min_audit_failures`` actual
    failures, so a single lost audit probe in a tiny window cannot
    trigger a sweep — escalates to a full sweep of its prefixes, and an
    aggregate failure share over the budget escalates the whole
    campaign.  Every ``full_sweep_every``-th week (and the first and
    last of a :meth:`ScanCampaign.run`) is a scheduled full sweep that
    re-acquires hosts which rebound to new addresses.
    """

    __slots__ = ("audit_fraction", "drift_budget", "full_sweep_every",
                 "min_audit_failures", "window_bits")

    def __init__(self, audit_fraction=0.05, drift_budget=0.1,
                 full_sweep_every=4, min_audit_failures=2,
                 window_bits=16):
        if not 0.0 < audit_fraction <= 1.0:
            raise ValueError("audit_fraction must be in (0, 1]")
        if not 0.0 < drift_budget < 1.0:
            raise ValueError("drift_budget must be in (0, 1)")
        if full_sweep_every < 1:
            raise ValueError("full_sweep_every must be >= 1")
        if min_audit_failures < 1:
            raise ValueError("min_audit_failures must be >= 1")
        if not 0 < window_bits <= 32:
            raise ValueError("window_bits must be in (0, 32]")
        self.audit_fraction = float(audit_fraction)
        self.drift_budget = float(drift_budget)
        self.full_sweep_every = int(full_sweep_every)
        self.min_audit_failures = int(min_audit_failures)
        self.window_bits = int(window_bits)

    @property
    def window_mask(self):
        return (~((1 << (32 - self.window_bits)) - 1)) & 0xFFFFFFFF


def normalize_delta(delta, audit_fraction=None, drift_budget=None,
                    full_sweep_every=None):
    """Canonical delta setting: ``None`` (off) or a DeltaConfig.

    Accepts the CLI spellings (``"off"``/``"on"``), booleans, or a
    ready config; the keyword knobs override the config's fields when
    given (the ``--audit-fraction``/``--drift-budget``/
    ``--full-sweep-every`` flags).
    """
    if delta is None or delta is False or delta == "off":
        return None
    if delta is True or delta == "on":
        config = DeltaConfig()
    elif isinstance(delta, DeltaConfig):
        config = delta
    else:
        raise ValueError("unknown delta setting: %r (expected 'off', "
                         "'on', or a DeltaConfig)" % (delta,))
    if (audit_fraction is not None or drift_budget is not None
            or full_sweep_every is not None):
        config = DeltaConfig(
            audit_fraction=(config.audit_fraction if audit_fraction
                            is None else audit_fraction),
            drift_budget=(config.drift_budget if drift_budget is None
                          else drift_budget),
            full_sweep_every=(config.full_sweep_every if full_sweep_every
                              is None else full_sweep_every),
            min_audit_failures=config.min_audit_failures,
            window_bits=config.window_bits)
    return config


def audit_sample(identity, epoch, values, fraction):
    """The seeded audit subset of ``values`` (32-bit address ints).

    A value is audited iff a pure splitmix64 hash of (scanner identity,
    scan epoch, value) falls below ``fraction`` of the hash space:
    order-independent, shard-invariant, and re-drawn each scan epoch so
    successive weeks audit different slices of the carried set.
    """
    values = list(values)
    salt = (_SALT_AUDIT << 56) ^ (identity & M64) ^ ((epoch & M64) << 8)
    # fate_counts draws mix64(key ^ mix64(1)) at a value's one
    # occurrence: folding mix64(1) into the base leaves mix64(key).
    audited, = fate_counts(
        values, [(salt ^ mix64(1), 0x9E3779B1,
                  int(fraction * float(1 << 64)))],
        b"\x01" * len(values))
    return set(compress(values, audited))


def _record_delta_event(network, source_ip, dst, cause):
    recorder = network.recorder
    if recorder is not None:
        recorder.record(network.clock.now, "delta", source_ip, dst,
                        cause=cause)


def mark_full_sweep(result, week, cause, campaign):
    """Stamp a full-sweep week of a delta campaign with its reason."""
    result.provenance.append({"status": "ok", "kind": "delta",
                              "mode": "full", "week": week,
                              "cause": cause})
    _record_delta_event(campaign.network, campaign.scanner.source_ip,
                        0, cause)
    if campaign.perf is not None:
        campaign.perf.count("delta_full_sweeps")


def _rows_by_prefix(prior_result, prefixes):
    """Partition the prior result's rows by covering prefix slot.

    Returns ``{prefix_index: [(value, rcode, flags), ...]}`` preserving
    the prior result's row order within each prefix.
    """
    ordered = sorted(range(len(prefixes)),
                     key=lambda slot: prefixes[slot].base)
    bases = [prefixes[slot].base for slot in ordered]
    from bisect import bisect_right
    rows = {}
    for value, rcode, flags in prior_result.iter_rows():
        position = bisect_right(bases, value) - 1
        if position < 0:
            continue
        slot = ordered[position]
        if not prefixes[slot].contains_int(value):
            continue
        rows.setdefault(slot, []).append((value, rcode, flags))
    return rows


def run_delta_week(campaign, week, forecast, checkpoint):
    """Execute one delta week; returns the assembled :class:`ScanResult`.

    ``forecast`` is the churn model's pre-step
    :meth:`~repro.inetmodel.churn.ChurnModel.pending_churn` map.  The
    fallback ladder runs in deterministic order — audit probes, drift
    verdicts, then either the global full sweep or (refresh probes +
    escalated-window sweeps + carry) — so a resumed incarnation replays
    the identical probe sequence before re-entering an interrupted
    engine sweep.
    """
    config = campaign.delta
    scanner = campaign.scanner
    space = campaign.target_space
    network = campaign.network
    perf = campaign.perf
    prior = campaign.snapshots[-1].result
    prefixes = space.prefixes
    window_mask = config.window_mask

    churned_slots = {slot for slot, prefix in enumerate(prefixes)
                     if forecast.get(prefix.cidr)}
    rows = _rows_by_prefix(prior, prefixes)

    # -- audit the stable carried set (trust, but verify) ------------------
    stable_values = set()
    for slot, slot_rows in rows.items():
        if slot not in churned_slots:
            stable_values.update(value for value, _, _ in slot_rows)
    epoch = scanner._scan_epoch()
    audited = audit_sample(scanner._identity, epoch, stable_values,
                           config.audit_fraction)
    audit_result = scanner.scan_addresses(
        [int_to_ip(value) for value in sorted(audited)])
    alive = {value for value, _, _ in audit_result.iter_rows()}

    # -- drift detection per destination window ----------------------------
    window_audits = {}
    for value in audited:
        window = value & window_mask
        counts = window_audits.setdefault(window, [0, 0])
        counts[0] += 1
        if value not in alive:
            counts[1] += 1
    escalated_windows = []
    for window, (count, failures) in sorted(window_audits.items()):
        if failures >= config.min_audit_failures \
                and failures / count > config.drift_budget:
            escalated_windows.append((window, count, failures))
    total_audited = len(audited)
    total_failures = sum(1 for value in audited if value not in alive)
    global_drift = (total_failures >= config.min_audit_failures
                    and total_audited > 0
                    and total_failures / total_audited
                    > config.drift_budget)

    result = ScanResult(network.clock.now)
    result.probes_sent += audit_result.probes_sent
    result.retransmissions += audit_result.retransmissions
    summary = {"status": "ok", "kind": "delta", "mode": "delta",
               "week": week, "audited": total_audited,
               "audit_failures": total_failures,
               "carried": 0, "refreshed": 0,
               "escalated_windows": len(escalated_windows)}
    if perf is not None:
        perf.count("delta_audit_probes", audit_result.probes_sent)
        perf.count("delta_audit_failures", total_failures)

    if global_drift:
        # -- last rung: reality no longer matches the model anywhere.
        # Discard every carried verdict and sweep the full space (the
        # audit probes already sent stay accounted; their rows are
        # superseded by the sweep's fresh ones).
        summary["mode"] = "full"
        summary["cause"] = CAUSE_GLOBAL_DRIFT
        swept = campaign.engine.scan(
            space, checkpoint=checkpoint.scope("week", week, "scan"))
        result.merge(swept)
        result.provenance.append(summary)
        result.provenance.append(
            {"status": "delta_full_sweep", "cause": CAUSE_GLOBAL_DRIFT,
             "week": week, "audited": total_audited,
             "failures": total_failures})
        _record_delta_event(network, scanner.source_ip, 0,
                            CAUSE_GLOBAL_DRIFT)
        if perf is not None:
            perf.count("delta_global_escalations")
            perf.count("delta_full_sweeps")
        return result

    escalated_slots = set()
    for window, _, _ in escalated_windows:
        window_stop = window + (~window_mask & 0xFFFFFFFF) + 1
        for slot, prefix in enumerate(prefixes):
            if slot in churned_slots or slot in escalated_slots:
                continue
            if prefix.base < window_stop \
                    and window < prefix.base + prefix.num_addresses:
                escalated_slots.add(slot)

    # -- keep audited verdicts for prefixes the sweep won't revisit;
    # audit rows inside escalated prefixes are dropped (the sweep below
    # re-measures them, and a target must not contribute twice).
    escalated_prefixes = [prefixes[slot] for slot in sorted(escalated_slots)]
    for value, rcode, flags in audit_result.iter_rows():
        if any(prefix.contains_int(value)
               for prefix in escalated_prefixes):
            continue
        result.record_value(value, rcode,
                            bool(flags & ScanResult.FLAG_DIVERGENT))

    # -- refresh churned prefixes: re-probe their prior responders ---------
    refresh_values = sorted({value for slot in sorted(churned_slots)
                             for value, _, _ in rows.get(slot, ())})
    refresh_result = scanner.scan_addresses(
        [int_to_ip(value) for value in refresh_values])
    summary["refreshed"] = len(refresh_values)
    result.merge(refresh_result)
    if perf is not None:
        perf.count("delta_refresh_probes", refresh_result.probes_sent)
    for slot in sorted(churned_slots):
        if rows.get(slot):
            _record_delta_event(network, scanner.source_ip,
                                prefixes[slot].base, CAUSE_REFRESH)

    # -- escalated windows: full sweep of their prefixes -------------------
    if escalated_slots:
        sweep_space = ScanTargetSpace(
            [prefixes[slot] for slot in range(len(prefixes))
             if slot in escalated_slots])
        result.merge(campaign.engine.scan(
            sweep_space, checkpoint=checkpoint.scope("week", week, "delta")))
    for window, count, failures in escalated_windows:
        result.provenance.append(
            {"status": "delta_escalated", "window": int_to_ip(window),
             "cause": CAUSE_DRIFT, "week": week, "audited": count,
             "failures": failures})
        _record_delta_event(network, scanner.source_ip, window,
                            CAUSE_DRIFT)
    if perf is not None and escalated_windows:
        perf.count("delta_escalated_windows", len(escalated_windows))

    # -- carry the rest forward, attributed --------------------------------
    carried_windows = set()
    for slot in sorted(set(rows) - churned_slots - escalated_slots):
        for value, rcode, flags in rows[slot]:
            if value in audited:
                continue  # the audit verdict replaced this row
            window = value & window_mask
            result.record_carried(value, rcode, flags, window,
                                  CAUSE_CARRIED)
            carried_windows.add(window)
    summary["carried"] = result.carried_targets
    for window in sorted(carried_windows):
        _record_delta_event(network, scanner.source_ip, window,
                            CAUSE_CARRIED)
    if perf is not None:
        perf.count("delta_carried_targets", result.carried_targets)
        perf.count("delta_weeks")
    result.provenance.append(summary)
    return result


def delta_summary(snapshots):
    """Aggregate delta bookkeeping across a campaign's snapshots."""
    totals = {"delta_weeks": 0, "full_weeks": 0, "carried": 0,
              "audited": 0, "audit_failures": 0, "refreshed": 0,
              "escalated_windows": 0, "global_escalations": 0}
    for snapshot in snapshots:
        for entry in snapshot.result.provenance:
            if entry.get("kind") == "delta" and entry.get("status") == "ok":
                if entry["mode"] == "delta":
                    totals["delta_weeks"] += 1
                else:
                    totals["full_weeks"] += 1
                    if entry.get("cause") == CAUSE_GLOBAL_DRIFT:
                        totals["global_escalations"] += 1
                for key in ("carried", "audited", "audit_failures",
                            "refreshed", "escalated_windows"):
                    totals[key] += entry.get(key, 0)
    return totals
