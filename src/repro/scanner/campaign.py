"""Weekly scan campaigns (the 13-month monitoring of §2.2–§2.5).

Runs an Internet-wide scan every simulated week, advancing the clock and
the churn model in between, and optionally runs a verification scan from a
second source in a different /8 to estimate how many networks block the
primary scanner (§2.2 Scan Verification).

With a checkpoint attached (see :mod:`repro.checkpoint`), every
completed week is committed durably — snapshot plus the world state a
resume needs (clock, traffic counters, perf, a churn digest) — and a
resumed campaign *fast-forwards* through committed weeks: it replays the
churn model's deterministic ``step()`` draws, restores the recorded
snapshot and counters, and validates via the churn digest that the
rebuilt world converged on the one the checkpoint came from, before
scanning the first incomplete week for real.
"""

from repro.checkpoint import NULL_SCOPE, CheckpointError, churn_digest
from repro.netsim.clock import WEEK
from repro.obs.trace import span
from repro.scanner import delta as delta_mod
from repro.scanner.engine import ScanEngine
from repro.scanner.ipv4scan import Ipv4Scanner
from repro.scanner.options import ScanOptions


class CampaignError(RuntimeError):
    """A campaign was asked for state it does not have (or cannot trust)."""


class WeeklySnapshot:
    """One week's scan result plus its campaign metadata."""

    def __init__(self, week, result, verification=None):
        self.week = week
        self.result = result
        self.verification = verification

    def __repr__(self):
        return "WeeklySnapshot(week=%d, %d responders)" % (
            self.week, len(self.result.responders))


class ScanCampaign:
    """Drives weekly scans over a target space for a number of weeks.

    ``options`` (a :class:`~repro.scanner.options.ScanOptions`) is
    shared, as one object, by the primary and the verification
    scanner/engine pair.
    """

    def __init__(self, network, churn_model, target_space, source_ip,
                 measurement_domain, blacklist=None,
                 verification_source_ip=None, perf=None, options=None):
        self.network = network
        self.churn = churn_model
        self.target_space = target_space
        self.perf = perf
        self.options = options = options or ScanOptions()
        self.delta = options.delta

        def scan_pair(ip, port):
            scanner = Ipv4Scanner(network, ip, measurement_domain,
                                  blacklist=blacklist, source_port=port,
                                  perf=perf, options=options)
            return scanner, ScanEngine(scanner, options=options, perf=perf)

        self.scanner, self.engine = scan_pair(source_ip, 31337)
        self.verification_scanner = self.verification_engine = None
        if verification_source_ip is not None:
            self.verification_scanner, self.verification_engine = \
                scan_pair(verification_source_ip, 31338)
        self.snapshots = []

    def run_week(self, verify=False, checkpoint=None, force_full=False):
        """Advance churn, run this week's scan (plus verification scan).

        With :attr:`delta` configured, non-scheduled weeks after the
        first run as delta weeks (see :mod:`repro.scanner.delta`): the
        churn model is asked for its forecast *before* it steps, prior
        verdicts in stable prefixes are carried forward with audit
        probes and drift escalation, and only churned prefixes are
        re-probed.  ``force_full`` pins a full sweep regardless (the
        closing week of :meth:`run` re-baselines this way).  The week
        is one checkpoint unit: under a ``checkpoint`` (a
        :class:`repro.checkpoint` run or scope) a committed week is
        fast-forwarded instead of scanned (see the module docstring).
        """
        checkpoint = checkpoint or NULL_SCOPE
        week = len(self.snapshots)

        def scan_week():
            checkpoint.note("resumed_from_week", week)
            forecast = None
            if self.delta is not None and not force_full and week > 0 \
                    and week % self.delta.full_sweep_every != 0:
                forecast = self.churn.pending_churn()
            self.churn.step()
            with span(self.network, "week", week=week, verify=bool(verify),
                      delta=forecast is not None):
                result, verification = self._scan_week(
                    week, verify, checkpoint, forecast)
            if self.perf is not None:
                self.perf.count("weeks_scanned")
            self.network.clock.advance(WEEK)
            return WeeklySnapshot(week, result, verification)

        def fast_forward(snapshot, state):
            self.churn.step()
            if state["churn_digest"] != churn_digest(self.churn):
                # A CheckpointError: the CLI reports it in one line.
                raise CheckpointError(
                    "resume diverged at week %d: the rebuilt churn "
                    "model does not match the checkpointed one "
                    "(different seed/scale?)" % week)

        snapshot = checkpoint.unit(
            "week", (week,), scan_week, self.network, self.perf,
            extra_state=lambda: {"churn_digest": churn_digest(self.churn)},
            on_restore=fast_forward, week=week)
        self.snapshots.append(snapshot)
        return snapshot

    def _scan_week(self, week, verify, checkpoint, forecast=None):
        if forecast is not None:
            result = delta_mod.run_delta_week(self, week, forecast,
                                              checkpoint)
        else:
            result = self.engine.scan(
                self.target_space,
                checkpoint=checkpoint.scope("week", week, "scan"))
            if self.delta is not None:
                delta_mod.mark_full_sweep(result, week,
                                          delta_mod.CAUSE_FULL_SWEEP,
                                          self)
        verification = None
        if verify and self.verification_engine is not None:
            verification = self.verification_engine.scan(
                self.target_space,
                checkpoint=checkpoint.scope("week", week, "verify"))
        return result, verification

    def run(self, weeks, verify_last=False, checkpoint=None):
        """Run a full campaign of ``weeks`` weekly scans.

        With a ``checkpoint`` (a :class:`repro.checkpoint` run or
        scope), committed weeks are restored via deterministic
        fast-forward instead of re-scanned, and each newly completed
        week is committed before the next begins.
        """
        for week in range(weeks):
            # With delta scanning on, the closing week always
            # re-baselines with a full sweep: the last snapshot feeds
            # the Table 1/2 rankings, which must read measured reality,
            # not carried data.
            self.run_week(verify=verify_last and week == weeks - 1,
                          checkpoint=checkpoint,
                          force_full=(self.delta is not None
                                      and week == weeks - 1))
        return self.snapshots

    def first(self):
        if not self.snapshots:
            raise CampaignError(
                "campaign has no snapshots yet: run at least one week "
                "before asking for first()")
        return self.snapshots[0]

    def last(self):
        if not self.snapshots:
            raise CampaignError(
                "campaign has no snapshots yet: run at least one week "
                "before asking for last()")
        return self.snapshots[-1]
