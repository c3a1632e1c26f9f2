"""Retry/backoff probing: schedule maths and loss recovery."""

import pytest

from repro.faults import FaultPlan, FaultProfile
from repro.perf import PerfRegistry
from repro.scanner import Ipv4Scanner, ScanOptions
from repro.scanner.ipv4scan import retry_schedule
from repro.scenario import ScenarioConfig, build_scenario


class TestRetrySchedule:
    def test_no_timeout_means_indefinite_waits(self):
        assert retry_schedule(None, 2) == [None, None, None]

    def test_exponential_backoff(self):
        assert retry_schedule(1.0, 3, backoff=2.0) == [1.0, 2.0, 4.0, 8.0]

    def test_rtt_floor_applies(self):
        assert retry_schedule(0.1, 2, backoff=2.0, rtt_floor=0.3) == \
            [0.3, 0.3, pytest.approx(0.4)]

    def test_zero_retries_single_attempt(self):
        assert retry_schedule(0.5, 0) == [0.5]

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            retry_schedule(1.0, -1)

    @pytest.mark.parametrize("backoff", [0.5, 0.0, -2.0, float("nan")])
    def test_backoff_below_one_rejected(self, backoff):
        # Later attempts would time out sooner than the first.
        with pytest.raises(ValueError, match="backoff"):
            retry_schedule(1.0, 2, backoff=backoff)
        with pytest.raises(ValueError, match="backoff"):
            retry_schedule(None, 2, backoff=backoff)

    def test_constant_backoff_allowed(self):
        assert retry_schedule(1.0, 2, backoff=1.0) == [1.0, 1.0, 1.0]


class TestScannerKnobValidation:
    def make(self, mini, timeout_margin=1.25, **knobs):
        return Ipv4Scanner(mini.network, mini.client_ip,
                           "scan.dnsstudy.edu",
                           timeout_margin=timeout_margin,
                           options=ScanOptions(**knobs))

    @pytest.mark.parametrize("kwargs", [
        {"backoff": 0.5}, {"backoff": 0.0}, {"retries": 2, "backoff": 0.9},
        {"timeout_margin": 0.0}, {"timeout_margin": -1.25},
        {"retries": -1},
    ])
    def test_nonsense_rejected_at_construction(self, mini, kwargs):
        with pytest.raises(ValueError):
            self.make(mini, **kwargs)

    def test_boundaries_accepted(self, mini):
        scanner = self.make(mini, backoff=1.0, timeout_margin=0.01)
        assert (scanner.backoff, scanner.timeout_margin) == (1.0, 0.01)


class TestRetriesUnderLoss:
    """Retransmissions recover responders a single-probe scan loses."""

    SCALE = 60000
    SEED = 13

    @pytest.fixture(scope="class")
    def scenario(self):
        return build_scenario(ScenarioConfig(scale=self.SCALE,
                                             seed=self.SEED))

    def run_scan(self, scenario, retries, loss_rate=None):
        """One scan with clean flow counters; optional injected loss."""
        if loss_rate is not None:
            scenario.network.install_faults(FaultPlan(
                FaultProfile(loss_rate=loss_rate), seed=self.SEED))
        # The clock is frozen across these scans, so reset the per-epoch
        # flow-occurrence counters by hand: each run draws packet fates
        # from the same clean slate (what distinct weekly scans get).
        scenario.network._flow_counts.clear()
        try:
            perf = PerfRegistry()
            campaign = scenario.new_campaign(verify=False, perf=perf,
                                             retries=retries)
            result = campaign.engine.scan(scenario.target_space())
            return result, perf
        finally:
            scenario.network.faults = None

    def test_retries_recover_lost_responders(self, scenario):
        single, __ = self.run_scan(scenario, retries=0, loss_rate=0.30)
        robust, perf = self.run_scan(scenario, retries=2, loss_rate=0.30)
        assert len(robust.responders) > len(single.responders)
        # First attempts share the single-probe run's fate draws, so the
        # robust result strictly extends it.
        assert robust.responders >= single.responders
        assert robust.retransmissions > 0
        assert perf.counter("probe_retransmissions") == \
            robust.retransmissions

    def test_retransmissions_only_for_unanswered(self, scenario):
        robust, __ = self.run_scan(scenario, retries=2, loss_rate=0.30)
        first_attempts = robust.probes_sent - robust.retransmissions
        # Targets that answered early stop retrying: fewer than the
        # worst-case retries-per-target datagram count.
        assert 0 < robust.retransmissions < 2 * first_attempts

    def test_retries_superset_under_default_loss(self, scenario):
        baseline, __ = self.run_scan(scenario, retries=0)
        robust, __ = self.run_scan(scenario, retries=2)
        assert robust.responders >= baseline.responders

    def test_robust_path_deterministic(self, scenario):
        left, __ = self.run_scan(scenario, retries=2, loss_rate=0.30)
        right, __ = self.run_scan(scenario, retries=2, loss_rate=0.30)
        assert left.responders == right.responders
        assert left.by_rcode == right.by_rcode
        assert left.probes_sent == right.probes_sent
        assert left.retransmissions == right.retransmissions
