"""The scan control plane: :class:`ScanOptions` is where every scan
knob's name, default and range check live (DESIGN.md, "Scan control
plane")."""

import json

import pytest

from repro.scanner import DeltaConfig, PacingConfig, ScanOptions

NAN = float("nan")
INF = float("inf")


class TestRangeChecks:
    @pytest.mark.parametrize("knobs", [
        {"shards": 0}, {"shards": -2},
        {"retries": -1},
        {"probe_timeout": 0.0}, {"probe_timeout": -1.0},
        {"probe_timeout": NAN},
        {"backoff": 0.5}, {"backoff": 0.0}, {"backoff": NAN},
        {"retries": 2, "backoff": 0.9},
        {"probe_batch": 0}, {"probe_batch": -5},
        {"max_pps": 0}, {"max_pps": -5.0}, {"max_pps": NAN},
        {"pacing": "adaptive", "max_pps": -1},
        {"max_pps": INF}, {"probe_timeout": INF}, {"backoff": INF},
        # Finite knobs whose retry schedule leaves the float range.
        {"retries": 2, "probe_timeout": 1e-300, "backoff": 1e300},
        {"retries": 1, "probe_timeout": 1e308, "backoff": 10.0},
        {"retries": 5000, "probe_timeout": 1.0, "backoff": 2},
        {"pacing": "warp"},
        {"chunk_rows": 0},
        {"delta": "sometimes"},
    ], ids=lambda knobs: ",".join("%s=%s" % item for item in knobs.items()))
    def test_out_of_range_rejected(self, knobs):
        with pytest.raises(ValueError):
            ScanOptions(**knobs)

    def test_boundaries_accepted(self):
        options = ScanOptions(shards=1, retries=0, probe_timeout=1e-9,
                              backoff=1.0, probe_batch=1, max_pps=0.5,
                              chunk_rows=1)
        assert (options.backoff, options.probe_batch, options.chunk_rows) \
            == (1.0, 1, 1)

    def test_cli_spellings_are_normalised(self):
        assert ScanOptions(pacing="off", delta="off").as_meta() \
            == ScanOptions().as_meta()
        options = ScanOptions(pacing="adaptive", max_pps=50, delta=True)
        assert isinstance(options.pacing, PacingConfig)
        assert options.pacing.max_pps == 50.0
        assert isinstance(options.delta, DeltaConfig)

    @pytest.mark.parametrize("knob", ["heartbeat_timeout", "spill_dir",
                                      "stream_observations"])
    def test_unknown_knob_is_a_type_error(self, knob):
        with pytest.raises(TypeError):
            ScanOptions(**{knob: None})
        with pytest.raises(TypeError):
            ScanOptions().replace(**{knob: None})


# One non-default value per field: as_meta() must tell each apart.
VARIANTS = {
    "shards": 3, "retries": 2, "probe_timeout": 0.5, "backoff": 1.5,
    "probe_batch": 64, "pacing": "adaptive", "max_pps": 500.0,
    "stream_results": True, "chunk_rows": 257,
    "delta": DeltaConfig(audit_fraction=0.2),
}


class TestMeta:
    def test_has_exactly_the_ten_fields(self):
        assert sorted(ScanOptions().as_meta()) == sorted(VARIANTS)
        assert sorted(ScanOptions.__slots__) == sorted(VARIANTS)

    def test_round_trips_through_json(self):
        for options in (ScanOptions(), ScanOptions(**VARIANTS)):
            meta = options.as_meta()
            assert json.loads(json.dumps(meta)) == meta

    @pytest.mark.parametrize("field", sorted(VARIANTS))
    def test_differs_whenever_a_field_differs(self, field):
        changed = ScanOptions(**{field: VARIANTS[field]})
        assert changed.as_meta() != ScanOptions().as_meta()
        assert changed.as_meta() == \
            ScanOptions().replace(**{field: VARIANTS[field]}).as_meta()

    def test_nested_config_fields_show(self):
        loose = ScanOptions(delta=DeltaConfig(drift_budget=0.4))
        assert loose.as_meta() != ScanOptions(delta=True).as_meta()

    def test_replace_revalidates(self):
        options = ScanOptions(**VARIANTS)
        assert options.replace(shards=7).shards == 7
        assert options.replace(shards=7).as_meta() == \
            dict(options.as_meta(), shards=7)
        with pytest.raises(ValueError):
            options.replace(shards=0)


class TestCarriedAsIs:
    def test_new_campaign_takes_options_or_knobs_not_both(
            self, small_scenario):
        options = ScanOptions(retries=1)
        assert small_scenario.new_campaign(options=options).options \
            is options
        assert small_scenario.new_campaign(retries=1).options.as_meta() \
            == options.as_meta()
        with pytest.raises(TypeError, match="retries"):
            small_scenario.new_campaign(options=options, retries=1)

    @pytest.mark.parametrize("knob", ["heartbeat_timeout", "spill_dir"])
    def test_new_campaign_rejects_deleted_knobs(self, small_scenario,
                                                knob):
        with pytest.raises(TypeError):
            small_scenario.new_campaign(**{knob: None})

    def test_every_layer_holds_the_same_object(self, small_scenario):
        options = ScanOptions(shards=2, retries=1, probe_batch=64)
        campaign = small_scenario.new_campaign(verify=True,
                                               options=options)
        for holder in (campaign, campaign.scanner, campaign.engine,
                       campaign.verification_scanner,
                       campaign.verification_engine):
            assert holder.options is options
        assert campaign.verification_scanner.retries == 1
        assert campaign.scanner.probe_batch == 64
        pipeline = small_scenario.new_pipeline(options=options)
        assert pipeline.domain_engine.options is options
