"""Tests for the full-study driver and report renderer."""

import pytest

from repro.reporting import render_markdown, run_full_study


@pytest.fixture(scope="module")
def study(small_scenario_module):
    scenario = small_scenario_module
    return scenario, run_full_study(
        scenario, weeks=3, snoop_sample=40,
        pipeline_categories=("Adult", "Alexa"))


@pytest.fixture(scope="module")
def small_scenario_module():
    from repro.scenario import ScenarioConfig, build_scenario
    return build_scenario(ScenarioConfig(scale=60000, seed=13,
                                         loss_rate=0.0))


class TestRunFullStudy:
    def test_all_sections_populated(self, study):
        __, results = study
        assert len(results.series) == 3
        assert results.survival[0][1] == 100.0
        assert results.countries
        assert results.rirs
        assert results.software["responding"] > 0
        assert results.devices["tcp_responders"] > 0
        assert results.utilization["total"] == 40
        assert set(results.prefilter) == {"Adult", "Alexa"}
        assert set(results.table5) == {"Adult", "Alexa"}
        assert results.fig4 is not None
        assert results.cn_coverage["responders"] > 0
        assert results.case_studies["mail_listeners"] is not None
        assert results.resolver_count > 100

    def test_progress_callback(self, small_scenario_module):
        messages = []
        run_full_study(small_scenario_module, weeks=1, snoop_sample=5,
                       pipeline_categories=("Dating",),
                       progress=messages.append)
        assert any("weekly" in message for message in messages)
        assert any("Dating" in message for message in messages)


class TestRenderMarkdown:
    def test_renders_every_section(self, study):
        scenario, results = study
        report = render_markdown(results, scenario=scenario)
        for heading in ("# Open DNS resolver study",
                        "## Figure 1", "## Figure 2", "## Table 1",
                        "## Table 2", "## Table 3", "## Table 4",
                        "## Section 2.6", "## Section 4.1",
                        "## Table 5", "## Figure 4", "## Section 4.3"):
            assert heading in report, heading
        assert "NOERROR decline ratio" in report
        assert "CN coverage" in report

    def test_renders_without_scenario(self, study):
        __, results = study
        report = render_markdown(results)
        assert "Scale 1:" not in report
        assert "## Table 5" in report


class TestKernelsAgainstOracles:
    def test_report_is_byte_equal_with_the_oracles_swapped_in(
            self, monkeypatch):
        """One tiny study on the production kernels, one on the
        reference implementations they replaced (two-row edit distance,
        per-pair Counter Jaccard, compressor-only encoder): the rendered
        reports must not differ in a byte."""
        from repro.core import distance, pipeline
        from repro.dnswire.message import Message
        from repro.scenario import ScenarioConfig, build_scenario
        from tests import oracles

        def study():
            scenario = build_scenario(ScenarioConfig(
                scale=100000, seed=13, loss_rate=0.0))
            results = run_full_study(
                scenario, weeks=2, snoop_sample=10,
                pipeline_categories=("Alexa", "Banking"))
            return render_markdown(results, scenario=scenario)

        report = study()
        calls = {}

        def counted(name, oracle):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return oracle(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(distance, "edit_distance", counted(
            "edit_distance", oracles.dp_edit_distance))
        monkeypatch.setattr(pipeline, "diff_cluster", counted(
            "diff_cluster", oracles.pairwise_diff_cluster))
        monkeypatch.setattr(Message, "to_wire", counted(
            "to_wire", oracles.compressor_only_to_wire))
        assert study() == report
        assert set(calls) == {"edit_distance", "diff_cluster", "to_wire"}
