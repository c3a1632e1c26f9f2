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


class TestStubBatchAgainstOracle:
    @pytest.mark.parametrize("seed", [7, 11])
    def test_study_is_equal_with_one_question_per_send(self, seed,
                                                       monkeypatch):
        """One tiny study through ``ask_many`` (one ``send_many`` per
        resolver flow, rows read off unrendered replies), one through
        ``tests.oracles.message_ask_many`` (a ``send_udp`` and a full
        parse per question): equal reports and equal network counters."""
        from repro.scanner import chaos, domainscan, snooping
        from repro.scenario import ScenarioConfig, build_scenario
        from tests import oracles

        def study():
            scenario = build_scenario(ScenarioConfig(scale=60000,
                                                     seed=seed))
            results = run_full_study(
                scenario, weeks=2, snoop_sample=20,
                pipeline_categories=("Alexa", "Banking", "NX"))
            network = scenario.network
            return (render_markdown(results, scenario=scenario),
                    network.udp_queries_sent, network.udp_queries_lost,
                    network.udp_responses_corrupted,
                    dict(network.fault_counters))

        batched = study()
        callers = set()

        def oracle(*args, **kwargs):
            callers.add(kwargs.get("qtype"))
            return oracles.message_ask_many(*args, **kwargs)

        for module in (chaos, domainscan, snooping):
            monkeypatch.setattr(module, "ask_many", oracle)
        assert study() == batched
        # The domain scan, snooping and CHAOS scan all went through it.
        assert callers == {None, 2, 16}
