"""The paper-fidelity row rule (``benchmarks/fidelity.py``) on synthetic
rows: no world is built, the "study" is the measured value itself."""

import math

import pytest

from benchmarks.fidelity import (
    DEVIATION,
    FAIL,
    NA,
    OK,
    NotApplicable,
    Row,
    evaluate,
    judge,
    need,
    render_row,
    within,
)
from benchmarks.test_fidelity import check


def row(paper=50.0, tol=5.0, band="(40, 70)", deviation=None, **kwargs):
    return Row("Table X", "share", paper, lambda value: value, tol, band,
               deviation, **kwargs)


def not_applicable(study):
    need(study > 1, "only %d resolvers" % study)


class TestRowRule:
    def test_inside_tolerance_without_reason_passes(self):
        assert judge(row(), 54.0) == (OK, "")
        assert judge(row(), 45.0) == (OK, "")

    def test_outside_tolerance_without_reason_fails(self):
        status, note = judge(row(), 56.0)
        assert status == FAIL and "tolerance" in note

    def test_known_deviation_inside_its_band_passes(self):
        assert judge(row(deviation="ROADMAP 10a"), 65.0) == (
            DEVIATION, "ROADMAP 10a")

    def test_known_deviation_outside_its_band_fails(self):
        status, note = judge(row(deviation="ROADMAP 10a"), 71.0)
        assert status == FAIL and "band (40, 70)" in note

    def test_band_is_checked_inside_tolerance_too(self):
        assert judge(row(paper=42.0), 40.0)[0] == FAIL

    def test_fixed_deviation_asks_to_delete_its_reason(self):
        assert judge(row(deviation="ROADMAP 10a"), 52.0) == (
            FAIL, "fixed: delete the reason")

    def test_paper_range_widens_by_the_tolerance(self):
        ranged = row(paper=(20.0, 25.0), tol=1.0, band=None)
        assert [judge(ranged, value)[0] for value in (18.9, 19.0, 26.0,
                                                      26.1)] == \
            [FAIL, OK, OK, FAIL]
        assert judge(row(paper=(1, math.inf), tol=0, band=None),
                     1e6)[0] == OK

    def test_band_brackets(self):
        assert within("(40, 70)", 40.5) and not within("(40, 70)", 40)
        assert within("[40, 70]", 40) and within("(50, 100]", 100)
        assert within("(-inf, 0)", -1e9) and not within("[1, inf)", 0)
        assert within(None, -1.0)

    def test_not_applicable_row_is_skipped(self):
        na = Row("§4.2", "EE", 100.0, not_applicable, 5.0)
        assert evaluate(na, 1) == (None, NA, "only 1 resolvers")
        with pytest.raises(pytest.skip.Exception, match="only 1 resolvers"):
            check(na, 1)

    def test_check_passes_and_fails_like_judge(self):
        check(row(), 50.0)
        check(row(deviation="ROADMAP 14"), 60.0)
        with pytest.raises(AssertionError, match="delete the reason"):
            check(row(deviation="ROADMAP 14"), 50.0)
        with pytest.raises(AssertionError, match="tolerance"):
            check(row(), 60.0)

    def test_not_applicable_is_an_exception_type(self):
        with pytest.raises(NotApplicable):
            need(False, "why")


class TestMarkdown:
    def test_each_status(self):
        assert render_row(row(), 51.25, OK, "") == \
            "| share | 50.0% | 51.2% | ±5 | (40, 70) | ok |"
        assert render_row(row(deviation="why"), 65.0, DEVIATION, "why") == \
            "| share | 50.0% | 65.0% | ±5 | (40, 70) | deviation: why |"
        assert render_row(row(), None, NA, "only 3 resolvers") == \
            "| share | 50.0% | n/a | ±5 | (40, 70) | n/a: only 3 resolvers |"
        assert render_row(row(), 90.0, FAIL, "outside the band (40, 70)") \
            == ("| share | 50.0% | 90.0% | ±5 | (40, 70) "
                "| FAIL: outside the band (40, 70) |")
        assert render_row(row(), None, FAIL, "assertion failed") == \
            "| share | 50.0% | — | ±5 | (40, 70) | FAIL: assertion failed |"

    def test_paper_ranges_units_and_counts(self):
        assert render_row(row(paper=(20, 25), band=None, unit="/25",
                              fmt="%d"), 23, OK, "") == \
            "| share | 20–25/25 | 23/25 | ±5 | — | ok |"
        assert render_row(row(paper=(1, math.inf), tol=0, unit="",
                              fmt="%d"), 4, OK, "") == \
            "| share | ≥ 1 | 4 | ±0 | (40, 70) | ok |"
