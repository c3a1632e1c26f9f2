"""Every row of the paper-fidelity table under the row rule
(``benchmarks/fidelity.py``)."""

import pytest

from benchmarks.fidelity import FAIL, NA, ROWS, evaluate


def check(row, study):
    """Skip an n/a row; fail one the row rule rejects."""
    value, status, note = evaluate(row, study)
    if status == NA:
        pytest.skip(note)
    assert status != FAIL, "%s: measured %r, %s" % (row.label, value, note)


@pytest.mark.parametrize("row", ROWS,
                         ids=["%s: %s" % (row.artifact, row.label)
                              for row in ROWS])
def test_row(row, study):
    check(row, study)
