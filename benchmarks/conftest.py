"""The session the paper-fidelity table reads (``benchmarks/fidelity.py``)."""

import pytest

from benchmarks.fidelity import Study


@pytest.fixture(scope="session")
def study():
    """One world, campaign, pipelines, snooping and fingerprinting run,
    shared by every row."""
    return Study()
