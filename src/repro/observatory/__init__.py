"""The resolver observatory: a resident query plane over campaign results.

Three layers (see ``DESIGN.md``, "Observatory"):

* :mod:`repro.observatory.ingest` tails a campaign's checkpoint journal
  and folds weekly snapshots, fingerprint studies, and manipulation
  verdicts into the store — incrementally and idempotently;
* :mod:`repro.observatory.store` keeps what was folded as compact
  columnar records plus each week's committed ``ScanResult``, versioned
  on disk with atomic generation swaps;
* :mod:`repro.observatory.query` / :mod:`repro.observatory.service`
  answer point lookups, the Table 1/2 rankings, the Figure 2 survival
  curve, and per-prefix churn timelines — from the store alone, through
  the ``repro observe`` CLI or an embedded HTTP/JSON API.
"""

from repro.observatory.ingest import (
    GeoSource,
    IngestReport,
    ingest_checkpoint,
    scenario_geo,
)
from repro.observatory.query import Observatory
from repro.observatory.service import ObservatoryServer
from repro.observatory.store import ObservatoryError, ResolverStore

__all__ = [
    "GeoSource",
    "IngestReport",
    "Observatory",
    "ObservatoryError",
    "ObservatoryServer",
    "ResolverStore",
    "ingest_checkpoint",
    "scenario_geo",
]
