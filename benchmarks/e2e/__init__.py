"""One end-to-end benchmark with a per-layer budget.

Four workloads — ``sweep``, ``sweep-hostile``, ``study``, ``observe`` —
cover the paper's whole chain (build world, weekly IPv4 sweeps, domain
scan, acquisition, clustering, labeling, report) and this repo's
extension of it (journal, observatory, query).  See ``README.md``.

    PYTHONPATH=src python -m benchmarks.e2e run [--traced]
    PYTHONPATH=src python -m benchmarks.e2e compare A.json B.json
    PYTHONPATH=src python -m benchmarks.e2e aa
"""
