"""Chaos-resume smoke run: kill-anywhere resume under injected crashes.

The CI gate for the checkpoint subsystem.  It runs one full study
uninterrupted and a second one that is crashed at a shard boundary
inside the first week's forked, streamed scan, crashed again at the
week boundary and inside the study units, and hit with a torn journal
append — resuming after every death — and asserts:

1. every injected crash actually killed an incarnation (exit via
   ``InjectedCrash``) and none re-fired after resume;
2. the torn journal tail was detected and set aside (nonzero
   ``journal_torn_bytes`` or quarantined records) without aborting;
3. resume provenance shows real replay (``resumed``,
   ``units_restored`` > 0);
4. the resumed study's rendered markdown report is *byte-identical*
   to the uninterrupted run's.

Both runs install the same (otherwise inert) fault plan: a plan's
presence changes which salted draws the network makes, so the fair
baseline shares the profile and differs only in crash/torn points.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.chaos_resume
"""

import shutil
import sys
import tempfile

from repro.checkpoint import CheckpointedRun
from repro.faults import FaultPlan, InjectedCrash, parse_fault_spec
from repro.reporting import render_markdown, run_full_study
from repro.scanner import ScanOptions
from repro.scenario import ScenarioConfig, build_scenario

SCALE = 120000
SEED = 3
WEEKS = 1
SNOOP_SAMPLE = 5
CATEGORIES = ("Alexa", "Banking")
# Two forked shards streaming small chunks, so the shard unit and the
# parent's in-memory chunk reassembly sit under the crash plane too.
OPTIONS = ScanOptions(shards=2, stream_results=True, chunk_rows=16)
SPEC_CLEAN = "none"
# torn=5 lands on the fingerprint unit's commit record: sequences 0-2
# are the two shard commits and the journaled shard-crash occurrence
# (in either completion order), 3 the week commit and 4 the week-crash
# occurrence; crash occurrences are appended outside the torn-write
# draw.
SPEC_CHAOS = ("none,crash=shard:campaign/week/0/scan/1,"
              "crash=week:campaign/0,crash=study:snoop,torn=5")
MAX_RESTARTS = 8


def build_scenario_with(spec):
    scenario = build_scenario(ScenarioConfig(scale=SCALE, seed=SEED))
    scenario.network.install_faults(
        FaultPlan(parse_fault_spec(spec), seed=SEED))
    return scenario


def study(scenario, checkpoint=None):
    return run_full_study(scenario, weeks=WEEKS,
                          snoop_sample=SNOOP_SAMPLE,
                          pipeline_categories=CATEGORIES,
                          checkpoint=checkpoint, options=OPTIONS)


def run_until_done(directory):
    """Restart the checkpointed study until an incarnation survives."""
    crashes = []
    torn_bytes = 0
    quarantined = 0
    for attempt in range(MAX_RESTARTS):
        scenario = build_scenario_with(SPEC_CHAOS)
        checkpoint = CheckpointedRun(directory, resume=attempt > 0,
                                     fault_plan=scenario.network.faults)
        torn_bytes += checkpoint.provenance["journal_torn_bytes"]
        quarantined += checkpoint.provenance["journal_records_quarantined"]
        try:
            results = study(scenario, checkpoint=checkpoint)
        except InjectedCrash as crash:
            crashes.append(str(crash))
            checkpoint.close()
            continue
        provenance = checkpoint.provenance
        checkpoint.close()
        return results, provenance, crashes, torn_bytes, quarantined
    raise RuntimeError("study did not finish within %d restarts"
                       % MAX_RESTARTS)


def check(condition, message):
    if not condition:
        print("FAIL: %s" % message, file=sys.stderr)
        return 1
    print("ok: %s" % message, file=sys.stderr)
    return 0


def main():
    failures = 0
    print("clean study (scale 1:%d, seed %d, %r)..."
          % (SCALE, SEED, SPEC_CLEAN), file=sys.stderr)
    clean = study(build_scenario_with(SPEC_CLEAN))
    clean_report = render_markdown(clean)

    directory = tempfile.mkdtemp(prefix="chaos-resume-")
    try:
        print("chaos study (%r, resume after every death)..."
              % SPEC_CHAOS, file=sys.stderr)
        resumed, provenance, crashes, torn_bytes, quarantined = \
            run_until_done(directory)

        failures += check(len(crashes) == 4,
                          "four injected deaths observed: %s" % crashes)
        failures += check(torn_bytes > 0 or quarantined > 0,
                          "torn journal tail set aside (%d bytes, "
                          "%d records quarantined)"
                          % (torn_bytes, quarantined))
        failures += check(provenance["resumed"],
                          "final incarnation resumed from the journal")
        failures += check(provenance["units_restored"] > 0,
                          "units restored instead of re-run (%d)"
                          % provenance["units_restored"])
        failures += check(provenance["journal_records_replayed"] > 0,
                          "journal replayed (%d records)"
                          % provenance["journal_records_replayed"])

        resumed_report = render_markdown(resumed)
        failures += check(resumed_report == clean_report,
                          "resumed report byte-identical to clean run "
                          "(%d bytes)" % len(clean_report))
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    if failures:
        print("%d chaos resume check(s) failed" % failures,
              file=sys.stderr)
        return 1
    print("chaos resume passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
