"""Tests for the CheckpointedRun supervisor (commit/restore/resume)."""

import os
import pickle

import pytest

from repro.checkpoint import (NULL_SCOPE, CheckpointedRun,
                              CheckpointError, scan_journal)
from repro.faults import FaultPlan, FaultProfile, InjectedCrash
from repro.netsim import Network, SimClock
from repro.obs import Tracer
from repro.perf import PerfRegistry


def open_run(tmp_path, **kwargs):
    return CheckpointedRun(str(tmp_path / "ckpt"), **kwargs)


class TestCommitRestore:
    def test_roundtrip_with_state(self, tmp_path):
        run = open_run(tmp_path)
        run.commit(("unit", 0), {"result": [1, 2]}, state={"clock": 7.0})
        run.close()
        resumed = open_run(tmp_path, resume=True)
        assert resumed.completed(("unit", 0))
        record = resumed.restore(("unit", 0))
        assert record["payload"] == {"result": [1, 2]}
        assert record["state"] == {"clock": 7.0}
        assert resumed.restore(("unit", 1)) is None

    def test_scope_prefixes_keys_and_nests(self, tmp_path):
        run = open_run(tmp_path)
        scope = run.scope("week", 3).scope("scan")
        scope.commit(("shard", 0), "payload")
        assert run.completed(("week", 3, "scan", "shard", 0))
        assert scope.completed(("shard", 0))
        assert scope.restore(("shard", 0))["payload"] == "payload"

    def test_corrupt_snapshot_quarantined_not_fatal(self, tmp_path):
        run = open_run(tmp_path)
        run.commit(("unit", 0), "payload")
        run.close()
        resumed = open_run(tmp_path, resume=True)
        path = resumed.store.path_for(("unit", 0))
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            handle.write(b"\x00")
        assert resumed.restore(("unit", 0)) is None
        assert not resumed.completed(("unit", 0))
        assert resumed.provenance["snapshots_quarantined"] == 1
        assert os.listdir(resumed.quarantine_dir)

    def test_missing_snapshot_reruns_unit(self, tmp_path):
        run = open_run(tmp_path)
        run.commit(("unit", 0), "payload")
        os.remove(run.store.path_for(("unit", 0)))
        run.close()
        resumed = open_run(tmp_path, resume=True)
        assert resumed.restore(("unit", 0)) is None


class TestStateSnapshot:
    """A unit's world state is its own snapshot beside the payload; the
    journal record only names it."""

    def test_state_is_a_snapshot_not_a_journal_field(self, tmp_path):
        run = open_run(tmp_path)
        record = run.commit(("unit", 0), "payload", state={"clock": 7.0})
        assert "state" not in record
        assert record["state_snapshot"] == os.path.basename(
            run.store.path_for(("unit", 0, "state")))
        assert run.store.load(("unit", 0, "state")) == {"clock": 7.0}
        # A unit without state (a scan shard) writes no state file.
        assert run.commit(("shard", 0), "x")["state_snapshot"] is None
        assert not os.path.exists(run.store.path_for(("shard", 0, "state")))

    def test_parent_record_with_inline_state_restores(self, tmp_path):
        # What an older version appended: the state inside the record.
        run = open_run(tmp_path)
        run.journal.append({"kind": "commit", "key": ("unit", 0),
                            "snapshot": run.store.save(("unit", 0), "w0"),
                            "state": {"clock": 7.0}})
        run.close()
        resumed = open_run(tmp_path, resume=True)
        assert resumed.restore(("unit", 0)) == {"payload": "w0",
                                                "state": {"clock": 7.0}}

    @pytest.mark.parametrize("damage", ["missing", "corrupt"])
    def test_damaged_state_is_quarantined_and_the_unit_reruns(
            self, tmp_path, damage):
        from tests.checkpoint.test_resume_equivalence import (
            WEEKS, build_campaign_world, campaign_fingerprint,
            make_campaign, run_campaign_until_done)
        directory = str(tmp_path / "ckpt")
        clean = run_campaign_until_done(directory, None)[0]
        path = open_run(tmp_path, resume=True).store.path_for(
            ("week", 1, "state"))
        if damage == "missing":
            os.remove(path)
        else:
            with open(path, "r+b") as handle:
                handle.seek(-1, os.SEEK_END)
                handle.write(b"\x00")
        resumed = make_campaign(build_campaign_world())
        run = open_run(tmp_path, resume=True)
        resumed.run(WEEKS, checkpoint=run)
        provenance = run.provenance
        run.close()
        assert provenance["snapshots_quarantined"] == 1
        assert provenance["units_restored"] == 2
        assert provenance["units_committed"] == 1
        assert (os.listdir(os.path.join(directory, ".quarantine"))
                == (["0000.corrupt.snap"] if damage == "corrupt" else []))
        assert os.path.exists(path)           # recommitted
        assert campaign_fingerprint(resumed) == campaign_fingerprint(clean)
        assert [pickle.dumps(snapshot) for snapshot in resumed.snapshots] \
            == [pickle.dumps(snapshot) for snapshot in clean.snapshots]

    def test_every_journal_record_is_small(self, tmp_path):
        from tests.observatory.conftest import run_checkpointed_campaign
        directory = tmp_path / "ckpt"
        run_checkpointed_campaign(directory)
        records = [record for __, record
                   in scan_journal(str(directory / "journal.wal"))]
        assert len(records) >= 3
        assert all(len(pickle.dumps(record)) < 1024 for record in records)


class TestMetaValidation:
    def test_reopen_without_resume_refused(self, tmp_path):
        run = open_run(tmp_path, meta={"command": "campaign"})
        run.commit(("week", 0), "x")
        run.close()
        with pytest.raises(CheckpointError):
            open_run(tmp_path, meta={"command": "campaign"})

    def test_resume_with_matching_meta_allowed(self, tmp_path):
        run = open_run(tmp_path, meta={"seed": 7})
        run.commit(("week", 0), "x")
        run.close()
        resumed = open_run(tmp_path, meta={"seed": 7}, resume=True)
        assert resumed.completed(("week", 0))

    def test_resume_with_mismatched_meta_refused(self, tmp_path):
        run = open_run(tmp_path, meta={"seed": 7})
        run.commit(("week", 0), "x")
        run.close()
        with pytest.raises(CheckpointError):
            open_run(tmp_path, meta={"seed": 8}, resume=True)


def traced_world():
    network = Network(SimClock())
    network.tracer = Tracer(clock=network.clock, seed=1)
    return network, PerfRegistry()


def unit_work(network, perf, calls):
    """A unit's compute: moves the clock, a traffic counter and perf."""
    def compute():
        calls.append("compute")
        network.clock.advance(60.0)
        network.udp_queries_sent += 5
        perf.count("probes_sent", 5)
        return {"rows": [1, 2, 3]}
    return compute


# The protocol, stated once: (how the scope is reached, commit key the
# unit must land under, crash point it must offer).  The toy payloads
# commit under a kind FORMATS does not declare, so no type is checked.
ENTRIES = [
    (lambda run: run, ("unit", 0), "unit:0"),
    (lambda run: run.scope("campaign"), ("campaign", "unit", 0),
     "unit:campaign/0"),
    (lambda run: run.scope("pipeline", "Alexa"),
     ("pipeline", "Alexa", "unit", 0), "unit:pipeline/Alexa/0"),
]


@pytest.mark.parametrize("enter, commit_key, crash_point", ENTRIES)
class TestUnitProtocol:
    def test_fresh_unit_computes_commits_then_offers_the_crash(
            self, tmp_path, enter, commit_key, crash_point):
        plan = FaultPlan(FaultProfile(crash_points=(crash_point,)), seed=3)
        run = open_run(tmp_path, fault_plan=plan)
        network, perf = traced_world()
        calls = []
        commit, maybe_crash = run.commit, run.maybe_crash
        # Shadowed on the instance, as the e2e benchmark's recorder
        # does: the protocol must reach both through it.
        run.commit = lambda *a, **k: (calls.append("commit"),
                                      commit(*a, **k))[1]
        run.maybe_crash = lambda *a, **k: (calls.append("crash"),
                                           maybe_crash(*a, **k))[1]
        with pytest.raises(InjectedCrash) as crash:
            enter(run).unit("unit", (0,), unit_work(network, perf, calls),
                            network, perf,
                            extra_state=lambda: {"churn_digest": "abc"})
        assert crash.value.point == crash_point
        assert calls == ["compute", "commit", "crash"]
        record = run.restore(commit_key)
        assert record["payload"] == {"rows": [1, 2, 3]}
        state = record["state"]
        assert state["churn_digest"] == "abc"
        assert state["clock"] == 60.0
        assert state["net_counters"]["udp_queries_sent"] == 5
        assert state["perf"]["counters"] == {"probes_sent": 5}
        # No marker for a unit that really ran.
        assert network.tracer.spans == []

    def test_committed_unit_is_restored_not_computed(
            self, tmp_path, enter, commit_key, crash_point):
        run = open_run(tmp_path)
        network, perf = traced_world()
        enter(run).unit("unit", (0,), unit_work(network, perf, []),
                        network, perf,
                        extra_state=lambda: {"churn_digest": "abc"})
        run.close()

        resumed = open_run(tmp_path, resume=True)
        network, perf = traced_world()
        calls, seen = [], []

        def on_restore(payload, state):
            # Runs before the world is reinstated: a fast-forward step
            # must see the clock the unit started from.
            seen.append((payload, state["churn_digest"],
                         network.clock.now))

        payload = enter(resumed).unit(
            "unit", (0,), unit_work(network, perf, calls), network, perf,
            on_restore=on_restore, week=0)
        assert calls == []
        assert payload == {"rows": [1, 2, 3]}
        assert seen == [({"rows": [1, 2, 3]}, "abc", 0.0)]
        assert network.clock.now == 60.0
        assert network.udp_queries_sent == 5
        assert perf.counter("probes_sent") == 5
        assert [(s["stage"], s["attrs"]) for s in network.tracer.spans] \
            == [("unit", {"week": 0, "restored": True})]
        assert resumed.provenance["units_restored"] == 1

    def test_failed_compute_commits_nothing(
            self, tmp_path, enter, commit_key, crash_point):
        run = open_run(tmp_path)
        network, perf = traced_world()

        def compute():
            raise RuntimeError("scan failed")

        with pytest.raises(RuntimeError):
            enter(run).unit("unit", (0,), compute, network, perf)
        assert not run.completed(commit_key)
        assert run.provenance["units_committed"] == 0


class TestNullScope:
    def test_unit_is_compute_only(self):
        network, perf = traced_world()
        calls = []
        scope = NULL_SCOPE.scope("campaign").scope("week", 3)
        assert scope is NULL_SCOPE
        payload = scope.unit(
            "week", (0,), unit_work(network, perf, calls), network, perf,
            extra_state=lambda: calls.append("extra_state"),
            on_restore=lambda *a: calls.append("on_restore"), week=0)
        assert payload == {"rows": [1, 2, 3]}
        assert calls == ["compute"]
        assert network.tracer.spans == []

    def test_shard_unit_calls_are_inert(self):
        assert NULL_SCOPE.restore(("shard", 0, 0, 8)) is None
        assert NULL_SCOPE.commit(("shard", 0, 0, 8), "payload") is None
        assert NULL_SCOPE.maybe_crash("shard", (0,)) is None
        assert NULL_SCOPE.note("resumed_from_week", 0) is None


class TestCrashPlane:
    def test_forced_crash_fires_once_across_resume(self, tmp_path):
        plan = FaultPlan(FaultProfile(crash_points=("week:1",)), seed=3)
        run = open_run(tmp_path, fault_plan=plan)
        run.maybe_crash("week", (0,))  # different point: no crash
        with pytest.raises(InjectedCrash) as crash:
            run.maybe_crash("week", (1,))
        assert crash.value.point == "week:1"
        run.close()
        # The occurrence was journaled: the resumed run proceeds.
        resumed = open_run(tmp_path, resume=True, fault_plan=plan)
        resumed.maybe_crash("week", (1,))
        assert resumed.provenance["crashes_injected"] == 1

    def test_scoped_crash_point_uses_prefixed_canon(self, tmp_path):
        plan = FaultPlan(
            FaultProfile(crash_points=("shard:week/2/scan/1",)), seed=3)
        run = open_run(tmp_path, fault_plan=plan)
        scope = run.scope("week", 2, "scan")
        with pytest.raises(InjectedCrash):
            scope.maybe_crash("shard", (1,))

    def test_forced_torn_write_then_resume_commits(self, tmp_path):
        plan = FaultPlan(FaultProfile(torn_points=(1,)), seed=3)
        run = open_run(tmp_path, fault_plan=plan)
        run.commit(("week", 0), "w0")
        with pytest.raises(InjectedCrash) as crash:
            run.commit(("week", 1), "w1")
        assert crash.value.kind == "torn_write"
        run.close()
        resumed = open_run(tmp_path, resume=True, fault_plan=plan)
        # The torn record was quarantined: week 1 is not committed...
        assert resumed.completed(("week", 0))
        assert not resumed.completed(("week", 1))
        assert resumed.provenance["journal_records_quarantined"] == 1
        # ...and the torn-write draw has moved on (epoch advanced), so
        # recommitting the unit lands durably this time.
        resumed.commit(("week", 1), "w1")
        resumed.close()
        final = open_run(tmp_path, resume=True, fault_plan=plan)
        assert final.completed(("week", 1))


class TestProvenance:
    def test_provenance_counts_and_notes(self, tmp_path):
        run = open_run(tmp_path)
        run.commit(("unit", 0), "x")
        run.note("resumed_from_week", 0)
        run.note("resumed_from_week", 5)  # first write wins
        provenance = run.provenance
        assert provenance["resumed"] is False
        assert provenance["units_committed"] == 1
        assert provenance["resumed_from_week"] == 0
        run.close()
        resumed = open_run(tmp_path, resume=True)
        resumed.restore(("unit", 0))
        provenance = resumed.provenance
        assert provenance["resumed"] is True
        assert provenance["journal_records_replayed"] == 1
        assert provenance["units_restored"] == 1

    def test_write_provenance_is_valid_json(self, tmp_path):
        import json
        run = open_run(tmp_path)
        run.commit(("unit", 0), "x")
        path = run.write_provenance()
        with open(path) as handle:
            data = json.load(handle)
        assert data["units_committed"] == 1
