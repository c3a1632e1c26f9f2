"""Ingest: incremental, idempotent, crash-resume indistinguishable."""

import os
import pickle

import pytest

from repro.checkpoint import (CheckpointedRun, Journal, SnapshotStore,
                              scan_journal)
from repro.checkpoint.feed import CheckpointFeed
from repro.faults import FaultPlan, FaultProfile, InjectedCrash
from repro.observatory import ResolverStore, ingest_checkpoint
from repro.obs import Tracer
from repro.perf import PerfRegistry

from tests.observatory.conftest import (
    WEEKS,
    FakeGeo,
    build_world,
    make_campaign,
    run_checkpointed_campaign,
)


def ingest_fresh(directory, tmp_path, name="store", **kwargs):
    store = ResolverStore(str(tmp_path / name))
    report = ingest_checkpoint(store, str(directory), **kwargs)
    return store, report


class TestFolding:
    def test_every_week_folds_once(self, campaign_checkpoint, tmp_path):
        directory, __, campaign = campaign_checkpoint
        store, report = ingest_fresh(directory, tmp_path)
        assert report.weeks_folded == list(range(WEEKS))
        assert report.units_folded == WEEKS
        assert store.weeks() == list(range(WEEKS))
        for snapshot in campaign.snapshots:
            week = store.week(snapshot.week)
            assert week.responders == snapshot.result.responders
            assert week.probes_sent == snapshot.result.probes_sent

    def test_stored_weeks_are_the_committed_results(
            self, campaign_checkpoint, tmp_path):
        # One spelling of a week: after a save and a cold open, each
        # stored week pickles to the bytes of the result the campaign
        # committed.
        directory, __, campaign = campaign_checkpoint
        ingest_fresh(directory, tmp_path)
        reopened = ResolverStore.open(str(tmp_path / "store"))
        assert not reopened._weeks
        for snapshot in campaign.snapshots:
            assert pickle.dumps(reopened.week(snapshot.week)) \
                == pickle.dumps(snapshot.result)

    def test_store_digest_is_pinned(self, campaign_checkpoint, tmp_path):
        # The digest covers what the store asserts, not how a week is
        # laid out on disk: format 1 (a re-bucketed week) gave these
        # same values, and no format change may move them.
        directory, __, __ = campaign_checkpoint
        bare, __ = ingest_fresh(directory, tmp_path, "bare")
        located, __ = ingest_fresh(directory, tmp_path, "located",
                                   geo=FakeGeo())
        assert (bare.digest(), located.digest()) \
            == ("f319a2f5", "0a76c0ce")

    def test_geo_enrichment_labels_every_responder(
            self, campaign_checkpoint, tmp_path):
        directory, __, campaign = campaign_checkpoint
        store, __ = ingest_fresh(directory, tmp_path, geo=FakeGeo())
        geo = FakeGeo()
        for ip in campaign.snapshots[0].result.responders:
            record = store.record(ip)
            country, rir, asn = geo.locate(ip)
            assert (record["country"], record["rir"],
                    record["asn"]) == (country, rir, asn)

    def test_perf_and_tracer_instrumented(self, campaign_checkpoint,
                                          tmp_path):
        directory, __, __ = campaign_checkpoint
        perf, tracer = PerfRegistry(), Tracer(seed=1)
        __, report = ingest_fresh(directory, tmp_path, perf=perf,
                                  tracer=tracer)
        assert perf.counter("observatory_units_folded") \
            == report.units_folded
        assert perf.gauge_value("observatory_ingest_lag_records") >= 0
        assert perf.seconds("observatory_ingest") > 0
        spans = [span for span in tracer.spans
                 if span["stage"] == "observatory_ingest"]
        assert len(spans) == 1 and spans[0]["status"] == "ok"


def rewrite_as_parent(directory):
    """Turn a checkpoint directory into what an older version wrote:
    each commit record carries its world state inline, and no state
    snapshot exists."""
    journal_path = os.path.join(str(directory), "journal.wal")
    store = SnapshotStore(os.path.join(str(directory), "snapshots"))
    records = [record for __, record in scan_journal(journal_path)]
    os.remove(journal_path)
    journal = Journal(journal_path)
    for record in records:
        if record["kind"] == "commit":
            state_key = tuple(record["key"]) + ("state",)
            record["state"] = None
            if record.pop("state_snapshot"):
                record["state"] = store.load(state_key)
                os.remove(store.path_for(state_key))
        journal.append(record)
    journal.close()


class TestParentWrittenDirectory:
    def test_parent_format_journal_still_resumes(self, tmp_path):
        # Three weeks restored from inline state, then a fourth scanned
        # from the world they reinstate: equal to one clean run.
        run_checkpointed_campaign(tmp_path / "ckpt")
        rewrite_as_parent(tmp_path / "ckpt")
        campaign = make_campaign(build_world())
        checkpoint = CheckpointedRun(str(tmp_path / "ckpt"), resume=True)
        campaign.run(WEEKS + 1, checkpoint=checkpoint)
        checkpoint.close()
        assert checkpoint.provenance["units_restored"] == WEEKS
        clean = make_campaign(build_world())
        clean.run(WEEKS + 1)
        assert [pickle.dumps(snapshot) for snapshot in campaign.snapshots] \
            == [pickle.dumps(snapshot) for snapshot in clean.snapshots]


class TestIdempotence:
    def test_noop_ingest_loads_no_snapshot(self, campaign_checkpoint,
                                           tmp_path, monkeypatch):
        directory, __, __ = campaign_checkpoint
        store, __ = ingest_fresh(directory, tmp_path)
        loads = []
        real_load = CheckpointFeed.load
        monkeypatch.setattr(CheckpointFeed, "load", lambda feed, key: (
            loads.append(key), real_load(feed, key))[1])
        again = ingest_checkpoint(store, str(directory))
        assert not again.changed() and again.lag_records == 0
        assert loads == []

    def test_reingesting_the_same_journal_is_a_noop(
            self, campaign_checkpoint, tmp_path):
        directory, __, __ = campaign_checkpoint
        store, first = ingest_fresh(directory, tmp_path)
        digest = store.digest()
        generation = store.generation
        again = ingest_checkpoint(store, str(directory))
        assert not again.changed()
        assert again.units_seen == 0          # cursor skipped the span
        assert store.digest() == digest
        assert store.generation == generation  # no new generation

    def test_replayed_span_is_recognized_by_the_ledger(
            self, campaign_checkpoint, tmp_path):
        # Losing the cursor (as a journal replayed from scratch would)
        # must not double-fold: the per-unit digest ledger catches it.
        directory, __, __ = campaign_checkpoint
        store, __ = ingest_fresh(directory, tmp_path)
        digest = store.digest()
        store.cursors.clear()
        again = ingest_checkpoint(store, str(directory))
        assert again.units_skipped == WEEKS
        assert again.units_folded == 0
        assert store.digest() == digest

    def test_reopened_store_still_knows_what_it_ingested(
            self, campaign_checkpoint, tmp_path):
        directory, __, __ = campaign_checkpoint
        store, __ = ingest_fresh(directory, tmp_path)
        reopened = ResolverStore.open(str(tmp_path / "store"))
        again = ingest_checkpoint(reopened, str(directory))
        assert not again.changed()
        assert reopened.digest() == store.digest()


class TestCrashResumeEquality:
    def test_store_from_resumed_campaign_equals_uninterrupted(
            self, tmp_path):
        # Uninterrupted run.
        clean_dir = tmp_path / "clean-ckpt"
        run_checkpointed_campaign(clean_dir)
        clean_store, __ = ingest_fresh(clean_dir, tmp_path, "clean",
                                       geo=FakeGeo())
        # Crashed-at-week-1, resumed-to-completion run: same world
        # builder, fresh incarnation per restart.
        crash_dir = str(tmp_path / "crash-ckpt")
        plan = FaultPlan(FaultProfile(crash_points=("week:1",)), seed=3)
        world = build_world()
        campaign = make_campaign(world)
        checkpoint = CheckpointedRun(crash_dir, meta={"weeks": WEEKS},
                                     fault_plan=plan)
        with pytest.raises(InjectedCrash):
            campaign.run(WEEKS, checkpoint=checkpoint)
        checkpoint.close()
        world = build_world()
        campaign = make_campaign(world)
        checkpoint = CheckpointedRun(crash_dir, meta={"weeks": WEEKS},
                                     resume=True)
        campaign.run(WEEKS, checkpoint=checkpoint)
        checkpoint.close()
        resumed_store, __ = ingest_fresh(crash_dir, tmp_path, "resumed",
                                         geo=FakeGeo())
        assert resumed_store.digest() == clean_store.digest()
        assert resumed_store.weeks() == clean_store.weeks()

    def test_ingest_of_partial_run_then_rest_matches_one_shot(
            self, tmp_path):
        # Tail a crashed (incomplete) run, then re-tail after resume:
        # the two-pass store equals a single ingest of the whole run.
        crash_dir = str(tmp_path / "ckpt")
        plan = FaultPlan(FaultProfile(crash_points=("week:1",)), seed=3)
        world = build_world()
        campaign = make_campaign(world)
        checkpoint = CheckpointedRun(crash_dir, meta={"weeks": WEEKS},
                                     fault_plan=plan)
        with pytest.raises(InjectedCrash):
            campaign.run(WEEKS, checkpoint=checkpoint)
        checkpoint.close()
        tailing = ResolverStore(str(tmp_path / "tailing"))
        early = ingest_checkpoint(tailing, crash_dir, geo=FakeGeo())
        assert early.changed()                # week 0 landed pre-crash
        world = build_world()
        campaign = make_campaign(world)
        checkpoint = CheckpointedRun(crash_dir, meta={"weeks": WEEKS},
                                     resume=True)
        campaign.run(WEEKS, checkpoint=checkpoint)
        checkpoint.close()
        ingest_checkpoint(tailing, crash_dir, geo=FakeGeo())
        oneshot, __ = ingest_fresh(crash_dir, tmp_path, "oneshot",
                                   geo=FakeGeo())
        assert tailing.digest() == oneshot.digest()


# -- label units (fingerprint / pipeline), hand-committed -----------------

class FakeChaosObservation:
    def __init__(self, ip, outcome, version):
        self.resolver_ip = ip
        self.outcome = outcome
        self.version_string = version


class FakeCapture:
    def __init__(self, ip):
        self.resolver_ip = ip


class FakeLabeled:
    def __init__(self, ip, label, sublabel):
        self.capture = FakeCapture(ip)
        self.label = label
        self.sublabel = sublabel


class TestLabelUnits:
    def commit_labels(self, directory):
        checkpoint = CheckpointedRun(str(directory),
                                     meta={"command": "fullstudy"})
        checkpoint.commit(
            ("campaign", "study", "fingerprint"),
            {"software": [FakeChaosObservation("10.0.0.1", "bind",
                                               "9.8.1")],
             "classifications": {"10.0.0.2": ("router", "linux",
                                              "netgear")}})
        checkpoint.commit(
            ("pipeline", "Banking", "stage", "labeling"),
            {"labeled": [FakeLabeled("10.0.0.1", "MALICIOUS",
                                     "phishing")],
             "diff_clusters": [], "degraded": []})
        checkpoint.close()

    def test_fingerprints_and_verdicts_fold(self, tmp_path):
        self.commit_labels(tmp_path / "ckpt")
        store = ResolverStore()
        report = ingest_checkpoint(store, str(tmp_path / "ckpt"),
                                   save=False)
        assert report.fingerprints == 2 and report.verdicts == 1
        one = store.record("10.0.0.1")
        assert one["software"] == {"outcome": "bind",
                                  "version": "9.8.1"}
        assert one["verdict"] == "MANIPULATING"
        assert one["labels"] == ["MALICIOUS/phishing"]
        two = store.record("10.0.0.2")
        assert two["device"] == {"hardware": "router", "os": "linux",
                                 "vendor": "netgear"}
        assert two["verdict"] == "CLEAN"

    def test_label_units_are_idempotent_too(self, tmp_path):
        self.commit_labels(tmp_path / "ckpt")
        store = ResolverStore()
        ingest_checkpoint(store, str(tmp_path / "ckpt"), save=False)
        digest = store.digest()
        store.cursors.clear()
        again = ingest_checkpoint(store, str(tmp_path / "ckpt"),
                                  save=False)
        assert again.units_folded == 0 and again.units_skipped == 2
        assert store.digest() == digest
