"""Corruption drills: every format fixture file damaged three ways, and
the ill-typed files that once ended in a traceback.

Each case ends in a quarantine or a rerun by the owner (a resumed
:class:`CheckpointedRun`), a skip by an observer (``observe ingest``),
or one ``error:`` line naming the file, with exit 2 — never a traceback.
Every case damages a copy; the fixtures stay as written.
"""

import functools
import json
import os
import shutil

import pytest

from repro.checkpoint import (
    CheckpointedRun,
    CheckpointError,
    Journal,
    encode_snapshot,
    key_filename,
    scan_journal,
)
from repro.faults import CRASH_EXIT_CODE
from repro.observatory import ResolverStore
from repro.scanner.campaign import WeeklySnapshot
from tests.checkpoint.test_formats import (
    COMMANDS,
    INGESTED,
    ON_RECORD,
    copy_fixture,
    error_line,
    fixture,
    fixture_files,
    run_cli,
    uninterrupted,
)


def bit_flip(data):
    middle = len(data) // 2
    return data[:middle] + bytes([data[middle] ^ 0x10]) + data[middle + 1:]


DAMAGE = {
    "bit-flip": bit_flip,
    "truncate": lambda data: data[:len(data) // 2],
    "duplicate": lambda data: data + data,
}


def damaged_copy(tmp_path, path, damage):
    """Copy the fixture holding ``path`` (a checkpoint directory, a
    store or a trace); damage the copy's ``path``.  Returns the copy's
    root and the damaged file."""
    parts = path.split("/")
    root = copy_fixture(tmp_path, *parts[:2])
    target = os.path.join(root, *parts[2:])
    with open(target, "rb") as handle:
        data = handle.read()
    with open(target, "wb") as handle:
        handle.write(DAMAGE[damage](data))
    return root, target


@functools.lru_cache(maxsize=None)
def written(commit_run):
    """The meta a checkpoint fixture was written under, and the keys it
    committed."""
    source = fixture(*commit_run)
    with open(os.path.join(source, "meta.json")) as handle:
        meta = json.load(handle)
    return meta, [record["key"] for __, record
                  in scan_journal(os.path.join(source, "journal.wal"))
                  if record["kind"] == "commit"]


def owner_error(directory, commit_run):
    """Resume ``directory`` as its owner does (with the meta it was
    written under) and restore every unit it committed: the error
    message, or ``None`` when damage was quarantined or never read."""
    meta, keys = written(commit_run)
    try:
        run = CheckpointedRun(directory, meta=meta, resume=True)
    except CheckpointError as error:
        return str(error)
    for key in keys:
        run.restore(key)
    run.close()
    return None


def assert_skipped_or_refused(code, err, path):
    """Exit 0, or exit 2 with one ``error:`` line naming ``path``."""
    if code != 0:
        assert code == 2
        assert path in error_line(err), err


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("path", fixture_files())
def test_damage_ends_in_quarantine_skip_or_one_line(tmp_path, path,
                                                    damage):
    commit, what = path.split("/")[:2]
    if what in ("campaign", "fullstudy"):
        owned, target = damaged_copy(tmp_path / "owner", path, damage)
        message = owner_error(owned, (commit, what))
        assert message is None or (target in message
                                   and "\n" not in message), message
        observed, target = damaged_copy(tmp_path / "observer", path,
                                        damage)
        code, __, err = run_cli("observe", "ingest", "--from", observed,
                                "--store-dir", tmp_path / "store",
                                "--no-geo")
        assert_skipped_or_refused(code, err, target)
    elif what == "store":
        store, target = damaged_copy(tmp_path, path, damage)
        for query in ("stats", "survival"):
            code, __, err = run_cli("observe", query, "--store-dir", store)
            assert_skipped_or_refused(code, err, target)
    else:
        __, target = damaged_copy(tmp_path, path, damage)
        for flags in ((), ("--validate-only",)):
            code, __, err = run_cli("trace", target, *flags)
            if code != 0:
                assert code == 2 and err.count("\n") == 1, err
                assert err.startswith("invalid trace: %s: " % target), err


# -- the ill-typed files ------------------------------------------------------

def campaign_copy(tmp_path, commit="509f09e"):
    return copy_fixture(tmp_path, commit, "campaign")


def write(path, data):
    with open(path, "wb") as handle:
        handle.write(data)


def test_meta_holding_a_list(tmp_path):
    directory = campaign_copy(tmp_path)
    meta = os.path.join(directory, "meta.json")
    write(meta, b"[1, 2]\n")
    store = tmp_path / "store"
    for argv in (COMMANDS["campaign"] + ("--checkpoint-dir", directory,
                                         "--resume"),
                 ("observe", "ingest", "--from", directory,
                  "--store-dir", store, "--no-geo"),
                 ("observe", "serve", "--from", directory,
                  "--store-dir", store, "--no-geo",
                  "--listen", "127.0.0.1:0")):
        code, __, err = run_cli(*argv)
        assert code == 2
        assert error_line(err) == ("error: %s: holds a JSON list, not an "
                                   "object" % meta)


@pytest.mark.parametrize("manifest", [
    b"[]\n",
    json.dumps({"format": 2, "weeks": {}, "cursors": {}}).encode(),
])
def test_manifest_of_the_wrong_shape(tmp_path, manifest):
    store = copy_fixture(tmp_path, "509f09e", "store")
    path = os.path.join(store, "MANIFEST.json")
    write(path, manifest)
    code, __, err = run_cli("observe", "stats", "--store-dir", store)
    assert code == 2 and path in error_line(err)


def test_journal_record_that_is_not_a_dict(tmp_path):
    directory = campaign_copy(tmp_path)
    journal = Journal(os.path.join(directory, "journal.wal"))
    journal.append([1, 2])          # intact frame, intact CRC
    journal.close()
    code, __, err = run_cli("observe", "ingest", "--from", directory,
                            "--store-dir", tmp_path / "store", "--no-geo")
    assert code == 0, err           # the observer skips it...
    assert ResolverStore.open(str(tmp_path / "store")).digest() \
        == INGESTED["campaign"]
    assert owner_error(directory, ("509f09e", "campaign")) is None
    assert os.listdir(os.path.join(directory, ".quarantine")) \
        == ["0000.unreadable.rec"]  # ...the owner sets it aside


def test_week_snapshot_holding_a_dict(tmp_path):
    directory = campaign_copy(tmp_path)
    path = os.path.join(directory, "snapshots", key_filename(("week", 1)))
    write(path, encode_snapshot({"week": 1}))
    for command in ("ingest", "serve"):
        code, __, err = run_cli("observe", command, "--from", directory,
                                "--store-dir", tmp_path / "store",
                                "--no-geo", *(("--listen", "127.0.0.1:0")
                                             if command == "serve" else ()))
        assert code == 2
        assert error_line(err) == (
            "error: %s: holds a builtins.dict, not a "
            "repro.scanner.campaign.WeeklySnapshot" % path)
    # The owner quarantines it and scans week 1 again.
    code, out, err = run_cli(*COMMANDS["campaign"], "--checkpoint-dir",
                             directory, "--resume")
    if ON_RECORD or code == 0:
        assert (code, out) == (0, uninterrupted("campaign"))
        assert os.listdir(os.path.join(directory, ".quarantine")) \
            == ["0000.corrupt.snap"]
    else:
        assert code == 2 and "resume diverged" in error_line(err)


@pytest.mark.parametrize("key, payload", [
    (("study", "fingerprint"), {"traces": []}),
    (("campaign", "week", 1), None),
])
def test_payload_of_the_declared_type_missing_what_ingest_reads(
        tmp_path, key, payload):
    directory = copy_fixture(tmp_path, "509f09e", "fullstudy")
    path = os.path.join(directory, "snapshots", key_filename(key))
    if payload is None:
        payload = WeeklySnapshot(1, None)
    write(path, encode_snapshot(payload))
    code, __, err = run_cli("observe", "ingest", "--from", directory,
                            "--store-dir", tmp_path / "store", "--no-geo")
    assert code == 2
    assert error_line(err).startswith(
        "error: %s: not a %s payload this program reads (" % (path, key[-2]))
    assert not os.path.exists(str(tmp_path / "store" / "MANIFEST.json"))


@pytest.mark.parametrize("key, payload", [
    (("study", "fingerprint"), {"traces": []}),
    (("study", "snoop"), {"software": []}),
])
def test_payload_of_the_declared_type_missing_what_resume_reads(
        tmp_path, key, payload):
    # The owner's resume reads a restored unit through the same check
    # as ingest: one error line naming the file, not a KeyError.
    directory = copy_fixture(tmp_path, "509f09e", "fullstudy")
    path = os.path.join(directory, "snapshots", key_filename(key))
    write(path, encode_snapshot(payload))
    code, out, err = run_cli(*COMMANDS["fullstudy"], "--checkpoint-dir",
                             directory, "--resume")
    assert code == 2 and out == ""
    if ON_RECORD or "resume diverged" not in err:
        assert error_line(err).startswith(
            "error: %s: not a study payload this program reads (" % path)


def test_trace_line_that_is_a_list(tmp_path):
    trace = copy_fixture(tmp_path, "509f09e", "trace.jsonl")
    with open(trace) as handle:
        lines = handle.readlines()
    with open(trace, "a") as handle:
        handle.write("[1, 2]\n")
    code, __, err = run_cli("trace", trace)
    assert code == 2
    assert err == "invalid trace: %s: line %d is not a JSON object\n" % (
        trace, len(lines) + 1)


# -- pipeline stages and crash points -----------------------------------------

STUDY = ("fullstudy", "--scale", "100000", "--seed", "7", "--weeks", "1",
         "--snoop-sample", "5")
STAGE_POINT = "stage:pipeline/Ads/prefilter"


@pytest.fixture(scope="module")
def crashed_at_stage(tmp_path_factory):
    """A fullstudy killed right after committing the Ads set's
    prefilter stage; tests copy the directory."""
    root = tmp_path_factory.mktemp("stage-crash")
    directory = str(root / "ckpt")
    code, __, err = run_cli(*STUDY, "--faults", "none,crash=" + STAGE_POINT,
                            "--checkpoint-dir", directory,
                            "--out", root / "report.md")
    return code, err, directory


def stage_copy(tmp_path, crashed):
    directory = str(tmp_path / "ckpt")
    shutil.copytree(crashed[2], directory)
    return directory


def test_crash_point_naming_no_boundary_ends_the_run(tmp_path):
    # A stage's point is stage:pipeline/<Set>/<stage>: this names none.
    code, __, err = run_cli(*STUDY, "--faults", "none,crash=stage:prefilter",
                            "--checkpoint-dir", tmp_path / "ckpt")
    assert code == 2
    line = error_line(err)
    assert "crash=stage:prefilter" in line
    assert "stage:pipeline/<Set>/<stage>" in line


def test_stage_crash_point_fires_and_resumes_to_the_same_report(
        tmp_path, crashed_at_stage):
    code, err, __ = crashed_at_stage
    assert code == CRASH_EXIT_CODE
    assert "injected stage crash at %s" % STAGE_POINT in err
    directory = stage_copy(tmp_path, crashed_at_stage)
    resumed = tmp_path / "resumed.md"
    code, __, err = run_cli(*STUDY, "--faults", "none,crash=" + STAGE_POINT,
                            "--checkpoint-dir", directory, "--resume",
                            "--out", resumed)
    assert code == 0, err
    plain = tmp_path / "plain.md"
    assert run_cli(*STUDY, "--faults", "none", "--out", plain)[0] == 0
    assert resumed.read_bytes() == plain.read_bytes()


def test_stage_payload_missing_what_resume_reads(tmp_path,
                                                 crashed_at_stage):
    # replay and install read the restored stage through the same
    # check as the study units: one error line naming the file.
    directory = stage_copy(tmp_path, crashed_at_stage)
    path = os.path.join(directory, "snapshots", key_filename(
        ("pipeline", "Ads", "stage", "prefilter")))
    write(path, encode_snapshot({"prefilter": None}))
    code, out, err = run_cli(*STUDY, "--faults", "none,crash=" + STAGE_POINT,
                             "--checkpoint-dir", directory, "--resume")
    assert code == 2 and out == ""
    assert error_line(err).startswith(
        "error: %s: not a stage payload this program reads (" % path)
