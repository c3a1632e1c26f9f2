"""The on-disk formats: one declaration, committed fixtures, one reader
per file.

The fixtures under ``tests/fixtures/formats/<commit>/`` were written by
the program at that commit (their README gives the commands).  Every
test copies what it reads to ``tmp_path`` first; none writes to them.
"""

import functools
import hashlib
import importlib
import io
import json
import os
import pickletools
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro.checkpoint import (
    CheckpointedRun,
    CheckpointFeed,
    Journal,
    scan_journal,
)
from repro.checkpoint.formats import FORMATS, payload_kind
from repro.checkpoint.journal import walk_frames
from repro.cli import main
from repro.observatory import ResolverStore

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "fixtures", "formats")
COMMITS = ("509f09e", "84d676a")
RUNS = ("campaign", "fullstudy")

# The commands that wrote the checkpoint fixtures, less the checkpoint
# flags.  Run without them, they are the uninterrupted runs.
COMMANDS = {
    "campaign": ("campaign", "--scale", "100000", "--seed", "7",
                 "--weeks", "3", "--delta", "--shards", "2",
                 "--faults", "none,crash=week:1"),
    "fullstudy": ("fullstudy", "--scale", "100000", "--seed", "7",
                  "--weeks", "2", "--snoop-sample", "5",
                  "--faults", "none,crash=study:snoop"),
}

# ``ResolverStore.digest()`` of a ``--no-geo`` ingest of each fixture:
# the same on every interpreter (the stored weeks are the committed
# results), and the committed 509f09e store holds the campaign's.
INGESTED = {"campaign": "a8ff1b4b", "fullstudy": "63933f86"}

# sha256 over every fixture file's path and bytes (README.md aside).
FIXTURE_DIGEST = "271e39948d4fd484"

# The world draws scale by float sums, which differ between CPython
# minor versions: the digests and outputs on record are 3.11's.
ON_RECORD = (sys.implementation.name == "cpython"
             and sys.version_info[:2] == (3, 11))


def fixture(*parts):
    return os.path.join(FIXTURES, *parts)


def copy_fixture(tmp_path, *parts):
    """A copy of one fixture file or directory, under ``tmp_path``."""
    source = fixture(*parts)
    target = os.path.join(str(tmp_path), "copy", *parts)
    os.makedirs(os.path.dirname(target), exist_ok=True)
    if os.path.isdir(source):
        shutil.copytree(source, target)
    else:
        shutil.copyfile(source, target)
    return target


def fixture_files():
    """Every fixture file, as a path relative to the fixture root."""
    found = []
    for directory, dirs, files in os.walk(FIXTURES):
        dirs.sort()
        for name in sorted(files):
            path = os.path.relpath(os.path.join(directory, name), FIXTURES)
            if path != "README.md":
                found.append(path)
    return found


def run_cli(*argv):
    """``repro.cli.main(argv)``: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def error_line(err):
    """The one ``error:`` line a refused command printed, last."""
    lines = err.strip().splitlines()
    errors = [line for line in lines if line.startswith("error: ")]
    assert errors == lines[-1:] and "Traceback" not in err, err
    return errors[0]


@functools.lru_cache(maxsize=None)
def uninterrupted(run):
    code, out, __ = run_cli(*COMMANDS[run])
    assert code == 0
    return out


def hashes(directory):
    """sha256 of every file under ``directory``, by relative path."""
    found = {}
    for root, __, files in os.walk(directory):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, directory)] = \
                    hashlib.sha256(handle.read()).hexdigest()
    return found


# -- the declaration ----------------------------------------------------------

def resolve(dotted):
    """The object a dotted ``module.attr...`` name denotes."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            target = getattr(target, part)
        return target
    raise ImportError(dotted)


def declared_classes():
    for entry in FORMATS.values():
        yield from entry.get("classes", ())
        for type_name, classes in entry.get("payloads", {}).values():
            yield type_name
            yield from classes
        if "payload" in entry:
            yield entry["payload"][0]
            yield from entry["payload"][1]


class TestDeclaration:
    def test_every_writer_reader_and_class_resolves(self):
        names = list(declared_classes())
        for entry in FORMATS.values():
            names.append(entry["writer"])
            if entry["reader"] is not None:
                names.append(entry["reader"])
        for name in names:
            assert resolve(name) is not None, name

    def test_every_version_still_read_has_its_fixture(self):
        for name, entry in FORMATS.items():
            assert set(entry["fixtures"]) == set(entry["reads"]), name
            if entry["reader"] is not None:
                assert entry["version"] in entry["reads"], name
            for paths in entry["fixtures"].values():
                for path in paths:
                    assert os.path.exists(fixture(path)), path

    def test_fixtures_are_small_and_stay_as_written(self):
        digest = hashlib.sha256()
        total = 0
        for path in fixture_files():
            with open(fixture(path), "rb") as handle:
                data = handle.read()
            total += len(data)
            digest.update(path.encode("utf-8") + b"\0" + data)
        assert total <= 1 << 20
        assert digest.hexdigest()[:16] == FIXTURE_DIGEST


# -- the pickled-class guard --------------------------------------------------

_STRING_OPS = ("SHORT_BINUNICODE", "BINUNICODE", "BINUNICODE8",
               "UNICODE")


def pickled_classes(data):
    """Every ``module.name`` a pickle refers to, read with
    :mod:`pickletools` — nothing is imported or built."""
    memo, pushed, found = [], [], set()
    last = None
    for opcode, arg, __ in pickletools.genops(data):
        name = opcode.name
        if name == "MEMOIZE":
            memo.append(last)
            continue
        last = None
        if name in _STRING_OPS:
            last = arg
        elif name in ("BINGET", "LONG_BINGET"):
            last = memo[arg]
        elif name == "GLOBAL":
            found.add(arg.replace(" ", "."))
        elif name == "STACK_GLOBAL":
            found.add("%s.%s" % (pushed[-2], pushed[-1]))
        pushed.append(last)
    return found


def class_problems(where, data, allowed):
    """Why the pickle ``data`` would not load as ``FORMATS`` says: a
    class it names that is not allowed, or no longer imports."""
    problems = []
    for name in sorted(pickled_classes(data)):
        if name not in allowed:
            problems.append("%s pickles %s, which FORMATS does not allow"
                            % (where, name))
            continue
        try:
            resolve(name)
        except (ImportError, AttributeError):
            problems.append("%s pickles %s, which no longer imports: "
                            "move it back, or bump the format and add a "
                            "fixture" % (where, name))
    return problems


@pytest.mark.parametrize("commit", COMMITS)
@pytest.mark.parametrize("run", RUNS)
def test_checkpoint_pickles_name_only_declared_classes(commit, run):
    directory = fixture(commit, run)
    snapshots = os.path.join(directory, "snapshots")
    problems, named = [], set()
    for __, record in scan_journal(os.path.join(directory, "journal.wal")):
        if record["kind"] != "commit":
            continue
        kind = payload_kind(record["key"])
        assert kind is not None, record["key"]
        for name, what in ((record["snapshot"], kind),
                           (record["state_snapshot"], "state")):
            if name is None:
                continue
            named.add(name)
            with open(os.path.join(snapshots, name), "rb") as handle:
                problems += class_problems(
                    name, handle.read()[8:],
                    FORMATS["snapshot"]["payloads"][what][1])
    with open(os.path.join(directory, "journal.wal"), "rb") as handle:
        for start, __, raw, damage in walk_frames(handle.read(),
                                                  bytes):
            assert damage is None
            problems += class_problems(
                "journal record at %d" % start, raw,
                FORMATS["journal"]["classes"])
    assert problems == []
    assert named == set(os.listdir(snapshots))


def test_store_pickles_name_only_declared_classes():
    generation = fixture("509f09e", "store", "gen-00000001")
    problems = []
    for name in sorted(os.listdir(generation)):
        kind = "records" if name == "records.snap" else "week"
        with open(os.path.join(generation, name), "rb") as handle:
            problems += class_problems(name, handle.read()[8:],
                                       FORMATS[kind]["payload"][1])
    assert problems == []


def test_a_moved_class_is_named():
    # ``pickle.dumps`` of a ``Cls`` that lived in ``repro.gone.x``.
    data = (b"\x80\x04\x8c\x0crepro.gone.x\x94\x8c\x03Cls\x94\x93\x94"
            b")\x81\x94.")
    assert pickled_classes(data) == {"repro.gone.x.Cls"}
    [problem] = class_problems("f", data, ("repro.gone.x.Cls",))
    assert "repro.gone.x.Cls, which no longer imports" in problem


# -- old directories resume and ingest ----------------------------------------

@pytest.mark.parametrize("commit", COMMITS)
def test_campaign_fixture_resumes_to_the_uninterrupted_bytes(tmp_path,
                                                             commit):
    directory = copy_fixture(tmp_path, commit, "campaign")
    code, out, err = run_cli(*COMMANDS["campaign"], "--checkpoint-dir",
                             directory, "--resume")
    if ON_RECORD or code == 0:
        assert (code, out) == (0, uninterrupted("campaign"))
        with open(os.path.join(directory, "provenance.json")) as handle:
            provenance = json.load(handle)
        assert provenance["units_restored"] == 2    # weeks 0 and 1
    else:
        assert code == 2 and "resume diverged" in error_line(err)


@pytest.mark.parametrize("commit", COMMITS)
@pytest.mark.parametrize("run", RUNS)
def test_fixture_ingests_to_the_pinned_store(tmp_path, commit, run):
    directory = copy_fixture(tmp_path, commit, run)
    store = str(tmp_path / "store")
    code, __, err = run_cli("observe", "ingest", "--from", directory,
                            "--store-dir", store, "--no-geo")
    assert code == 0, err
    assert ResolverStore.open(store).digest() == INGESTED[run]


def test_committed_store_answers_as_a_fresh_ingest(tmp_path):
    committed = copy_fixture(tmp_path, "509f09e", "store")
    assert ResolverStore.open(committed).digest() == INGESTED["campaign"]
    fresh = str(tmp_path / "fresh")
    run_cli("observe", "ingest", "--from",
            copy_fixture(tmp_path, "509f09e", "campaign"),
            "--store-dir", fresh, "--no-geo")
    resolver = ResolverStore.open(committed).rows_where()[0]
    for query in (("survival",), ("timeline", "1.1.0.0/16"),
                  ("lookup", resolver)):
        answers = [run_cli("observe", query[0], "--store-dir", store,
                           *query[1:])[:2] for store in (committed, fresh)]
        assert answers[0] == answers[1] and answers[0][0] == 0


def test_committed_trace_validates(tmp_path):
    code, out, __ = run_cli("trace", "--validate-only",
                            copy_fixture(tmp_path, "509f09e",
                                         "trace.jsonl"))
    assert code == 0 and out.startswith("valid trace: 7 spans")


# -- meta.json's format -------------------------------------------------------

def test_meta_is_written_with_its_format_and_read_without_it(tmp_path):
    meta = {"command": "campaign", "seed": 5}
    new, old = str(tmp_path / "new"), str(tmp_path / "old")
    CheckpointedRun(new, meta=meta).close()
    with open(os.path.join(new, "meta.json")) as handle:
        assert json.load(handle) == dict(meta, format=1)
    # A directory from before the field: same identity, same cursor.
    os.makedirs(old)
    with open(os.path.join(old, "meta.json"), "w") as handle:
        json.dump(meta, handle)
    assert CheckpointFeed(new).identity() == CheckpointFeed(old).identity()
    assert CheckpointFeed(new).meta == meta
    CheckpointedRun(new, meta=meta, resume=True).close()


def future(tmp_path):
    """The 509f09e campaign as a newer program might leave it: meta.json
    says format 2, and the journal ends in a frame of a new kind."""
    directory = copy_fixture(tmp_path, "509f09e", "campaign")
    path = os.path.join(directory, "meta.json")
    with open(path) as handle:
        meta = json.load(handle)
    with open(path, "w") as handle:
        json.dump(dict(meta, format=2), handle)
    with open(os.path.join(directory, "journal.wal"), "ab") as handle:
        handle.write(b"\xc5W\x00\x00\x00\x04\x00\x00\x00\x00new!")
    return directory, path


def test_a_future_checkpoint_is_refused_before_replay(tmp_path):
    directory, meta_path = future(tmp_path)
    before = hashes(directory)
    store = str(tmp_path / "store")
    for argv in (COMMANDS["campaign"] + ("--checkpoint-dir", directory,
                                         "--resume"),
                 ("observe", "ingest", "--from", directory,
                  "--store-dir", store, "--no-geo"),
                 ("observe", "serve", "--from", directory,
                  "--store-dir", store, "--no-geo",
                  "--listen", "127.0.0.1:0")):
        code, __, err = run_cli(*argv)
        assert code == 2
        line = error_line(err)
        assert meta_path in line and "format 2" in line
    assert hashes(directory) == before


def test_a_future_store_and_trace_are_refused(tmp_path):
    store = copy_fixture(tmp_path, "509f09e", "store")
    manifest = os.path.join(store, "MANIFEST.json")
    with open(manifest) as handle:
        data = json.load(handle)
    with open(manifest, "w") as handle:
        json.dump(dict(data, format=3), handle)
    code, __, err = run_cli("observe", "stats", "--store-dir", store)
    assert code == 2 and manifest in error_line(err)
    assert "format 3" in error_line(err)

    trace = copy_fixture(tmp_path, "509f09e", "trace.jsonl")
    with open(trace) as handle:
        lines = handle.readlines()
    head = dict(json.loads(lines[0]), schema_version=2)
    with open(trace, "w") as handle:
        handle.writelines([json.dumps(head) + "\n"] + lines[1:])
    code, __, err = run_cli("trace", trace)
    assert code == 2
    assert err.splitlines() == [
        "invalid trace: %s: unsupported schema version 2" % trace]


@pytest.mark.parametrize("texts, reason", [
    (("{oops", "not json"), "unreadable (not JSON)"),
    ((None, None), "missing, so this run cannot be told from another"),
])
def test_metas_that_cannot_be_read_do_not_share_a_feed(tmp_path, texts,
                                                       reason):
    """Two directories whose meta.json cannot be read, or is missing,
    used to get one identity, so the second's units were skipped as
    already folded."""
    store = str(tmp_path / "store")
    for (commit, run), text in zip((("509f09e", "campaign"),
                                    ("84d676a", "fullstudy")), texts):
        directory = copy_fixture(tmp_path, commit, run)
        path = os.path.join(directory, "meta.json")
        os.remove(path)
        if text is not None:
            with open(path, "w") as handle:
                handle.write(text)
        code, __, err = run_cli("observe", "ingest", "--from", directory,
                                "--store-dir", store, "--no-geo")
        assert code == 2
        assert error_line(err) == "error: %s: %s" % (path, reason)
    assert not os.path.exists(os.path.join(store, "MANIFEST.json"))


def test_a_journal_frame_the_reader_refuses_is_damage(tmp_path):
    path = str(tmp_path / "journal.wal")
    journal = Journal(path)
    journal.append({"kind": "commit", "key": ("unit", 0),
                    "snapshot": "a", "state_snapshot": None})
    for refused in ([1, 2], {"kind": "other"}, {"kind": "crash",
                                                 "point": 3}):
        journal.append(refused)
    journal.close()
    assert [seq for seq, __ in scan_journal(path)] == [0]
