"""Layout guards: code that was folded into one shared function stays
folded.  Each case greps ``src/repro`` and compares the files that
match with an allow-list; the failure message names the function to
call instead of growing a new copy."""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

CLIENT = ("the stub DNS client, repro.dnswire.client.ask (DESIGN.md "
          "\"Stub DNS client\"): allocate a txid and a source port, call "
          "it, decode what it accepted")

STAGES = ("the stage table, ManipulationPipeline.STAGES (DESIGN.md "
          "\"Pipeline parallelism\"): a stage returns its payload or "
          "raises, _unit does the rest")

WIRE = ("the wire path, repro.dnswire.wire (DESIGN.md \"Stub DNS "
        "client\" → *Wire path*): peek_query reads the question, the "
        "answer logic returns (rcode, ra, records), a WireReply holds "
        "them and renders answer_wire's bytes on the first byte read")


def outside(subtree):
    return lambda name: not name.startswith(subtree)


def inside(subtree):
    return lambda name: name.startswith(subtree)


# (what is guarded, regex over source lines, which files are searched
#  (None: all), files allowed to match, where the shared code lives)
GUARDS = [
    ("send_udp( callers", r"(?<!def )\bsend_udp\(", None,
     {"dnswire/client.py",          # the one client-side exchange
      "resolvers/resolver.py"},     # _forward's raw relay: parses nothing
     CLIENT),
    # A ``Message.query(...)`` mention in a docstring is not a call.
    ("Message.query( callers", r"(?<!`)\bMessage\.query\(",
     outside("dnswire/"), set(), CLIENT),
    ("Message.from_wire( callers", r"\bMessage\.from_wire\(",
     outside("dnswire/"),
     {"authdns/server.py"},         # parses a query or stays silent
     CLIENT + "; a server answering a stub query uses " + WIRE),
    ("answer_wire( callers", r"\banswer_wire\(", None,
     {"dnswire/wire.py",            # WireReply.wire, the one render
      "netsim/gfw.py"},             # the forged answer
     WIRE),
    ("message objects built by the resolvers",
     r"\b(Message|Header|Question|make_response)\(", inside("resolvers/"),
     set(), WIRE),
    ("splitmix64 finaliser definitions", r"\bdef _?mix64\(", None,
     {"util.py"},
     "repro.util.mix64 (the per-probe loops inline it and say so)"),
    (".stream_results readers", r"\.stream_results\b", None,
     {"scanner/engine.py",          # ShardedEngine._run_sharded: the reader
      "scanner/options.py",         # declared
      "cli.py"},                    # parsed
     "ShardedEngine._run_sharded(reassemble=): pass a reassembler to "
     "stream, None to stay resident (DESIGN.md \"Streaming results\")"),
    ("mark_degraded( callers", r"(?<!def )\bmark_degraded\(", None,
     {"core/pipeline.py"}, STAGES),
    ("the streamed domain scan and the distance memo",
     r"consume=|process_into|observation_count|MemoizedDistance", None,
     set(),
     "report.observations (the domain scan is resident) and "
     "PAGE_DISTANCE called directly; " + STAGES),
    ("a second spelling of a scan week",
     r"WeekColumns|_WeekResultView|_WeekSnapshotView|_rcode_counts", None,
     set(),
     "the committed ScanResult: ResolverStore.put_week(week, result) / "
     "week(w), wrapped in WeeklySnapshot for repro.analysis (DESIGN.md "
     "\"Observatory\")"),
]


def files_matching(pattern, searched=None):
    regex = re.compile(pattern)
    matched = set()
    for path in SRC.rglob("*.py"):
        name = path.relative_to(SRC).as_posix()
        if searched is not None and not searched(name):
            continue
        if any(regex.search(line) for line in path.read_text().splitlines()):
            matched.add(name)
    return matched


@pytest.mark.parametrize("what,pattern,searched,allowed,instead", GUARDS,
                         ids=[guard[0] for guard in GUARDS])
def test_single_copy(what, pattern, searched, allowed, instead):
    matched = files_matching(pattern, searched)
    assert not matched - allowed, "%s grew in %s — use %s" % (
        what, sorted(matched - allowed), instead)
    assert not allowed - matched, "stale allow-list for %s: %s" % (
        what, sorted(allowed - matched))


def test_one_degradation_handler():
    """A stage that raises is ``ManipulationPipeline._unit``'s to record;
    the only other entry is the acquisition stage's exhausted error
    budget, which is not an exception."""
    source = (SRC / "core" / "pipeline.py").read_text()
    assert source.count("except Exception") == 1, \
        "a stage grew its own failure handling — raise, use " + STAGES
    assert len(re.findall(r"(?<!def )\bmark_degraded\(", source)) == 2, \
        "mark_degraded( call sites changed — use " + STAGES


def test_one_command_session():
    """Every study command's lifecycle is ``cli._session``'s: one crash
    handler, one place tracing is constructed, no flag sniffed."""
    source = (SRC / "cli.py").read_text()
    session = ("cli._session (DESIGN.md \"Command session\"): a command "
               "is a body inside `with _session(args) as run:`")
    assert source.count("except InjectedCrash") == 1, \
        "a command grew its own crash handling — use " + session
    assert "getattr(args" not in source, \
        "a flag is sniffed, not declared — add it to the flag group of " \
        "the commands that read it; the rest is " + session
    functions = re.split(r"^(?=def |@contextmanager)", source, flags=re.M)
    builders = [text.split("(")[0] for text in functions
                if re.search(r"\b(Observability|Tracer)\(", text)]
    assert builders == ["def _tracing"], \
        "tracing is constructed in %s — study commands get it from %s, " \
        "observe commands call _tracing" % (builders, session)
    for once in ("_open_checkpoint(", "_finish_checkpoint(",
                 "_check_shards(", ".install("):
        assert len(re.findall(r"(?<!def )" + re.escape(once),
                              source)) == 1, \
            "%s) has a second call site — use %s" % (once, session)
