"""Layout guards: code that was folded into one shared function stays
folded.  Each case greps ``src/repro`` and compares the files that
match with an allow-list; the failure message names the function to
call instead of growing a new copy."""

import ast
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


DECLARED = ("a declared seam (DESIGN.md \"Arms race & adaptive pacing\", "
            "\"Lazy population\"): the class declares the attribute, "
            "None where it has none (Middlebox, Node, DefenseMiddlebox."
            "ban_span, DomainScanner.perf), and callers read it directly")

PLAN = ("the world's address plan, repro.inetmodel.allocation.AddressPlan "
        "(DESIGN.md \"World construction\"): plan.block(...) carves and "
        "registers an AS, its HostBlock hands out hosts by next() or a "
        "declared host(offset)")

LIVE = ("the owner's liveness rule (DESIGN.md \"Durability & resume\" → "
        "*Bit-identical resume*): Network.flow_state / "
        "restore_flow_state, DnsCache.live / replace")
ANSWERS = ("the answer classes (DESIGN.md \"Stub DNS client\" → *Answer "
           "classes*): a resolver caches the HonestResult it was given, "
           "in ResolverNode._settled_a and resolve_honest")


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
    ("send_many( callers", r"(?<!def )\bsend_many\(", None,
     {"dnswire/client.py"},         # ask_many: one flow, many questions
     CLIENT.replace("client.ask", "client.ask_many")),
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
    # Prefixes and fixed host offsets come from the plan only.
    ("prefix allocators and literal host offsets",
     r"\bPrefixAllocator\(|\.address_at\(\d", None,
     {"inetmodel/allocation.py"}, PLAN),
    ("flow counters read outside the network", r"_flow_counts|_flow_epoch",
     None, {"netsim/network.py"}, LIVE),
    ("resolver cache writes", r"\.cache\.put\(", None,
     {"resolvers/resolver.py"}, ANSWERS),
    ("records built for a resolver cache", r"\bcache_records\b", None,
     set(), ANSWERS),
    # A capability sniffed by name is a second code path for an object
    # that lacks it: any hasattr(, and a getattr( with a literal name.
    # hasattr(os, "fork") asks the platform, not a collaborator.
    ("getattr(/hasattr( capability sniffs",
     r"\bhasattr\((?!os, \"fork\"\))"
     r"|\bgetattr\([^()]*?,\s*(\"[^\"]*\"|'[^']*')\s*[,)]", None,
     set(), DECLARED),
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


def test_one_copy_of_the_query_loss_draw():
    """The sweep's loss column and the per-datagram body draw the query
    loss; a batch path that copied the body would grow a third."""
    source = (SRC / "netsim" / "network.py").read_text()
    assert source.count("_SALT_QUERY_LOSS ^") <= 2, \
        "the query-loss draw grew a copy — send_probe and send_many " \
        "share Network._datagram (DESIGN.md \"Stub DNS client\" → " \
        "*One flow, many questions*)"


def functions_matching(path, pattern):
    """The innermost functions (``Class.method``, ``function`` or
    ``<module>``) holding a line of ``path`` that matches ``pattern``."""
    source = path.read_text()
    spans = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef):
                    spans.append((child.lineno, child.end_lineno, name))
                name += "."
            visit(child, name)

    visit(ast.parse(source), "")
    regex = re.compile(pattern)
    found = set()
    for number, line in enumerate(source.splitlines(), 1):
        if regex.search(line):
            inside_spans = [(start, name) for start, end, name in spans
                            if start <= number <= end]
            found.add(max(inside_spans)[1] if inside_spans else "<module>")
    return found


# (what is guarded, regex over network.py's lines, the one function
#  allowed to match, what to call instead)
FATE_PLANE = [
    ("the 4-tuple hash", r"0x9E3779B1", "flow_key",
     "flow_key(src_int, src_port, dst_int, dst_port)"),
    ("the flow counters advancing or resetting",
     r"_flow_counts(\[[^\]]*\]\s*=(?!=)|\.clear\()",
     "Network._occurrence", "Network._occurrence(salt ^ key)"),
]


@pytest.mark.parametrize("what,pattern,allowed,instead", FATE_PLANE,
                         ids=[guard[0] for guard in FATE_PLANE])
def test_one_fate_plane(what, pattern, allowed, instead):
    """A packet's fate is keyed, counted and drawn in one place each
    (DESIGN.md "Fault model")."""
    found = functions_matching(SRC / "netsim" / "network.py", pattern)
    assert found == {allowed}, "%s in %s, not only in %s — call %s" % (
        what, sorted(found), allowed, instead)


# (what is guarded, regex over src/repro's lines, the one file and
#  function allowed to match, what to call instead)
ONE_BUILDER = [
    ("the pacing plan's build", r"(?<!def )\bbuild_pacing_plan\(",
     ("scanner/ipv4scan.py", "Ipv4Scanner._pacing_plan"),
     "Ipv4Scanner._pacing_plan(columns), which builds a plan when its "
     "columns or defense plane change and tallies it once per scan "
     "(DESIGN.md \"Arms race & adaptive pacing\")"),
    ("a lazy node's synthesis", r"(?<!def )\.synthesize\(",
     ("resolvers/population.py", "PopulationBuilder._materialize"),
     "the bounded LRU, PopulationBuilder._materialize, or Node.warm() "
     "to fill it (DESIGN.md \"Lazy population\")"),
]


@pytest.mark.parametrize("what,pattern,allowed,instead", ONE_BUILDER,
                         ids=[guard[0] for guard in ONE_BUILDER])
def test_one_builder(what, pattern, allowed, instead):
    """What a memo holds is built in the memo's gateway alone."""
    found = {(path.relative_to(SRC).as_posix(), function)
             for path in SRC.rglob("*.py")
             for function in functions_matching(path, pattern)}
    assert found == {allowed}, "%s in %s, not only in %s — call %s" % (
        what, sorted(found), allowed, instead)


# Where splitmix64's first multiplier is written out: the finaliser, the
# column kernel, and the two draws inlined per datagram and per probe.
SPLITMIX = {("util.py", "mix64"), ("util.py", "fate_counts"),
            ("netsim/network.py", "Network._packet_fate"),
            ("scanner/ipv4scan.py", "Ipv4Scanner._sweep")}


def test_one_column_kernel():
    """A column of fate draws goes through the lane kernel; only the
    per-datagram and per-probe draws inline ``mix64``."""
    found = {(path.relative_to(SRC).as_posix(), function)
             for path in SRC.rglob("*.py")
             for function in functions_matching(
                 path, r"(?i)0xBF58476D1CE4E5B9")}
    assert found == SPLITMIX, \
        "splitmix64 written out in %s — draw a column with " \
        "repro.util.fate_counts(values, rules, draws), one value with " \
        "repro.util.mix64 (DESIGN.md \"Fault model\")" % sorted(
            found - SPLITMIX)


def test_one_settle_decision():
    """Whether a question settles or takes the wire is decided once per
    datagram; a sender that decides it again grows a second path."""
    assert not files_matching(r"\b_settles\("), \
        "a second settle decision — pass the question and its renderer " \
        "to Network._datagram, which alone decides (DESIGN.md \"Stub " \
        "DNS client\" → *Answer classes*)"


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


ROOT = SRC.parent.parent
# What CI, the docs and the skill notes tell a reader to run.
RUN_BOOKS = [".github/workflows/ci.yml", "README.md", "DESIGN.md"] + sorted(
    path.relative_to(ROOT).as_posix()
    for path in ROOT.glob(".*/skills/*/SKILL.md"))


@pytest.mark.parametrize("book", RUN_BOOKS)
def test_documented_benchmark_modules_exist(book):
    """``python -m benchmarks...`` names a module this tree ships (a
    command may wrap across lines)."""
    text = (ROOT / book).read_text()
    missing = set()
    for module in re.findall(r"python\s+-m\s+(benchmarks[\w.]*\w)", text):
        path = ROOT.joinpath(*module.split("."))
        if not (path.with_suffix(".py").is_file()
                or (path / "__main__.py").is_file()):
            missing.add(module)
    assert not missing, "%s runs %s, which no longer exist" % (
        book, sorted(missing))


def test_committed_bench_files_have_a_writer():
    """Every root ``BENCH_*.json`` is the ``--out`` default of a script
    in ``benchmarks/perf/``: a file nothing rewrites goes stale."""
    written = set()
    for script in (ROOT / "benchmarks" / "perf").glob("*.py"):
        written.update(re.findall(r"\"--out\", default=\"(BENCH_\w+\.json)\"",
                                  script.read_text()))
    orphans = {path.name for path in ROOT.glob("BENCH_*.json")} - written
    assert not orphans, "no script writes %s" % sorted(orphans)
